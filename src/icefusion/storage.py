"""On-disk formats: checkpoints, scene files, manifests and reports.

Array-bearing files share one container: a single JSON header line followed
by raw little-endian float64 blocks.  The header records every array's name,
shape and byte offset plus the payload length and SHA-256, so a reader can
reject truncated or corrupted files before reconstructing anything.  All
writes go through a temp-file-then-rename so no partially written file is
ever observable under the target name.

Reports and comparisons are plain JSON (numbers serialized via ``repr`` and
therefore lossless); the CSV export is a one-way rendering for spreadsheet
use and cannot be read back.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigurationError,
    FormatError,
    IntegrityError,
    ProvenanceError,
    UnsupportedVersionError,
    UsageError,
    _is_int,
    _is_real,
)
from .importance import AnalysisReport, ComparisonReport, ZScoreEntry, ranked_groups
from .network import (
    SAR_CHANNELS,
    FusionNetwork,
    ModelConfig,
    _value_count,
    build,
    named_parameters,
    named_state,
)
from .rng import SeededRng
from .scenes import Scene, SceneConfig
from .training import NATIVE_GRID
from .version import __version__

__all__ = [
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "ReportFile",
    "save_checkpoint",
    "load_checkpoint",
    "save_scene",
    "load_scene",
    "write_manifest",
    "read_manifest",
    "manifest_dataset_id",
    "load_dataset",
    "write_report",
    "read_report",
    "groups_csv_path",
    "write_comparison",
    "sha256_file",
    "atomic_write_text",
    "dump_json",
]

FORMAT_VERSION = 1

_CHECKPOINT_SCHEMA = "fusion-checkpoint"
_SCENE_SCHEMA = "fusion-scene"
_MANIFEST_SCHEMA = "scene-manifest"
_REPORT_SCHEMA = "importance-report"
_COMPARISON_SCHEMA = "variant-comparison"

MANIFEST_NAME = "manifest.json"


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8; the file appears under ``path`` only when complete."""
    _atomic_write_bytes(Path(path), text.encode("utf-8"))


def dump_json(obj) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def sha256_file(path) -> str:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# The envelope every file carries: schema, format version, tool version


def _envelope(schema: str, tool_version: str = __version__) -> dict:
    return {"schema": schema, "format_version": FORMAT_VERSION, "tool_version": tool_version}


def _check_envelope(doc, schema: str, path) -> None:
    """Refuse anything but a JSON object of ``schema`` at this format version."""
    if not isinstance(doc, dict):
        raise FormatError(f"{path} does not hold a JSON object")
    if doc.get("schema") != schema:
        raise FormatError(f"{path} holds schema {doc.get('schema')!r}, expected {schema!r}")
    if doc.get("format_version") != FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"{path} uses format version {doc.get('format_version')!r}; "
            f"this build reads version {FORMAT_VERSION}"
        )


def _read_document(path: Path, schema: str) -> dict:
    try:
        doc = json.loads(path.read_text("utf-8"))
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc
    _check_envelope(doc, schema, path)
    return doc


# ---------------------------------------------------------------------------
# Header + float64-block container


def _write_container(path, schema: str, body: dict,
                     arrays: list[tuple[str, np.ndarray]]) -> None:
    records = []
    chunks = []
    offset = 0
    for name, value in arrays:
        # not ascontiguousarray: that would silently promote 0-d to 1-d
        value = np.asarray(value, dtype=np.float64)
        raw = value.astype("<f8").tobytes()
        records.append({"name": name, "shape": list(value.shape), "offset": offset})
        chunks.append(raw)
        offset += len(raw)
    payload = b"".join(chunks)
    header = {
        **_envelope(schema),
        **body,
        "arrays": records,
        "payload_bytes": len(payload),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    line = json.dumps(header, sort_keys=True).encode("utf-8")
    _atomic_write_bytes(Path(path), line + b"\n" + payload)


def _read_container(path, schema: str) -> tuple[dict, dict[str, np.ndarray]]:
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    newline = blob.find(b"\n")
    if newline < 0:
        raise FormatError(f"{path} has no header line")
    try:
        header = json.loads(blob[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"{path} has a malformed header: {exc}") from exc
    _check_envelope(header, schema, path)
    payload = blob[newline + 1:]
    if len(payload) != header.get("payload_bytes"):
        raise IntegrityError(
            f"{path} payload is {len(payload)} bytes, header promises "
            f"{header.get('payload_bytes')}"
        )
    if hashlib.sha256(payload).hexdigest() != header.get("payload_sha256"):
        raise IntegrityError(f"{path} payload digest mismatch")
    records = header.get("arrays")
    if not isinstance(records, list):
        raise FormatError(f"{path} header has no list of arrays")
    arrays = {}
    for record in records:
        _check_array_record(record, path)
        shape = tuple(record["shape"])
        start = record["offset"]
        stop = start + math.prod(shape) * 8
        if stop > len(payload):
            raise IntegrityError(f"{path} array {record['name']!r} overruns the payload")
        flat = np.frombuffer(payload[start:stop], dtype="<f8")
        try:
            arrays[record["name"]] = flat.reshape(shape).astype(np.float64, copy=True)
        except ValueError as exc:  # an empty array with a dimension numpy cannot hold
            raise FormatError(f"{path} array {record['name']!r} has shape {shape}: {exc}") from exc
        if not np.isfinite(flat).all():
            raise FormatError(f"{path} array {record['name']!r} holds a NaN or infinite value")
    return header, arrays


def _check_array_record(record, path) -> None:
    """Refuse an array record that is not {name: str, shape: [count...], offset: count}."""
    if not (isinstance(record, dict)
            and isinstance(record.get("name"), str)
            and isinstance(record.get("shape"), list)
            and all(_is_int(n) and n >= 0 for n in record["shape"])
            and _is_int(record.get("offset")) and record["offset"] >= 0):
        raise FormatError(f"{path} header holds a malformed array record {record!r}")


# ---------------------------------------------------------------------------
# Checkpoints


def save_checkpoint(net: FusionNetwork, path, train_seed: int | None = None,
                    provenance: dict | None = None) -> None:
    """Persist parameters, running statistics and the architecture config."""
    body = {
        "model_config": net.config.to_dict(),
        "train_seed": train_seed,
        "provenance": provenance or {},
    }
    arrays = named_parameters(net) + named_state(net)
    _write_container(path, _CHECKPOINT_SCHEMA, body, arrays)


def load_checkpoint(path) -> FusionNetwork:
    """Rebuild a network from a checkpoint, bit-for-bit.

    Raises rather than returning a partial network when anything is missing
    or damaged.
    """
    header, arrays = _read_container(path, _CHECKPOINT_SCHEMA)
    try:
        config = ModelConfig.from_dict(header.get("model_config"))
    except ConfigurationError as exc:
        raise FormatError(f"checkpoint is missing a valid model config: {exc}") from exc
    # A config that needs more values than the file holds cannot match it;
    # refuse before building, which allocates whatever the config claims.
    needed, stored = _value_count(config), sum(value.size for value in arrays.values())
    if needed > stored:
        raise IntegrityError(f"checkpoint config needs {needed} values, the file holds {stored}")
    net = build(config, SeededRng(0))
    expected = named_parameters(net) + named_state(net)
    for name, value in expected:
        if name not in arrays:
            raise IntegrityError(f"checkpoint lacks array {name!r}")
        stored = arrays[name]
        if stored.shape != value.shape:
            raise IntegrityError(
                f"checkpoint array {name!r} has shape {stored.shape}, expected {value.shape}"
            )
        value[...] = stored
    return net


# ---------------------------------------------------------------------------
# Scenes and manifests


def save_scene(scene: Scene, cfg: SceneConfig, path) -> None:
    arrays = [("sar", scene.sar), ("mwr", scene.mwr), ("label", scene.label)]
    _write_container(path, _SCENE_SCHEMA, {"scene_config": asdict(cfg)}, arrays)


def load_scene(path) -> tuple[Scene, SceneConfig]:
    header, arrays = _read_container(path, _SCENE_SCHEMA)
    try:
        cfg = SceneConfig(**header["scene_config"])
        scene = Scene(sar=arrays["sar"], mwr=arrays["mwr"], label=arrays["label"])
    except (KeyError, TypeError, ConfigurationError) as exc:
        raise FormatError(f"scene file is incomplete: {exc}") from exc
    height, width, f = cfg.height, cfg.width, cfg.mwr_factor
    for name, shape in (("sar", (SAR_CHANNELS, height, width)),
                        ("mwr", (cfg.mwr_channels, height // f, width // f)),
                        ("label", (1, height, width))):
        if arrays[name].shape != shape:
            raise FormatError(f"scene {path}: {name} has shape {arrays[name].shape}, "
                              f"its config needs {shape}")
    return scene, cfg


def write_manifest(directory, scene_files: list[str], generator: dict, master_seed: int) -> Path:
    """Record the dataset's members, their digests and a stable dataset id."""
    directory = Path(directory)
    entries = []
    for name in scene_files:
        entries.append({"file": name, "sha256": sha256_file(directory / name)})
    dataset_id = hashlib.sha256(
        "".join(e["sha256"] for e in entries).encode("ascii")
    ).hexdigest()
    manifest = {
        **_envelope(_MANIFEST_SCHEMA),
        "generator": generator,
        "master_seed": master_seed,
        "scenes": entries,
        "dataset_id": dataset_id,
    }
    path = directory / MANIFEST_NAME
    atomic_write_text(path, dump_json(manifest))
    return path


def read_manifest(directory) -> dict:
    path = Path(directory)
    if path.is_dir():
        path = path / MANIFEST_NAME
    return _read_document(path, _MANIFEST_SCHEMA)


def manifest_dataset_id(manifest: dict) -> str:
    try:
        return manifest["dataset_id"]
    except KeyError as exc:
        raise FormatError("manifest lacks a dataset id") from exc


def load_dataset(directory) -> tuple[list[Scene], dict]:
    """All scenes named by the directory's manifest, digest-checked."""
    directory = Path(directory)
    manifest = read_manifest(directory)
    entries = manifest.get("scenes")
    if not isinstance(entries, list) or not entries:
        raise FormatError(f"the manifest in {directory} lists no scenes")
    scenes = []
    for entry in entries:
        try:
            path, digest = directory / entry["file"], entry["sha256"]
        except (KeyError, TypeError) as exc:
            raise FormatError(f"malformed manifest entry {entry!r}") from exc
        if sha256_file(path) != digest:
            raise IntegrityError(f"scene {path} does not match its manifest digest")
        scene, _ = load_scene(path)
        scenes.append(scene)
    return scenes, manifest


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class ReportFile:
    """An analysis report plus the provenance block it was derived under."""

    report: AnalysisReport
    provenance: dict
    top_ranking: tuple[int, ...] = ()
    tool_version: str = __version__


def _index(value) -> int:
    """A report's input index: a JSON integer, never a bool, float or string."""
    if not _is_int(value):
        raise TypeError(f"input index {value!r} is not an integer")
    return value


def _real(value) -> float:
    """A report's score field: a finite JSON number, never a bool, string or NaN."""
    if not _is_real(value):
        raise ValueError(f"{value!r} is not a finite number")
    return float(value)


def _entry_from_json(data: dict) -> ZScoreEntry:
    return ZScoreEntry(
        input_index=_index(data["input_index"]),
        group=str(data["group"]),
        coefficient=_real(data["coefficient"]),
        sigma=_real(data["sigma"]),
        z=None if data["z"] is None else _real(data["z"]),
    )


def _repr_number(value) -> str:
    return repr(float(value))


def _entries_csv(report: AnalysisReport) -> str:
    rank_of = {i: r + 1 for r, i in enumerate(report.ranking)}
    lines = ["input_index,group,coefficient,sigma,z,abs_z,rank,dead"]
    for e in report.entries:
        if e.dead:
            z = abs_z = rank = ""
            dead = "1"
        else:
            z = _repr_number(e.z)
            abs_z = _repr_number(e.abs_z)
            rank = str(rank_of[e.input_index])
            dead = "0"
        lines.append(
            f"{e.input_index},{e.group},{_repr_number(e.coefficient)},"
            f"{_repr_number(e.sigma)},{z},{abs_z},{rank},{dead}"
        )
    return "\n".join(lines) + "\n"


def _groups_csv(report: AnalysisReport) -> str:
    lines = ["group,sum_abs_z,rank"]
    for rank, (name, total) in enumerate(ranked_groups(report), start=1):
        lines.append(f"{name},{_repr_number(total)},{rank}")
    return "\n".join(lines) + "\n"


def groups_csv_path(path) -> Path:
    path = Path(path)
    if path.suffix == ".csv":
        return path.with_suffix(".groups.csv")
    return path.with_name(path.name + ".groups.csv")


def write_report(report_file: ReportFile, path, format: str = "json") -> None:
    """Serialize a report; ``json`` is canonical, ``csv`` an export.

    The CSV export writes the per-input table to ``path`` and the group-sum
    table next to it (``<path>.groups.csv``).
    """
    if any(p != NATIVE_GRID for p in report_file.provenance.get("btemp_provenance", [])):
        raise ProvenanceError(
            "refusing to write a report whose btemp statistics were pooled on "
            "the upsampled grid"
        )
    report = report_file.report
    if format == "json":
        doc = {
            **_envelope(_REPORT_SCHEMA, report_file.tool_version),
            **asdict(report),
            "group_sums": report.group_sums,
            "ranking": report.ranking,
            "dead_nodes": report.dead_nodes,
            "provenance": report_file.provenance,
            "top_ranking": report_file.top_ranking,
        }
        atomic_write_text(path, dump_json(doc))
    elif format == "csv":
        atomic_write_text(path, _entries_csv(report))
        atomic_write_text(groups_csv_path(path), _groups_csv(report))
    else:
        raise UsageError(f"unknown report format {format!r}")


def read_report(path) -> ReportFile:
    """Read back a JSON report, checked against its entries.  CSV exports cannot be."""
    path = Path(path)
    if path.suffix == ".csv":
        raise UsageError("CSV report exports cannot be read back; use the JSON report")
    doc = _read_document(path, _REPORT_SCHEMA)
    try:
        report = AnalysisReport(variant=str(doc["variant"]),
                                entries=tuple(_entry_from_json(e) for e in doc["entries"]))
        stored = {"ranking": tuple(map(_index, doc["ranking"])),
                  "dead_nodes": tuple(map(_index, doc["dead_nodes"])),
                  "group_sums": {k: _real(v) for k, v in doc["group_sums"].items()}}
        top_ranking = tuple(map(_index, doc.get("top_ranking", [])))
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"report {path} is incomplete: {exc}") from exc
    if any(e.input_index != i for i, e in enumerate(report.entries)):
        raise FormatError(f"report {path}: its entries are not listed by input index from 0")
    for field, value in stored.items():
        if value != getattr(report, field):
            raise FormatError(f"report {path}: its {field} disagrees with its entries")
    if top_ranking != report.ranking[:len(top_ranking)]:
        raise FormatError(f"report {path}: top_ranking is not a prefix of its ranking")
    return ReportFile(
        report=report,
        provenance=doc.get("provenance", {}),
        top_ranking=top_ranking,
        tool_version=str(doc.get("tool_version", "")),
    )


def write_comparison(comparison: ComparisonReport, path, provenance: dict | None = None) -> None:
    doc = {**_envelope(_COMPARISON_SCHEMA), **asdict(comparison), "provenance": provenance or {}}
    atomic_write_text(path, dump_json(doc))
