"""On-disk formats: checkpoints, scene files, manifests and reports.

Array-bearing files share one container: a single JSON header line followed
by raw little-endian float64 blocks.  The header records every array's name,
shape and byte offset plus the payload length and SHA-256, so a reader can
reject truncated or corrupted files before reconstructing anything.  A
reader derives that table from the header's config: any other table is a
``FormatError`` (E_FORMAT), and a payload whose length or digest disagrees
with the header an ``IntegrityError`` (E_INTEGRITY).  All writes go through
a temp-file-then-rename so no partially written file is ever observable
under the target name.

Reports and comparisons are plain JSON (numbers serialized via ``repr`` and
therefore lossless); the CSV export is a one-way rendering for spreadsheet
use and cannot be read back.
"""
from __future__ import annotations

import hashlib
import itertools
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
from .network import (SAR_CHANNELS, FusionNetwork, ModelConfig, _assemble, named_parameters,
                      named_state)
from .scenes import Scene, SceneConfig
from .training import NATIVE_GRID, UPSAMPLED_GRID
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
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise FormatError(f"cannot write {path}: {exc}") from exc
        raise


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8; the file appears under ``path`` only when complete."""
    _atomic_write_bytes(Path(path), text.encode("utf-8"))


def dump_json(obj) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _read_bytes(path) -> bytes:
    """The bytes of ``path``: the one way the package reads a file."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def sha256_file(path) -> str:
    return hashlib.sha256(_read_bytes(path)).hexdigest()


# ---------------------------------------------------------------------------
# The envelope every file carries: schema, format version, tool version


def _envelope(schema: str, tool_version: str = __version__) -> dict:
    return {"schema": schema, "format_version": FORMAT_VERSION, "tool_version": tool_version}


def _parse(text: bytes, schema: str, path) -> dict:
    """``text`` as UTF-8 JSON: an object of ``schema`` at this format version, or refused."""
    try:
        doc = json.loads(text.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path} does not hold a JSON object")
    if doc.get("schema") != schema:
        raise FormatError(f"{path} holds schema {doc.get('schema')!r}, expected {schema!r}")
    if doc.get("format_version") != FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"{path} uses format version {doc.get('format_version')!r}; "
            f"this build reads version {FORMAT_VERSION}"
        )
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


def _same_json(got, want) -> bool:
    """Whether ``got`` is ``want`` as JSON writes it, so 1.0 and true are not 1."""
    return got == want and json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def _read_container(blob: bytes, path, schema: str, contents) -> tuple[object, dict]:
    """The config and arrays by name of container ``blob``, read from ``path``.

    ``contents(header)`` gives the config and the ``(name, shape)`` of each
    array the file's kind holds, in file order and end to end; the header's
    array table and payload length must be exactly these.
    """
    newline = blob.find(b"\n")
    if newline < 0:
        raise FormatError(f"{path} has no header line")
    header = _parse(blob[:newline], schema, path)
    config, layout = contents(header)
    table, length = [], 0
    for name, shape in layout:
        table.append({"name": name, "offset": length, "shape": list(shape)})
        length += math.prod(shape) * 8
    records = header["arrays"] if isinstance(header.get("arrays"), list) else []
    for i, (got, want) in enumerate(itertools.zip_longest(records, table, fillvalue=())):
        if not _same_json(got, want):  # JSON holds no tuple, so () is no record
            implied = json.dumps(want) if want else "absent"
            raise FormatError(f"{path}: array record {i} should be {implied} by its config")
    if not _same_json(header.get("payload_bytes"), length):
        raise FormatError(f"{path} header's payload_bytes is not {length}, its arrays' length")
    payload = memoryview(blob)[newline + 1:]
    if len(payload) != length:
        raise IntegrityError(f"{path} payload is {len(payload)} bytes, header promises {length}")
    if hashlib.sha256(payload).hexdigest() != header.get("payload_sha256"):
        raise IntegrityError(f"{path} payload digest mismatch")
    arrays = {}
    for (name, shape), record in zip(layout, table):
        flat = np.frombuffer(payload, "<f8", math.prod(shape), record["offset"])
        if not np.isfinite(flat).all():
            raise FormatError(f"{path} array {name!r} holds a NaN or infinite value")
        arrays[name] = flat.reshape(shape).astype(np.float64)
    return config, arrays


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


def _checkpoint_contents(header: dict) -> tuple[ModelConfig, list]:
    """A checkpoint's model config and its arrays, from a dry walk that allocates none."""
    try:
        config = ModelConfig.from_dict(header.get("model_config"))
    except ConfigurationError as exc:
        raise FormatError(f"checkpoint is missing a valid model config: {exc}") from exc
    layout = []
    _assemble(config, lambda name, shape, init: layout.append((name, shape)))
    return config, layout


def load_checkpoint(path) -> FusionNetwork:
    """Rebuild a network from a checkpoint, bit-for-bit, or raise: never a partial network."""
    config, arrays = _read_container(_read_bytes(path), path, _CHECKPOINT_SCHEMA,
                                     _checkpoint_contents)
    return _assemble(config, lambda name, shape, init: arrays[name])


# ---------------------------------------------------------------------------
# Scenes and manifests


def save_scene(scene: Scene, cfg: SceneConfig, path) -> None:
    arrays = [("sar", scene.sar), ("mwr", scene.mwr), ("label", scene.label)]
    _write_container(path, _SCENE_SCHEMA, {"scene_config": asdict(cfg)}, arrays)


def _scene_contents(header: dict) -> tuple[SceneConfig, list]:
    """A scene file's config and the three arrays it implies."""
    try:
        cfg = SceneConfig(**header["scene_config"])
    except (KeyError, TypeError, ConfigurationError) as exc:
        raise FormatError(f"scene file is incomplete: {exc}") from exc
    height, width, f = cfg.height, cfg.width, cfg.mwr_factor
    return cfg, [("sar", (SAR_CHANNELS, height, width)),
                 ("mwr", (cfg.mwr_channels, height // f, width // f)),
                 ("label", (1, height, width))]


def load_scene(path) -> tuple[Scene, SceneConfig]:
    cfg, arrays = _read_container(_read_bytes(path), path, _SCENE_SCHEMA, _scene_contents)
    return Scene(**arrays), cfg


def _dataset_id(digests: list[str]) -> str:
    """A dataset's id: the SHA-256 of its scenes' digests, joined in manifest order."""
    return hashlib.sha256("".join(digests).encode("ascii")).hexdigest()


def write_manifest(directory, scene_files: list[str], generator: dict, master_seed: int) -> Path:
    """Record the dataset's members, their digests and a stable dataset id."""
    directory = Path(directory)
    entries = []
    for name in scene_files:
        entries.append({"file": name, "sha256": sha256_file(directory / name)})
    manifest = {
        **_envelope(_MANIFEST_SCHEMA),
        "generator": generator,
        "master_seed": master_seed,
        "scenes": entries,
        "dataset_id": _dataset_id([e["sha256"] for e in entries]),
    }
    path = directory / MANIFEST_NAME
    atomic_write_text(path, dump_json(manifest))
    return path


def read_manifest(directory) -> dict:
    path = Path(directory)
    if path.is_dir():
        path = path / MANIFEST_NAME
    return _parse(_read_bytes(path), _MANIFEST_SCHEMA, path)


def load_dataset(directory) -> tuple[list[Scene], dict]:
    """All scenes named by the directory's manifest, digest-checked, as is its dataset id."""
    directory = Path(directory)
    manifest = read_manifest(directory)
    entries = manifest.get("scenes")
    if not isinstance(entries, list) or not entries:
        raise FormatError(f"the manifest in {directory} lists no scenes")
    scenes, digests = [], []
    for entry in entries:
        try:
            path, digest = directory / entry["file"], entry["sha256"]
        except (KeyError, TypeError) as exc:
            raise FormatError(f"malformed manifest entry {entry!r}") from exc
        blob = _read_bytes(path)
        if hashlib.sha256(blob).hexdigest() != digest:
            raise IntegrityError(f"scene {path} does not match its manifest digest")
        scenes.append(Scene(**_read_container(blob, path, _SCENE_SCHEMA, _scene_contents)[1]))
        digests.append(digest)
    if manifest.get("dataset_id") != _dataset_id(digests):
        raise IntegrityError(f"the manifest in {directory} holds dataset id "
                             f"{manifest.get('dataset_id')!r}, not its scenes' digest")
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


def _text(value) -> str:
    """A report's variant or group name: a JSON string, never a number or null."""
    if not isinstance(value, str):
        raise TypeError(f"name {value!r} is not a string")
    return value


def _real(value) -> float:
    """A report's score field: a finite JSON number, never a bool, string or NaN."""
    if not _is_real(value):
        raise ValueError(f"{value!r} is not a finite number")
    return float(value)


def _entry_from_json(data: dict) -> ZScoreEntry:
    return ZScoreEntry(
        input_index=_index(data["input_index"]),
        group=_text(data["group"]),
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


def _is_csv(path) -> bool:
    """Whether ``path`` names a report's CSV export (``.csv``) rather than its JSON."""
    return Path(path).suffix == ".csv"


def groups_csv_path(path) -> Path:
    path = Path(path)
    if _is_csv(path):
        return path.with_suffix(".groups.csv")
    return path.with_name(path.name + ".groups.csv")


def _btemp_grids(provenance, what: str) -> list:
    """The grid names a report's provenance lists for its btemp statistics.

    Raises :class:`FormatError` unless the provenance is a JSON object whose
    ``btemp_provenance``, if present, is a list of grid names.
    """
    if not isinstance(provenance, dict):
        raise FormatError(f"{what}: its provenance is not a JSON object")
    grids = provenance.get("btemp_provenance", [])
    if not (isinstance(grids, list) and all(g in (NATIVE_GRID, UPSAMPLED_GRID) for g in grids)):
        raise FormatError(f"{what}: its btemp_provenance is not a list of grid names")
    return grids


def write_report(report_file: ReportFile, path) -> None:
    """Serialize a report: as canonical JSON, or as a CSV export when ``path`` ends in ``.csv``.

    The CSV export writes the per-input table to ``path`` and the group-sum
    table next to it (``<path>.groups.csv``).
    """
    grids = _btemp_grids(report_file.provenance, f"report {path}")
    if any(p != NATIVE_GRID for p in grids):
        raise ProvenanceError(
            "refusing to write a report whose btemp statistics were pooled on "
            "the upsampled grid"
        )
    report = report_file.report
    if _is_csv(path):
        atomic_write_text(path, _entries_csv(report))
        atomic_write_text(groups_csv_path(path), _groups_csv(report))
    else:
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


def read_report(path) -> ReportFile:
    """Read back a JSON report, checked against its entries.  CSV exports cannot be."""
    path = Path(path)
    if _is_csv(path):
        raise UsageError("CSV report exports cannot be read back; use the JSON report")
    doc = _parse(_read_bytes(path), _REPORT_SCHEMA, path)
    try:
        report = AnalysisReport(variant=_text(doc["variant"]),
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
    provenance = doc.get("provenance", {})
    _btemp_grids(provenance, f"report {path}")
    return ReportFile(
        report=report,
        provenance=provenance,
        top_ranking=top_ranking,
        tool_version=str(doc.get("tool_version", "")),
    )


def write_comparison(comparison: ComparisonReport, path, provenance: dict | None = None) -> None:
    doc = {**_envelope(_COMPARISON_SCHEMA), **asdict(comparison), "provenance": provenance or {}}
    atomic_write_text(path, dump_json(doc))
