"""File formats: containers, checkpoints, scene manifests, and reports."""
import hashlib
import json
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from icefusion.cli import main
from icefusion.errors import (
    FormatError,
    IntegrityError,
    ProvenanceError,
    UnsupportedVersionError,
    UsageError,
)
from icefusion.importance import AnalysisReport, ZScoreEntry, analyze, compare_variants
from icefusion.network import ModelConfig, build, forward, named_parameters
from icefusion.rng import SeededRng
from icefusion.scenes import SceneConfig, generate
from icefusion.storage import (
    ReportFile,
    groups_csv_path,
    load_checkpoint,
    load_dataset,
    load_scene,
    manifest_dataset_id,
    read_manifest,
    read_report,
    save_checkpoint,
    save_scene,
    sha256_file,
    write_comparison,
    write_manifest,
    write_report,
)
from icefusion.training import NATIVE_GRID, MixingStats, TrainConfig, train


def toy_net(seed=17):
    cfg = ModelConfig.custom(2, 2, dilation_rates=(2, 4), mwr_channels=2,
                             mwr_factor=2, dropout_rate=0.1)
    return build(cfg, SeededRng(seed))


def toy_scene(seed=0):
    return generate(SceneConfig(height=8, width=8, mwr_factor=2, mwr_channels=2,
                                blob_scale=2.0, seed=seed))


def rewrite_header(path: Path, remove=(), **changes):
    blob = path.read_bytes()
    cut = blob.find(b"\n")
    header = json.loads(blob[:cut].decode("utf-8"))
    for key in remove:
        del header[key]
    header.update(changes)
    path.write_bytes(json.dumps(header, sort_keys=True).encode("utf-8") + blob[cut:])


# ---------------------------------------------------------------------------
# Checkpoints


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    net = toy_net()
    scene = toy_scene()
    # move parameters, running stats and the version off their initial values
    train(net, [scene], TrainConfig(learning_rate=0.05, epochs=2, seed=5))
    before = forward(net, scene.sar, scene.mwr, mode="eval")

    path = tmp_path / "model.ckpt"
    save_checkpoint(net, path, train_seed=5, provenance={"dataset_id": "abc"})
    loaded = load_checkpoint(path)

    assert loaded.config == net.config
    for (name, original), (_, restored) in zip(named_parameters(net),
                                               named_parameters(loaded)):
        npt.assert_array_equal(original, restored, err_msg=name)
    after = forward(loaded, scene.sar, scene.mwr, mode="eval")
    npt.assert_array_equal(before.prob, after.prob)
    npt.assert_array_equal(before.mixing_inputs, after.mixing_inputs)


@pytest.mark.parametrize("config", [
    ModelConfig.custom(np.int64(2), 2, dilation_rates=(2,), mwr_channels=np.int64(2),
                       mwr_factor=2),
    ModelConfig.custom(np.int32(2), np.int64(3), dilation_rates=(2, 4), mwr_channels=2,
                       mwr_factor=np.int64(2), dropout_rate=np.float64(0.2)),
    ModelConfig.for_variant("small", dropout_rate=np.float32(0.1)),
])
def test_checkpoint_round_trips_configs_given_numpy_scalars(tmp_path, config):
    net = build(config, SeededRng(3))
    path = tmp_path / "model.ckpt"
    save_checkpoint(net, path)
    loaded = load_checkpoint(path)
    assert loaded.config == config
    for field, value in config.to_dict().items():
        assert type(value) in (str, int, float, tuple), field
    for (name, original), (_, restored) in zip(named_parameters(net),
                                               named_parameters(loaded)):
        npt.assert_array_equal(original, restored, err_msg=name)


def test_checkpoint_header_is_self_describing(tmp_path):
    net = toy_net()
    path = tmp_path / "model.ckpt"
    save_checkpoint(net, path, train_seed=9)
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert header["schema"] == "fusion-checkpoint"
    assert header["train_seed"] == 9
    assert header["tool_version"]
    assert header["model_config"]["variant"] == "custom"


def test_checkpoint_version_bump_is_refused(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(toy_net(), path)
    rewrite_header(path, format_version=99)
    with pytest.raises(UnsupportedVersionError):
        load_checkpoint(path)


def test_checkpoint_with_removed_config_key_is_refused(tmp_path, capsys):
    # checkpoints written while the architecture was configurable carry its keys
    path = tmp_path / "model.ckpt"
    net = toy_net()
    save_checkpoint(net, path)
    rewrite_header(path, model_config=dict(net.config.to_dict(), kernel_size=3))
    with pytest.raises(FormatError):
        load_checkpoint(path)
    code = main(["analyze", "--ckpt", str(path), "--data", str(tmp_path),
                 "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 3 and err.startswith("E_FORMAT:") and err.count("\n") == 1


def _config_set(field, value):
    return lambda cfg: cfg.update({field: value})


def _group_widths_header(cfg):
    """The model config as written while it stored the partition as a map."""
    widths = ModelConfig.from_dict(cfg).group_widths
    del cfg["scale0_width"], cfg["branch_width"]
    cfg["group_widths"] = widths


@pytest.mark.parametrize("edit", [
    _config_set("scale0_width", "abc"),
    _config_set("branch_width", 2.9),    # was truncated to 2 and loaded
    _config_set("branch_width", True),
    lambda cfg: cfg.update(dilation_rates=["x", 4]),
    lambda cfg: cfg.update(dilation_rates=[2.0, 4]),
    lambda cfg: cfg.update(mwr_factor=1.5),
    lambda cfg: cfg.update(mwr_channels=True),
    lambda cfg: cfg.update(variant="huge"),
    lambda cfg: cfg.update(scale0_width=[2, 2, 2, 2]),
    lambda cfg: cfg.pop("dilation_rates"),
    _group_widths_header,
])
def test_malformed_checkpoint_configs_exit_3(tmp_path, capsys, edit):
    path = tmp_path / "model.ckpt"
    net = toy_net()
    save_checkpoint(net, path)
    config = net.config.to_dict()
    edit(config)
    rewrite_header(path, model_config=config)
    with pytest.raises(FormatError):
        load_checkpoint(path)
    code = main(["analyze", "--ckpt", str(path), "--data", str(tmp_path),
                 "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 3 and err.startswith("E_FORMAT:") and err.count("\n") == 1, err


def test_checkpoint_config_beyond_its_payload_is_refused_before_building(tmp_path):
    # A consistent config of 10**5-wide groups would allocate about 7 TB.
    path = tmp_path / "model.ckpt"
    save_checkpoint(toy_net(), path)
    wide = ModelConfig.custom(10**5, 10**5, dilation_rates=(2, 4), mwr_channels=10**5)
    rewrite_header(path, model_config=wide.to_dict())
    with pytest.raises(IntegrityError, match="needs"):
        load_checkpoint(path)


def test_container_array_records_are_validated(tmp_path):
    # Each rewritten header keeps its valid payload digest; only the array
    # table is malformed, and every variant must be a FormatError (exit 3).
    path = tmp_path / "model.ckpt"
    save_checkpoint(toy_net(), path)
    blob = path.read_bytes()
    records = json.loads(blob[:blob.find(b"\n")])["arrays"]
    first, rest = records[0], records[1:]
    bad_tables = [
        {"a": first},
        [dict(first, offset=-8), *rest],
        [dict(first, offset=True), *rest],
        [dict(first, shape="ab"), *rest],
        [dict(first, shape=[2.0]), *rest],
        [dict(first, shape=[0, 2**70]), *rest],
        [{"shape": first["shape"], "offset": 0}, *rest],
        [1, *rest],
    ]
    rewrite_header(path, remove=["arrays"])
    with pytest.raises(FormatError):
        load_checkpoint(path)
    for table in bad_tables:
        path.write_bytes(blob)
        rewrite_header(path, arrays=table)
        with pytest.raises(FormatError):
            load_checkpoint(path)


def test_checkpoint_corruption_is_refused(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(toy_net(), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(IntegrityError):
        load_checkpoint(path)
    flipped = bytearray(blob)
    flipped[-1] ^= 0xFF
    path.write_bytes(bytes(flipped))
    with pytest.raises(IntegrityError):
        load_checkpoint(path)


def test_container_rejects_foreign_or_damaged_files(tmp_path):
    scene_path = tmp_path / "scene.scene"
    save_scene(toy_scene(), SceneConfig(height=8, width=8, mwr_factor=2,
                                        mwr_channels=2, blob_scale=2.0), scene_path)
    with pytest.raises(FormatError):
        load_checkpoint(scene_path)
    junk = tmp_path / "junk.ckpt"
    junk.write_bytes(b"no header newline here")
    with pytest.raises(FormatError):
        load_checkpoint(junk)
    junk.write_bytes(b"{not json\n\x00\x01")
    with pytest.raises(FormatError):
        load_checkpoint(junk)
    junk.write_bytes(b"[" * 100_000 + b"\n")  # nested past the parser's recursion limit
    with pytest.raises(FormatError):
        load_checkpoint(junk)
    with pytest.raises(FormatError):
        load_checkpoint(tmp_path / "absent.ckpt")


# ---------------------------------------------------------------------------
# Scenes and manifests


def test_scene_round_trip(tmp_path):
    cfg = SceneConfig(height=8, width=8, mwr_factor=2, mwr_channels=2,
                      blob_scale=2.0, seed=21)
    scene = generate(cfg)
    path = tmp_path / "scene-0000.scene"
    save_scene(scene, cfg, path)
    restored, restored_cfg = load_scene(path)
    assert restored_cfg == cfg
    npt.assert_array_equal(restored.sar, scene.sar)
    npt.assert_array_equal(restored.mwr, scene.mwr)
    npt.assert_array_equal(restored.label, scene.label)


def test_manifest_and_dataset_loading(tmp_path):
    cfg_base = dict(height=8, width=8, mwr_factor=2, mwr_channels=2, blob_scale=2.0)
    names = []
    scenes = []
    for i in range(3):
        cfg = SceneConfig(seed=100 + i, **cfg_base)
        scene = generate(cfg)
        name = f"scene-{i:04d}.scene"
        save_scene(scene, cfg, tmp_path / name)
        names.append(name)
        scenes.append(scene)
    write_manifest(tmp_path, names, generator={"note": "test"}, master_seed=7)

    manifest = read_manifest(tmp_path)
    assert [e["file"] for e in manifest["scenes"]] == names
    digest_cat = "".join(sha256_file(tmp_path / n) for n in names)
    assert manifest_dataset_id(manifest) == hashlib.sha256(
        digest_cat.encode("ascii")).hexdigest()

    loaded, loaded_manifest = load_dataset(tmp_path)
    assert loaded_manifest["master_seed"] == 7
    for original, restored in zip(scenes, loaded):
        npt.assert_array_equal(original.sar, restored.sar)

    with (tmp_path / names[1]).open("ab") as handle:
        handle.write(b"x")
    with pytest.raises(IntegrityError):
        load_dataset(tmp_path)


def test_dataset_refuses_incomplete_manifests(tmp_path):
    cfg = SceneConfig(height=8, width=8, mwr_factor=2, mwr_channels=2, blob_scale=2.0)
    save_scene(generate(cfg), cfg, tmp_path / "scene-0000.scene")
    write_manifest(tmp_path, ["scene-0000.scene"], generator={}, master_seed=0)
    manifest = read_manifest(tmp_path)
    load_dataset(tmp_path)

    (tmp_path / "scene-0000.scene").unlink()
    with pytest.raises(FormatError):
        load_dataset(tmp_path)
    for scenes in ([], None, "scene-0000.scene", [{"file": "scene-0000.scene"}]):
        doc = dict(manifest, scenes=scenes)
        if scenes is None:
            del doc["scenes"]
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            load_dataset(tmp_path)


@pytest.mark.parametrize("reader, name, content", [
    (read_report, "report.json", b"[]"),
    (read_manifest, "manifest.json", b"[]"),
    (load_checkpoint, "model.ckpt", b"[1]\n"),
])
def test_non_object_documents_are_format_errors(tmp_path, reader, name, content):
    path = tmp_path / name
    path.write_bytes(content)
    with pytest.raises(FormatError, match="JSON object"):
        reader(path)


def test_manifest_validation(tmp_path):
    with pytest.raises(FormatError):
        read_manifest(tmp_path)
    bad = tmp_path / "manifest.json"
    bad.write_text("{}")
    with pytest.raises(FormatError):
        read_manifest(tmp_path)


# ---------------------------------------------------------------------------
# Reports


def hand_report(dead_index=None):
    cfg = ModelConfig.custom(1, 1, dilation_rates=(2, 4, 8, 16), mwr_channels=1,
                             mwr_factor=2, dropout_rate=0.0)
    net = build(cfg, SeededRng(0))
    net.mixing_coefficients[:] = [0.1 + 0.2, 1.0 / 3.0, -2.5, 0.5, -0.25, 4.0]
    sigma = np.ones(6)
    if dead_index is not None:
        sigma[dead_index] = 0.0
    stats = MixingStats(mean=np.zeros(6), sigma=sigma,
                        btemp_provenance=(NATIVE_GRID,),
                        fine_pixel_count=64, native_pixel_count=16)
    return analyze(net, stats)


def native_provenance():
    return {"checkpoint_sha256": "c" * 64, "dataset_id": "d" * 64,
            "btemp_provenance": [NATIVE_GRID]}


def test_report_json_round_trip(tmp_path):
    report = hand_report(dead_index=3)
    path = tmp_path / "report.json"
    write_report(ReportFile(report=report, provenance=native_provenance(),
                            top_ranking=report.ranking[:3]), path)
    restored = read_report(path)
    assert restored.report == report
    assert restored.provenance == native_provenance()
    assert restored.top_ranking == report.ranking[:3]
    assert restored.tool_version
    again = tmp_path / "again.json"
    write_report(restored, again)
    assert again.read_bytes() == path.read_bytes()


def test_report_csv_export(tmp_path):
    report = hand_report()
    path = tmp_path / "report.csv"
    write_report(ReportFile(report=report, provenance=native_provenance()), path,
                 format="csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "input_index,group,coefficient,sigma,z,abs_z,rank,dead"
    assert len(lines) == 7
    rank_by_index = {i: r + 1 for r, i in enumerate(report.ranking)}
    for line in lines[1:]:
        cells = line.split(",")
        index = int(cells[0])
        assert float(cells[2]) == report.entries[index].coefficient
        assert float(cells[4]) == report.entries[index].z
        assert int(cells[6]) == rank_by_index[index]
        assert cells[7] == "0"
    assert sorted(int(line.split(",")[6]) for line in lines[1:]) == [1, 2, 3, 4, 5, 6]

    group_lines = groups_csv_path(path).read_text().splitlines()
    assert group_lines[0] == "group,sum_abs_z,rank"
    assert len(group_lines) == 7
    by_name = {cells[0]: cells for cells in (l.split(",") for l in group_lines[1:])}
    for name, total in report.group_sums.items():
        assert float(by_name[name][1]) == total
    assert by_name["btemp"][2] == "1"


def test_report_csv_dead_row_is_empty(tmp_path):
    report = hand_report(dead_index=2)
    path = tmp_path / "report.csv"
    write_report(ReportFile(report=report, provenance=native_provenance()), path,
                 format="csv")
    lines = path.read_text().splitlines()
    dead_cells = lines[3].split(",")
    assert dead_cells[4] == dead_cells[5] == dead_cells[6] == ""
    assert dead_cells[7] == "1"
    live_rows = [l for l in lines[1:] if l.split(",")[7] == "0"]
    assert sorted(int(l.split(",")[6]) for l in live_rows) == [1, 2, 3, 4, 5]
    # the dead node contributes nothing, so its group total is written as zero
    group_lines = groups_csv_path(path).read_text().splitlines()
    by_name = {c[0]: c for c in (l.split(",") for l in group_lines[1:])}
    assert float(by_name["scale-4"][1]) == 0.0


def test_report_formats_and_refusals(tmp_path):
    report = hand_report()
    path = tmp_path / "report.json"
    with pytest.raises(UsageError):
        write_report(ReportFile(report=report, provenance={}), path, format="xml")
    upsampled = {"btemp_provenance": ["upsampled-grid"]}
    with pytest.raises(ProvenanceError):
        write_report(ReportFile(report=report, provenance=upsampled), path)
    assert not path.exists()
    with pytest.raises(UsageError):
        read_report(tmp_path / "report.csv")
    bad = tmp_path / "other.json"
    bad.write_text(json.dumps({"schema": "something-else"}))
    with pytest.raises(FormatError):
        read_report(bad)
    bad.write_text("not json at all")
    with pytest.raises(FormatError):
        read_report(bad)
    bad.write_text("[" * 100_000)
    with pytest.raises(FormatError):
        read_report(bad)
    write_report(ReportFile(report=report, provenance={}), path)
    doc = json.loads(path.read_text())
    bad.write_text(json.dumps(dict(doc, group_sums=[])))
    with pytest.raises(FormatError):
        read_report(bad)


@pytest.mark.parametrize("field, indices", [
    ("ranking", [999, 0]),
    ("top_ranking", [999]),
    ("dead_nodes", [999]),
    ("dead_nodes", [0]),      # input 0 is live
    ("ranking", [3, 0]),      # input 3 is dead
    ("top_ranking", [3]),
    ("top_ranking", ["x"]),
    ("ranking", [float("inf")]),
    # Indices are JSON integers: a float, string or bool naming a live or
    # dead input is refused, not truncated to it.
    ("ranking", [5, 2, 1, 0, 4.0]),
    ("ranking", [5, 2, 1.2]),
    ("top_ranking", ["5"]),
    ("top_ranking", [True]),
    ("dead_nodes", [3.0]),
    ("input_index", 1.9),
    ("input_index", "1"),
    # Scores are finite JSON numbers.
    ("z", "nan"),
    ("sigma", "inf"),
    ("coefficient", float("nan")),
    ("z", float("-inf")),
    ("sigma", True),
    # The stored ranking, group sums and dead nodes are the ones the entries
    # give; the ranking is (5, 2, 1, 0, 4) with input 3 dead.
    ("group_sums", {"btemp": 4.5}),
    ("ranking", [2, 5, 1, 0, 4]),
    ("ranking", [5, 2, 1, 0]),
    ("dead_nodes", []),
    ("top_ranking", [2, 1]),
    ("input_index", 2),
])
def test_report_indices_must_name_entries(tmp_path, field, indices):
    path = tmp_path / "report.json"
    write_report(ReportFile(report=hand_report(dead_index=3), provenance={}), path)
    doc = json.loads(path.read_text())
    if field in ("input_index", "coefficient", "sigma", "z"):
        doc["entries"][1][field] = indices
    elif field == "group_sums":
        doc[field].update(indices)
    else:
        doc[field] = indices
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        read_report(path)


def test_numbers_survive_json_exactly(tmp_path):
    values = [0.1 + 0.2, 1.0 / 3.0, np.nextafter(1.0, 2.0), 1e-300, -4.625]
    entries = tuple(
        ZScoreEntry(i, "btemp", value, 1.0, value) for i, value in enumerate(values)
    )
    report = AnalysisReport(variant="small", entries=entries)
    path = tmp_path / "report.json"
    write_report(ReportFile(report=report, provenance=native_provenance()), path)
    restored = read_report(path).report
    for entry, value in zip(restored.entries, values):
        assert entry.coefficient == value and entry.z == value
    assert restored.group_sums == report.group_sums


def test_write_comparison(tmp_path):
    def tagged(report, variant):
        return AnalysisReport(variant=variant, entries=report.entries)

    base = hand_report()
    comparison = compare_variants(tagged(base, "small"), tagged(base, "large"), k=6)
    path = tmp_path / "cmp.json"
    write_comparison(comparison, path, provenance={"small": "a", "large": "b"})
    doc = json.loads(path.read_text())
    assert doc["schema"] == "variant-comparison"
    assert doc["inversions"] == 0
    assert doc["btemp_rank_stable"] is True
    assert doc["provenance"] == {"small": "a", "large": "b"}
    assert doc["tool_version"]
