"""Command line surface: pipeline wiring, exit codes, warnings, file outputs."""
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from icefusion.cli import main
from icefusion.importance import AnalysisReport, ZScoreEntry, compare_variants
from icefusion.network import ModelConfig, build
from icefusion.rng import SeededRng
from icefusion.storage import (
    ReportFile,
    groups_csv_path,
    load_checkpoint,
    load_scene,
    read_manifest,
    read_report,
    save_checkpoint,
    save_scene,
    sha256_file,
    write_manifest,
    write_report,
)

GEN_ARGS = ["gen-data", "--scenes", "4", "--seed", "3", "--height", "16",
            "--width", "16", "--mwr-factor", "4"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One shared gen-data -> train -> analyze run."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    ckpt = root / "small.ckpt"
    report = root / "report.json"
    assert main(GEN_ARGS + ["--out", str(data)]) == 0
    assert main(["train", "--data", str(data), "--variant", "small", "--out",
                 str(ckpt), "--epochs", "2", "--seed", "1"]) == 0
    assert main(["analyze", "--ckpt", str(ckpt), "--data", str(data), "--out",
                 str(report)]) == 0
    return {"data": data, "ckpt": ckpt, "report": report}


def test_gen_data_writes_scenes_and_manifest(pipeline):
    files = sorted(p.name for p in pipeline["data"].iterdir())
    assert files == ["manifest.json", "scene-0000.scene", "scene-0001.scene",
                     "scene-0002.scene", "scene-0003.scene"]
    manifest = read_manifest(pipeline["data"])
    assert manifest["generator"]["scenes"] == 4
    assert len(manifest["dataset_id"]) == 64


def test_train_writes_checkpoint_and_log(pipeline):
    assert pipeline["ckpt"].exists()
    log = json.loads((pipeline["ckpt"].parent / "small.ckpt.log.json").read_text())
    assert log["schema"] == "training-log"
    assert len(log["loss_history"]) == 2
    assert log["dataset_id"] == read_manifest(pipeline["data"])["dataset_id"]


def test_analyze_report_contents(pipeline):
    report_file = read_report(pipeline["report"])
    report = report_file.report
    assert report.variant == "small"
    assert len(report.entries) == 84
    assert len(report_file.top_ranking) == 14
    assert report_file.top_ranking == report.ranking[:14]
    prov = report_file.provenance
    assert prov["checkpoint_sha256"] == sha256_file(pipeline["ckpt"])
    assert prov["dataset_id"] == read_manifest(pipeline["data"])["dataset_id"]
    assert prov["btemp_provenance"] == ["native-grid"] * 14
    assert prov["equation"] == "default"
    assert prov["pixel_counts"] == {"fine": 4 * 256, "native": 4 * 16}


def test_analyze_corrected_scores_scale_by_sqrt_n(pipeline, capsys, tmp_path):
    out = tmp_path / "eq1.json"
    code, _, _ = run(capsys, "analyze", "--ckpt", str(pipeline["ckpt"]), "--data",
                     str(pipeline["data"]), "--out", str(out), "--eq1", "--n", "100")
    assert code == 0
    plain = read_report(pipeline["report"]).report
    corrected = read_report(out).report
    assert any(not e.dead for e in plain.entries)
    for a, b in zip(plain.entries, corrected.entries):
        if a.dead:
            assert b.dead
        else:
            assert b.z == 10.0 * a.z
    assert corrected.ranking == plain.ranking
    assert read_report(out).provenance["equation"] == "corrected"
    assert read_report(out).provenance["sample_count"] == 100


def test_analyze_csv_export(pipeline, capsys, tmp_path):
    out = tmp_path / "report.csv"
    code, _, _ = run(capsys, "analyze", "--ckpt", str(pipeline["ckpt"]), "--data",
                     str(pipeline["data"]), "--out", str(out), "--format", "csv")
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "input_index,group,coefficient,sigma,z,abs_z,rank,dead"
    assert len(lines) == 85
    group_lines = groups_csv_path(out).read_text().splitlines()
    assert group_lines[0] == "group,sum_abs_z,rank"
    assert len(group_lines) == 7


def test_analyze_top_k_overflow_warns(pipeline, capsys, tmp_path):
    out = tmp_path / "wide.json"
    code, _, err = run(capsys, "analyze", "--ckpt", str(pipeline["ckpt"]), "--data",
                       str(pipeline["data"]), "--out", str(out), "--top-k", "90")
    assert code == 0
    assert "W_TOP_K" in err
    # truncated to however many inputs are alive in this run
    report_file = read_report(out)
    assert len(report_file.top_ranking) == len(report_file.report.ranking) < 90


def test_compare_and_plot_data(pipeline, capsys, tmp_path):
    large_ckpt = tmp_path / "large.ckpt"
    large_report = tmp_path / "large.json"
    assert main(["train", "--data", str(pipeline["data"]), "--variant", "large",
                 "--out", str(large_ckpt), "--epochs", "1", "--seed", "1"]) == 0
    assert main(["analyze", "--ckpt", str(large_ckpt), "--data",
                 str(pipeline["data"]), "--out", str(large_report)]) == 0
    capsys.readouterr()

    cmp_path = tmp_path / "cmp.json"
    code, _, _ = run(capsys, "compare", "--small", str(pipeline["report"]),
                     "--large", str(large_report), "--out", str(cmp_path))
    assert code == 0
    doc = json.loads(cmp_path.read_text())
    assert set(doc["group_ranks_small"]) == {
        "scale-0", "scale-2", "scale-4", "scale-8", "scale-16", "btemp"}
    assert isinstance(doc["btemp_rank_stable"], bool)
    assert doc["provenance"]["small_report_sha256"] == sha256_file(pipeline["report"])

    table = tmp_path / "plot.csv"
    code, _, _ = run(capsys, "plot-data", "--report", str(pipeline["report"]),
                     "--out", str(table))
    assert code == 0
    lines = table.read_text().splitlines()
    assert lines[0] == (f"# tool_version={read_report(pipeline['report']).tool_version}"
                        f" report_sha256={sha256_file(pipeline['report'])}")
    assert lines[1] == "figure,rank,group,input_index,value"
    ranked = [l for l in lines if l.startswith("ranked-z,")]
    sums = [l for l in lines if l.startswith("group-sum,")]
    assert len(ranked) == 14 and len(sums) == 6
    assert [int(l.split(",")[1]) for l in ranked] == list(range(1, 15))


def test_pipeline_is_byte_identical_across_reruns(tmp_path):
    digests = []
    for run_dir in ("a", "b"):
        base = tmp_path / run_dir
        data, ckpt, report = base / "data", base / "m.ckpt", base / "r.json"
        assert main(GEN_ARGS + ["--out", str(data)]) == 0
        assert main(["train", "--data", str(data), "--variant", "small", "--out",
                     str(ckpt), "--epochs", "2", "--seed", "7"]) == 0
        assert main(["analyze", "--ckpt", str(ckpt), "--data", str(data),
                     "--out", str(report)]) == 0
        digests.append((sha256_file(data / "manifest.json"), sha256_file(ckpt),
                        sha256_file(report)))
    assert digests[0] == digests[1]


def test_dead_node_warning_exits_zero(pipeline, capsys, tmp_path):
    cfg = ModelConfig.for_variant("small", mwr_factor=4, mixing_activation="relu")
    net = build(cfg, SeededRng(2))
    last = net.branches[0].convs[5]
    last.kernels[3, :, :, :] = 0.0
    last.bias[3] = -1.0
    ckpt = tmp_path / "dead.ckpt"
    save_checkpoint(net, ckpt, train_seed=2)

    out = tmp_path / "dead.json"
    code, _, err = run(capsys, "analyze", "--ckpt", str(ckpt), "--data",
                       str(pipeline["data"]), "--out", str(out))
    assert code == 0
    assert "W_DEAD_NODES" in err
    report = read_report(out).report
    assert 17 in report.dead_nodes
    assert 17 not in report.ranking


def test_usage_errors_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "train")
    assert code == 2 and "E_USAGE" in err
    code, _, err = run(capsys, "no-such-command")
    assert code == 2 and "E_USAGE" in err
    code, _, err = run(capsys, "analyze", "--ckpt", "x", "--data", "y", "--out",
                       "z", "--eq1")
    assert code == 2 and err.startswith("E_USAGE:")
    code, _, err = run(capsys, "analyze", "--ckpt", "x", "--data", "y", "--out",
                       "z", "--n", "5")
    assert code == 2 and err.startswith("E_USAGE:")
    code, _, err = run(capsys, "gen-data", "--out", str(tmp_path / "d"),
                       "--scenes", "1", "--height", "60")
    assert code == 2 and err.startswith("E_CONFIG:")
    for extra in (["--scenes", "0", "--height", "60"], ["--scenes", "-3"]):
        code, out, err = run(capsys, "gen-data", "--out", str(tmp_path / "e"), *extra)
        assert code == 2 and err.startswith("E_USAGE:") and out == ""
    assert not (tmp_path / "e").exists()
    # a non-finite dial is refused before any scene is written
    for extra in (["--mwr-noise", "nan"], ["--edge-amplitude", "inf"], ["--blob-scale", "inf"]):
        code, out, err = run(capsys, "gen-data", "--out", str(tmp_path / "f"),
                             "--scenes", "1", *extra)
        assert code == 2 and err.startswith("E_CONFIG:") and out == ""
    assert not (tmp_path / "f").exists()
    # a non-finite learning rate is refused before any data is read
    for rate in ("nan", "inf"):
        code, out, err = run(capsys, "train", "--data", str(tmp_path / "nowhere"),
                             "--variant", "small", "--out", str(tmp_path / "m.ckpt"),
                             "--lr", rate)
        assert code == 2 and err.startswith("E_CONFIG:") and out == ""


def test_train_refuses_a_dataset_the_variant_cannot_read(capsys, tmp_path):
    # the published variants read 14 radiometer channels
    data = tmp_path / "data"
    code, _, _ = run(capsys, *GEN_ARGS, "--mwr-channels", "7", "--out", str(data))
    assert code == 0
    code, out, err = run(capsys, "train", "--data", str(data), "--variant", "small",
                         "--out", str(tmp_path / "m.ckpt"), "--epochs", "1")
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("E_CONFIG: the small variant reads 14 mwr channels")
    assert "got 7 mwr channels" in err
    assert not (tmp_path / "m.ckpt").exists()


def test_missing_files_exit_3(capsys, tmp_path):
    code, _, err = run(capsys, "analyze", "--ckpt", str(tmp_path / "no.ckpt"),
                       "--data", str(tmp_path), "--out", str(tmp_path / "r.json"))
    assert code == 3 and err.startswith("E_FORMAT:")
    code, _, err = run(capsys, "train", "--data", str(tmp_path / "nowhere"),
                       "--variant", "small", "--out", str(tmp_path / "m.ckpt"))
    assert code == 3 and err.startswith("E_FORMAT:")


def test_malformed_files_exit_3(pipeline, capsys, tmp_path):
    listless = tmp_path / "listless.json"
    listless.write_text("[]")
    code, _, err = run(capsys, "plot-data", "--report", str(listless),
                       "--out", str(tmp_path / "plot.csv"))
    assert code == 3 and err.startswith("E_FORMAT:") and err.count("\n") == 1

    empty = tmp_path / "empty"
    empty.mkdir()
    write_manifest(empty, [], generator={}, master_seed=0)
    code, _, err = run(capsys, "train", "--data", str(empty), "--variant", "small",
                       "--out", str(tmp_path / "m.ckpt"))
    assert code == 3 and err.startswith("E_FORMAT:") and err.count("\n") == 1

    # report indices that name no entry, and a group sum its entries do not give
    doc = json.loads(pipeline["report"].read_text())
    stray_top = tmp_path / "stray-top.json"
    stray_top.write_text(json.dumps(dict(doc, top_ranking=[999])))
    stray_rank = tmp_path / "stray-rank.json"
    stray_rank.write_text(json.dumps(dict(doc, ranking=[999, *doc["ranking"]])))
    edited_sum = tmp_path / "edited-sum.json"
    sums = dict(doc["group_sums"], btemp=doc["group_sums"]["btemp"] + 1.0)
    edited_sum.write_text(json.dumps(dict(doc, group_sums=sums)))
    good = str(pipeline["report"])
    for argv in (["plot-data", "--report", str(stray_top)],
                 ["plot-data", "--report", str(edited_sum)],
                 ["compare", "--small", str(stray_rank), "--large", good],
                 ["compare", "--small", good, "--large", str(stray_rank)],
                 ["compare", "--small", str(edited_sum), "--large", good],
                 ["compare", "--small", good, "--large", str(edited_sum)]):
        code, _, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
        assert code == 3 and err.startswith("E_FORMAT:") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()

    # a sealed scene whose sar lacks a channel its config promises
    scene, cfg = load_scene(pipeline["data"] / "scene-0000.scene")
    one_channel = tmp_path / "one-channel"
    one_channel.mkdir()
    save_scene(replace(scene, sar=scene.sar[:1]), cfg, one_channel / "scene-0000.scene")
    write_manifest(one_channel, ["scene-0000.scene"], generator={}, master_seed=0)
    code, _, err = run(capsys, "train", "--data", str(one_channel), "--variant", "small",
                       "--out", str(tmp_path / "m.ckpt"))
    assert code == 3 and err.startswith("E_FORMAT:") and err.count("\n") == 1

    # a checkpoint with a valid digest whose array table is malformed
    bad_ckpt = tmp_path / "bad.ckpt"
    blob = pipeline["ckpt"].read_bytes()
    cut = blob.find(b"\n")
    header = json.loads(blob[:cut])
    header["arrays"][0]["offset"] = -8
    bad_ckpt.write_bytes(json.dumps(header, sort_keys=True).encode() + blob[cut:])
    code, _, err = run(capsys, "analyze", "--ckpt", str(bad_ckpt), "--data",
                       str(pipeline["data"]), "--out", str(tmp_path / "r.json"))
    assert code == 3 and err.startswith("E_FORMAT:") and err.count("\n") == 1


def test_non_finite_scene_exits_3(pipeline, capsys, tmp_path):
    # one NaN radar pixel in a scene whose digests are sealed over it
    scene, cfg = load_scene(pipeline["data"] / "scene-0000.scene")
    scene.sar[0, 3, 5] = np.nan
    data = tmp_path / "nan-data"
    save_scene(scene, cfg, data / "scene-0000.scene")
    write_manifest(data, ["scene-0000.scene"], generator={}, master_seed=0)
    for argv in (["analyze", "--ckpt", str(pipeline["ckpt"]), "--data", str(data)],
                 ["train", "--data", str(data), "--variant", "small", "--epochs", "1"]):
        code, out, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
        assert code == 3 and out == "" and err.count("\n") == 1
        assert err.startswith("E_FORMAT:") and "'sar'" in err
    assert not (tmp_path / "out").exists()


def test_non_finite_checkpoint_exits_3(pipeline, capsys, tmp_path):
    # one infinite mixing coefficient in a checkpoint sealed over it
    net = load_checkpoint(pipeline["ckpt"])
    net.mixing_coefficients[4] = np.inf
    ckpt = tmp_path / "inf.ckpt"
    save_checkpoint(net, ckpt, train_seed=1)
    code, out, err = run(capsys, "analyze", "--ckpt", str(ckpt), "--data",
                         str(pipeline["data"]), "--out", str(tmp_path / "r.json"))
    assert code == 3 and out == "" and err.count("\n") == 1
    assert err.startswith("E_FORMAT:")
    assert not (tmp_path / "r.json").exists()


def test_tied_groups_rank_in_group_order(capsys, tmp_path):
    names = ["scale-0", "scale-2", "scale-4", "scale-8", "scale-16", "btemp"]
    sums = [1.0, 2.0, 1.0, 2.0, 1.0, 1.0]
    expected = ["scale-2", "scale-8", "scale-0", "scale-4", "scale-16", "btemp"]

    def tied(variant):
        entries = tuple(ZScoreEntry(i, name, total, 1.0, total)
                        for i, (name, total) in enumerate(zip(names, sums)))
        return AnalysisReport(variant, entries)

    comparison = compare_variants(tied("small"), tied("large"))
    for ranks in (comparison.group_ranks_small, comparison.group_ranks_large):
        assert sorted(ranks, key=ranks.get) == expected

    write_report(ReportFile(report=tied("small"), provenance={}), tmp_path / "tied.csv",
                 format="csv")
    rows = groups_csv_path(tmp_path / "tied.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == expected
    assert [row.split(",")[2] for row in rows] == ["1", "2", "3", "4", "5", "6"]

    # the commands read reports back from JSON, whose keys are sorted
    for variant in ("small", "large"):
        write_report(ReportFile(report=tied(variant), provenance={}),
                     tmp_path / f"{variant}.json")
    code, _, _ = run(capsys, "compare", "--small", str(tmp_path / "small.json"),
                     "--large", str(tmp_path / "large.json"), "--out",
                     str(tmp_path / "cmp.json"))
    assert code == 0
    doc = json.loads((tmp_path / "cmp.json").read_text())
    for ranks in (doc["group_ranks_small"], doc["group_ranks_large"]):
        assert sorted(ranks, key=ranks.get) == expected

    code, _, _ = run(capsys, "plot-data", "--report", str(tmp_path / "small.json"),
                     "--out", str(tmp_path / "plot.csv"))
    assert code == 0
    rows = [line.split(",") for line in (tmp_path / "plot.csv").read_text().splitlines()
            if line.startswith("group-sum,")]
    assert [row[2] for row in rows] == expected
    assert [row[1] for row in rows] == ["1", "2", "3", "4", "5", "6"]


def test_upsampled_stats_exit_4(pipeline, capsys, tmp_path):
    code, _, err = run(capsys, "analyze", "--ckpt", str(pipeline["ckpt"]),
                       "--data", str(pipeline["data"]), "--out",
                       str(tmp_path / "r.json"), "--btemp-stats", "upsampled-grid")
    assert code == 4
    assert err.startswith("E_PROVENANCE:")
    assert not (tmp_path / "r.json").exists()


def test_compare_same_variant_exits_2(pipeline, capsys, tmp_path):
    code, _, err = run(capsys, "compare", "--small", str(pipeline["report"]),
                       "--large", str(pipeline["report"]), "--out",
                       str(tmp_path / "c.json"))
    assert code == 2 and err.startswith("E_USAGE:")


def test_version_flag(capsys):
    code, out, err = run(capsys, "--version")
    assert code == 0
    assert err == ""
