"""Command line surface: pipeline wiring, exit codes, warnings, file outputs."""
import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from icefusion.cli import _build_parser, main
from icefusion.importance import AnalysisReport, ZScoreEntry, compare_variants
from icefusion.network import ModelConfig, build, named_parameters
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


def run_child(*argv):
    """The command in a child process, so that any RuntimeWarning numpy prints reaches stderr."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "icefusion", *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=120)


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
    assert log["shuffle"] is True


def test_train_log_records_no_shuffle(pipeline, capsys, tmp_path):
    code, _, _ = run(capsys, "train", "--data", str(pipeline["data"]), "--variant", "small",
                     "--out", str(tmp_path / "m.ckpt"), "--epochs", "1", "--no-shuffle")
    assert code == 0
    assert json.loads((tmp_path / "m.ckpt.log.json").read_text())["shuffle"] is False


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


def test_analyze_writes_the_kind_its_out_names(pipeline, capsys, tmp_path):
    # Without --format a .csv name gets the CSV export, which read_report
    # refuses by the same suffix rule, and any other name gets JSON.
    for name, first in (("r.csv", "input_index,group,"), ("r.txt", "{")):
        code, _, _ = run(capsys, "analyze", "--ckpt", str(pipeline["ckpt"]), "--data",
                         str(pipeline["data"]), "--out", str(tmp_path / name))
        assert code == 0
        assert (tmp_path / name).read_text().startswith(first)
    assert read_report(tmp_path / "r.txt").report == read_report(pipeline["report"]).report


@pytest.mark.parametrize("fmt, name", [("csv", "r.json"), ("json", "r.csv"), ("csv", "r")])
def test_analyze_format_contradicting_out_exits_2_before_reading(capsys, tmp_path, fmt, name):
    code, out, err = run(capsys, "analyze", "--ckpt", str(tmp_path / "no.ckpt"), "--data",
                         str(tmp_path / "nowhere"), "--out", str(tmp_path / name),
                         "--format", fmt)
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith(f"E_USAGE: --format {fmt} contradicts --out")
    assert list(tmp_path.iterdir()) == []


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
    for extra in (["--mwr-noise", "nan"], ["--edge-amplitude", "inf"], ["--blob-scale", "inf"],
                  ["--blob-scale", "1e308"]):
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


@pytest.mark.parametrize("flag", ["--mwr-noise", "--edge-amplitude"])
def test_gen_data_refuses_a_dial_past_its_bound(capsys, tmp_path, flag):
    # At 1e308 a channel overflows into inf and NaN; nothing may be written.
    code, out, err = run(capsys, "gen-data", "--out", str(tmp_path / "d"), "--scenes", "1",
                         "--height", "16", "--width", "16", "--mwr-factor", "4", flag, "1e308")
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("E_CONFIG:") and "[0, 1e+06]" in err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("extra", [["--height", "1000000", "--width", "1000000"],
                                   ["--mwr-channels", "100000000"]])
def test_gen_data_refuses_a_huge_grid_or_channel_count(capsys, tmp_path, extra):
    # Refused at the config, before numpy is asked for the arrays.
    code, out, err = run(capsys, "gen-data", "--out", str(tmp_path / "d"), "--scenes", "1",
                         *extra)
    low = 2 if "--height" in extra else 1
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("E_CONFIG:") and f"must be an integer in [{low}, " in err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("height, width", [(1, 8), (1, 1), (8, 1)])
def test_gen_data_refuses_a_one_pixel_side(capsys, tmp_path, height, width):
    # The label's edge map takes np.gradient, which needs two pixels a side;
    # a one-pixel side once passed the config and died there with a traceback.
    code, out, err = run(capsys, "gen-data", "--out", str(tmp_path / "d"), "--scenes", "1",
                         "--height", str(height), "--width", str(width), "--mwr-factor", "1")
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("E_CONFIG:") and "must be an integer in [2, 2048]" in err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("lr", ["1e6", "1e308"])
def test_divergent_training_exits_3_with_one_line(tmp_path, lr):
    data, ckpt = tmp_path / "data", tmp_path / "m.ckpt"
    assert main(["gen-data", "--out", str(data), "--scenes", "2", "--height", "16",
                 "--width", "16", "--mwr-factor", "4"]) == 0
    done = run_child("train", "--data", data, "--variant", "small", "--out", ckpt,
                     "--epochs", "8", "--lr", lr)
    assert done.returncode == 3 and done.stdout == "", done.stderr
    assert done.stderr.count("\n") == 1, done.stderr
    assert re.fullmatch(r"E_DATA: .* in epoch [0-7], scene [01]\n", done.stderr)
    assert not ckpt.exists()


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


@pytest.mark.parametrize("command", ["gen-data", "train", "train --log", "analyze",
                                     "compare", "plot-data"])
def test_unwritable_output_exits_3(pipeline, capsys, tmp_path, command):
    # Every output path lies under a plain file, so no directory can be made.
    blocker = tmp_path / "afile"
    blocker.write_text("")
    bad = str(blocker / "out")
    data, ckpt, report = (str(pipeline[key]) for key in ("data", "ckpt", "report"))
    large = tmp_path / "large.json"  # compare only needs a report labelled large
    large.write_text(json.dumps(dict(json.loads(pipeline["report"].read_text()),
                                     variant="large")))
    train = ["train", "--data", data, "--variant", "small", "--epochs", "1"]
    argv = {
        "gen-data": [*GEN_ARGS, "--out", bad],
        "train": [*train, "--out", bad],
        "train --log": [*train, "--out", str(tmp_path / "m.ckpt"), "--log", bad],
        "analyze": ["analyze", "--ckpt", ckpt, "--data", data, "--out", bad],
        "compare": ["compare", "--small", report, "--large", str(large), "--out", bad],
        "plot-data": ["plot-data", "--report", report, "--out", bad],
    }[command]
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and err.count("\n") == 1
    assert err.startswith(f"E_FORMAT: cannot write {bad}")


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

    # a provenance whose btemp_provenance is not a list of grid names
    for grids in (5, "native-grid", ["x"]):
        odd = tmp_path / "odd-grids.json"
        odd.write_text(json.dumps(dict(doc, provenance=dict(doc["provenance"],
                                                            btemp_provenance=grids))))
        code, out, err = run(capsys, "plot-data", "--report", str(odd),
                             "--out", str(tmp_path / "plot.csv"))
        assert code == 3 and out == "" and err.count("\n") == 1
        assert err.startswith("E_FORMAT:") and "btemp_provenance" in err
    assert not (tmp_path / "plot.csv").exists()

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


def test_a_manifest_whose_id_is_not_its_scenes_digest_exits_3(pipeline, capsys, tmp_path):
    manifest = read_manifest(pipeline["data"])
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    for dataset_id in ("not-the-digest-of-these-scenes", [1, 2]):
        (data / "manifest.json").write_text(json.dumps(dict(manifest, dataset_id=dataset_id)))
        for argv in (["train", "--data", str(data), "--variant", "small", "--epochs", "1"],
                     ["analyze", "--ckpt", str(pipeline["ckpt"]), "--data", str(data)]):
            code, out, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
            assert code == 3 and out == "" and err.count("\n") == 1, err
            assert err.startswith("E_INTEGRITY:") and "dataset id" in err
    assert not (tmp_path / "out").exists()


def test_analyze_reads_a_checkpoint_whose_dilation_passes_the_grid(pipeline, capsys, tmp_path):
    config = replace(load_checkpoint(pipeline["ckpt"]).config, dilation_rates=(2, 4, 8, 2**40))
    ckpt, out = tmp_path / "far.ckpt", tmp_path / "r.json"
    save_checkpoint(build(config, SeededRng(0)), ckpt)
    code, _, err = run(capsys, "analyze", "--ckpt", str(ckpt), "--data", str(pipeline["data"]),
                       "--out", str(out))
    assert code == 0, err
    assert f"scale-{2**40}" in read_report(out).report.group_sums


def test_analyze_refuses_a_checkpoint_with_no_finite_spread(pipeline, tmp_path):
    # Finite but huge weights: the mixing inputs' squared deviations overflow.
    net = load_checkpoint(pipeline["ckpt"])
    dict(named_parameters(net))["stem.0.kernels"][...] *= 1e200
    ckpt, out = tmp_path / "huge.ckpt", tmp_path / "r.json"
    save_checkpoint(net, ckpt, train_seed=1)
    done = run_child("analyze", "--ckpt", ckpt, "--data", pipeline["data"], "--out", out)
    assert done.returncode == 3 and done.stdout == "", done.stderr
    assert re.fullmatch(r"E_DATA: mixing input \d+ \(scale-\d+\) has no finite spread "
                        r"in scene 0\n", done.stderr), done.stderr
    assert not out.exists()


@pytest.mark.parametrize("argv, code", [
    (["train", "--variant", "small", "--dropout-rate", "2"], "E_CONFIG"),
    (["analyze", "--ckpt", "no.ckpt", "--top-k", "0"], "E_USAGE"),
    (["analyze", "--ckpt", "no.ckpt", "--eq1", "--n", "0"], "E_USAGE"),
])
def test_numeric_flags_exit_2_before_any_file_is_read(capsys, tmp_path, argv, code):
    out = tmp_path / "out.json"
    status, stdout, err = run(capsys, *argv, "--data", str(tmp_path / "nowhere"),
                              "--out", str(out))
    assert status == 2 and stdout == "" and err.count("\n") == 1
    assert err.startswith(f"{code}: --"), err
    assert list(tmp_path.iterdir()) == []


def test_analyze_refuses_a_sample_count_past_2_to_the_53(pipeline, capsys, tmp_path):
    # Every count up to 2**53 converts to a float exactly; 10**400 did not convert at all.
    out = tmp_path / "r.json"
    for n in (10**400, 2**53 + 1):
        code, stdout, err = run(capsys, "analyze", "--ckpt", str(pipeline["ckpt"]), "--data",
                                str(pipeline["data"]), "--out", str(out), "--eq1", "--n", str(n))
        assert code == 2 and stdout == "" and err.count("\n") == 1
        assert err.startswith(f"E_USAGE: --n must be an integer in [1, {2**53}], got {n}")
    assert not out.exists()


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

    write_report(ReportFile(report=tied("small"), provenance={}), tmp_path / "tied.csv")
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


def test_compare_has_no_top_k(pipeline, capsys, tmp_path):
    large = tmp_path / "large.json"
    large.write_text(json.dumps(dict(json.loads(pipeline["report"].read_text()),
                                     variant="large")))
    code, out, err = run(capsys, "compare", "--small", str(pipeline["report"]),
                         "--large", str(large), "--out", str(tmp_path / "c.json"),
                         "--top-k", "6")
    assert code == 2 and err.endswith("E_USAGE: invalid command line\n")
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("small_groups, large_groups", [
    (["scale-0"] * 3, ["scale-0"] * 3),
    (["scale-0", "btemp"], ["scale-0", "scale-2", "btemp"]),
])
def test_compare_unmatched_groups_exit_3(capsys, tmp_path, small_groups, large_groups):
    for variant, groups in (("small", small_groups), ("large", large_groups)):
        entries = tuple(ZScoreEntry(i, group, 1.0 + i, 1.0, 1.0 + i)
                        for i, group in enumerate(groups))
        write_report(ReportFile(report=AnalysisReport(variant, entries), provenance={}),
                     tmp_path / f"{variant}.json")
    code, out, err = run(capsys, "compare", "--small", str(tmp_path / "small.json"),
                         "--large", str(tmp_path / "large.json"), "--out",
                         str(tmp_path / "c.json"))
    assert code == 3 and out == "" and err.count("\n") == 1
    assert err.startswith("E_DATA:")
    assert not (tmp_path / "c.json").exists()


def test_version_flag(capsys):
    code, out, err = run(capsys, "--version")
    assert code == 0
    assert err == ""


def test_readme_documents_every_flag():
    # Both ways: every flag the parser takes is named in README's command-line
    # section, and every flag named there exists.
    parsers = [_build_parser()]
    for action in parsers[0]._actions:
        if isinstance(action, argparse._SubParsersAction):
            parsers += action.choices.values()
    flags = {flag for parser in parsers for action in parser._actions
             for flag in action.option_strings if flag.startswith("--")} - {"--help"}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n")[1].split("\n## ")[0]
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section)) == flags
