"""Command line pipeline: generate data, train, analyze, compare, export.

Exit codes: 0 success, 2 usage problems, 3 bad data or files, 4 provenance
violations.  Errors print one machine-parsable line (``CODE: message``) to
stderr.  All commands are deterministic given their seeds; no output file
contains a timestamp, so identical invocations produce identical bytes.
"""
from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import asdict, replace
from pathlib import Path

from .errors import IceFusionError, UsageError
from .importance import analyze, compare_variants, ranked_groups, top_k
from .network import ModelConfig, build
from .rng import SeededRng
from .scenes import SceneConfig, generate
from .storage import (
    ReportFile,
    atomic_write_text,
    dump_json,
    load_checkpoint,
    load_dataset,
    manifest_dataset_id,
    read_report,
    save_checkpoint,
    save_scene,
    sha256_file,
    write_comparison,
    write_manifest,
    write_report,
)
from .training import NATIVE_GRID, UPSAMPLED_GRID, TrainConfig, collect_mixing_stats, train
from .version import __version__

__all__ = ["main", "entry"]


def _cmd_gen_data(args) -> int:
    if args.scenes < 1:
        raise UsageError(f"--scenes must be at least 1, got {args.scenes}")
    base = SceneConfig(
        height=args.height,
        width=args.width,
        mwr_factor=args.mwr_factor,
        mwr_channels=args.mwr_channels,
        sar_ambiguity=args.sar_ambiguity,
        mwr_noise=args.mwr_noise,
        mwr_informative_fraction=args.informative_fraction,
        blob_scale=args.blob_scale,
        edge_amplitude=args.edge_amplitude,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    master = SeededRng(args.seed)
    names = []
    for i in range(args.scenes):
        cfg = replace(base, seed=int(master.derive(i).integers(2**63)))
        name = f"scene-{i:04d}.scene"
        save_scene(generate(cfg), cfg, out / name)
        names.append(name)
    generator = asdict(base)
    del generator["seed"]
    generator["scenes"] = args.scenes
    write_manifest(out, names, generator, args.seed)
    print(f"wrote {args.scenes} scenes to {out}")
    return 0


def _cmd_train(args) -> int:
    train_cfg = TrainConfig(
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
        shuffle=not args.no_shuffle,
    )
    scenes, manifest = load_dataset(args.data)
    dataset_id = manifest_dataset_id(manifest)
    factor = scenes[0].sar.shape[1] // scenes[0].mwr.shape[1]
    config = ModelConfig.for_variant(
        args.variant,
        mwr_channels=scenes[0].mwr.shape[0],
        mwr_factor=factor,
        mixing_activation=args.mixing_activation,
        upsample_mode=args.upsample_mode,
        dropout_rate=args.dropout_rate,
    )
    net = build(config, SeededRng(args.seed))
    _, history = train(net, scenes, train_cfg)
    save_checkpoint(
        net, args.out, train_seed=args.seed, provenance={"dataset_id": dataset_id}
    )
    log_path = Path(args.log) if args.log else Path(str(args.out) + ".log.json")
    log = {
        "schema": "training-log",
        "tool_version": __version__,
        "dataset_id": dataset_id,
        "variant": args.variant,
        "epochs": args.epochs,
        "learning_rate": args.lr,
        "batch_size": args.batch_size,
        "seed": args.seed,
        "loss_history": history,
    }
    atomic_write_text(log_path, dump_json(log))
    final = history[-1] if history else float("nan")
    print(f"trained {args.variant} variant for {args.epochs} epochs, final loss {final:.6f}")
    return 0


def _cmd_analyze(args) -> int:
    if args.eq1 and args.n is None:
        raise UsageError("--eq1 requires --n, the pixel count behind each estimate")
    if args.n is not None and not args.eq1:
        raise UsageError("--n only applies together with --eq1")
    net = load_checkpoint(args.ckpt)
    scenes, manifest = load_dataset(args.data)
    stats = collect_mixing_stats(net, scenes, btemp_source=args.btemp_stats)
    report = analyze(net, stats, sample_count=args.n if args.eq1 else None)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        top = top_k(report, args.top_k)
    for warning in caught:
        print(f"W_TOP_K: {warning.message}", file=sys.stderr)
    provenance = {
        "checkpoint_sha256": sha256_file(args.ckpt),
        "dataset_id": manifest_dataset_id(manifest),
        "btemp_provenance": list(stats.btemp_provenance),
        "pixel_counts": {
            "fine": stats.fine_pixel_count,
            "native": stats.native_pixel_count,
        },
        "equation": "corrected" if args.eq1 else "default",
        "sample_count": args.n,
    }
    report_file = ReportFile(
        report=report,
        provenance=provenance,
        top_ranking=tuple(e.input_index for e in top),
    )
    write_report(report_file, args.out, format=args.format)
    if report.dead_nodes:
        print(
            f"W_DEAD_NODES: inputs {list(report.dead_nodes)} have zero variance "
            "and were excluded from the ranking",
            file=sys.stderr,
        )
    print(f"wrote report to {args.out}")
    return 0


def _cmd_compare(args) -> int:
    small = read_report(args.small)
    large = read_report(args.large)
    comparison = compare_variants(small.report, large.report, k=args.top_k)
    provenance = {
        "small_report_sha256": sha256_file(args.small),
        "large_report_sha256": sha256_file(args.large),
    }
    write_comparison(comparison, args.out, provenance=provenance)
    print(f"wrote comparison to {args.out}")
    return 0


def _cmd_plot_data(args) -> int:
    report_file = read_report(args.report)
    report = report_file.report
    ranked = report_file.top_ranking or report.ranking[:14]
    lines = [
        f"# tool_version={__version__} report_sha256={sha256_file(args.report)}",
        "figure,rank,group,input_index,value",
    ]
    for rank, index in enumerate(ranked, start=1):
        entry = report.entries[index]
        lines.append(f"ranked-z,{rank},{entry.group},{index},{entry.abs_z!r}")
    for rank, (group, total) in enumerate(ranked_groups(report), start=1):
        lines.append(f"group-sum,{rank},{group},,{total!r}")
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote plot table to {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icefusion",
        description="Multi-scale radar/radiometer fusion: data synthesis, "
        "training and mixing-input importance analysis.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="synthesize a scene dataset")
    gen.add_argument("--out", required=True)
    gen.add_argument("--scenes", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--height", type=int, default=64)
    gen.add_argument("--width", type=int, default=64)
    gen.add_argument("--mwr-factor", type=int, default=16)
    gen.add_argument("--mwr-channels", type=int, default=14)
    gen.add_argument("--sar-ambiguity", type=float, default=0.8)
    gen.add_argument("--mwr-noise", type=float, default=0.1)
    gen.add_argument("--informative-fraction", type=float, default=0.5)
    gen.add_argument("--blob-scale", type=float, default=12.0)
    gen.add_argument("--edge-amplitude", type=float, default=1.0)
    gen.set_defaults(handler=_cmd_gen_data)

    tr = sub.add_parser("train", help="train a model variant on a dataset")
    tr.add_argument("--data", required=True)
    tr.add_argument("--variant", choices=["small", "large"], required=True)
    tr.add_argument("--out", required=True)
    tr.add_argument("--epochs", type=int, default=30)
    tr.add_argument("--lr", type=float, default=0.05)
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--batch-size", type=int, default=1)
    tr.add_argument("--mixing-activation", choices=["linear", "relu"], default="linear")
    tr.add_argument("--upsample-mode", choices=["bilinear", "nearest"], default="bilinear")
    tr.add_argument("--dropout-rate", type=float, default=0.1)
    tr.add_argument("--no-shuffle", action="store_true")
    tr.add_argument("--log", default=None)
    tr.set_defaults(handler=_cmd_train)

    an = sub.add_parser("analyze", help="score mixing inputs of a checkpoint")
    an.add_argument("--ckpt", required=True)
    an.add_argument("--data", required=True)
    an.add_argument("--out", required=True)
    an.add_argument("--top-k", type=int, default=14)
    an.add_argument("--format", choices=["json", "csv"], default="json")
    an.add_argument("--eq1", action="store_true",
                    help="use the sample-size corrected score")
    an.add_argument("--n", type=int, default=None,
                    help="pixel count for the corrected score")
    an.add_argument("--btemp-stats", choices=[NATIVE_GRID, UPSAMPLED_GRID],
                    default=NATIVE_GRID,
                    help="grid the btemp spreads are pooled on; the upsampled "
                    "grid exists only to demonstrate that analysis refuses it")
    an.set_defaults(handler=_cmd_analyze)

    cp = sub.add_parser("compare", help="contrast small and large reports")
    cp.add_argument("--small", required=True)
    cp.add_argument("--large", required=True)
    cp.add_argument("--out", required=True)
    cp.add_argument("--top-k", type=int, default=14)
    cp.set_defaults(handler=_cmd_compare)

    pl = sub.add_parser("plot-data", help="export a plot-ready long table")
    pl.add_argument("--report", required=True)
    pl.add_argument("--out", required=True)
    pl.set_defaults(handler=_cmd_plot_data)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        if code != 0:
            print("E_USAGE: invalid command line", file=sys.stderr)
        return code
    try:
        return args.handler(args)
    except IceFusionError as err:
        print(f"{err.code}: {err}", file=sys.stderr)
        return err.exit_code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
