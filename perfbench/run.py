"""icefusion benchmark: one command, three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload train-64 --seed 0 --seconds 20 --trace 0

``--trace 0`` sets up the workload several times (``setup_s`` is the median),
times the rounds that ``--seconds`` buys at nominal speed and prints every
end-to-end metric named in ``BENCHMARK.json``.  ``--trace 1`` runs a fixed
pass untraced, traced and untraced again, checks that all three produced
bit-identical outputs, and prints every per-layer metric plus the tracing
overhead.  The program is imported from
``src/`` of the checkout; nothing is installed.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent


def tail(samples: list[float]) -> tuple[float, int, int]:
    """The highest whole percentile with at least ten samples beyond it.

    Uses the nearest-rank percentile: percentile p is the ceil(p*n/100)-th
    smallest sample, and the samples beyond it are the ones ranked after it.
    Returns (value, percentile, sample count); with ten samples or fewer no
    percentile qualifies and the value is NaN.
    """
    n = len(samples)
    ordered = sorted(samples)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= 10:
            return ordered[rank - 1], p, n
    return math.nan, 0, n


# ---------------------------------------------------------------------------
# Machine record


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def _caches() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        out[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = _read(index / "size")
    return out


def _cache_bytes(size: str) -> int:
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    return int(size[:-1]) * units[size[-1]] if size and size[-1] in units else 0


def _blas_threads() -> int | None:
    for line in _read("/proc/self/maps").splitlines():
        if "openblas" in line.lower():
            lib = ctypes.CDLL(line.split()[-1])
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    return int(getattr(lib, symbol)())
    return None


def _commit() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head.startswith("ref: "):
        ref = head[5:]
        loose = _read(ROOT / ".git" / ref)
        if loose:
            return loose
        for line in _read(ROOT / ".git" / "packed-refs").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return head or "unknown (not a git checkout)"


def machine_record(workload) -> dict:
    import numpy
    import scipy
    from workloads import largest_conv_mb

    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = _caches()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    conv_mb = largest_conv_mb(workload.grid)
    level = next((name for name in ("L2", "L3")
                  if conv_mb * 1e6 <= _cache_bytes(caches.get(name, ""))), "memory")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches_per_core_or_shared": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": _commit(),
        "working_set": {"largest_conv_mb_computed": conv_mb, "fits_in": level},
    }


# ---------------------------------------------------------------------------
# Runs


def _end_to_end(workload, seed: int, seconds: float, workdir: Path):
    """Every end-to-end metric.

    Each unit-op and set-up time is divided by the speed factor in force when
    it was taken, and the rate is multiplied by the run's mean factor (see
    ``SpeedGauge``).  The wall-clock values go into the notes.
    """
    from workloads import SpeedGauge

    gauge = SpeedGauge(workload.gauge)
    setups, steady_setups = [], []
    for _ in range(workload.SETUPS):
        gauge.tick()
        started = time.perf_counter()
        state = workload.setup(seed, workdir)
        setups.append(time.perf_counter() - started)
        steady_setups.append(setups[-1] / gauge.current())
    out = workload.measure(state, seconds, gauge)
    speed = gauge.mean()
    values = {"setup_s": statistics.median(steady_setups),
              "ops_per_s": out.ops / out.seconds * speed}
    notes = {"setup_s": f"wall clock {statistics.median(setups)!r}",
             "ops_per_s": f"wall clock {out.ops / out.seconds!r}"}
    for variant in ("small", "large"):
        wall = out.samples[variant]
        steady = [ms / f for ms, f in zip(wall, out.speeds[variant])]
        values[f"{variant}_ms_p50"] = statistics.median(steady)
        notes[f"{variant}_ms_p50"] = f"wall clock {statistics.median(wall)!r}"
        value, pct, n = tail(steady)
        out.check(n > 10, f"{variant}: {n} samples leave no percentile with ten beyond it")
        values[f"{variant}_ms_tail"] = value
        notes[f"{variant}_ms_tail"] = f"p{pct} of {n} samples; wall clock {tail(wall)[0]!r}"
        values[f"{variant}_final_loss"] = out.final_loss[variant]
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    notes["speed_factor"] = (f"mean {speed!r} over {len(gauge.samples)} {gauge.kind} kernels, "
                             f"nominal {gauge.NOMINAL_MS[gauge.kind]} ms")
    return out, values, notes


def _plain_pass(workload, seed: int, workdir: Path):
    started = time.perf_counter()
    out = workload.fixed_pass(workload.setup(seed, workdir))
    return out, time.perf_counter() - started


def _traced(workload, seed: int, workdir: Path, spans_path: Path):
    """Untraced, traced, untraced; all three must produce the same outputs.

    The first pass also warms the process: its heap grows during that pass,
    at a cost in page faults that later passes do not pay.  So the overhead
    compares the traced pass with the last one only.
    """
    before, _ = _plain_pass(workload, seed, workdir)
    trace = tracer.Tracer()
    with trace.installed():
        started = time.perf_counter()
        trace.variant = "setup"
        out = workload.fixed_pass(workload.setup(seed, workdir), trace)
        traced_s = time.perf_counter() - started
    after, after_s = _plain_pass(workload, seed, workdir)

    for plain in (before, after):
        out.attempted += plain.attempted
        out.failed += plain.failed
        out.problems += plain.problems
        out.check(out.fingerprint == plain.fingerprint and out.final_loss == plain.final_loss,
                  "traced outputs differ from untraced ones")
    table = tracer.summarize(trace.spans)
    for layer in workload.expected:
        out.check(tracer.layer_value(table, f"{layer}.calls") > 0,
                  f"expected layer {layer} recorded no call")
    spans_path.write_text(json.dumps({
        "fields": ["name", "start", "end", "parent", "variant", "counts"],
        "spans": [[s.name, s.start, s.end, s.parent, s.variant, s.counts] for s in trace.spans],
    }))
    return out, table, (traced_s - after_s) / after_s * 100.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "icefusion" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: run from a checkout that holds src/icefusion and BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    # One caller and one BLAS thread, set before numpy loads.  With a BLAS
    # thread per core, a train step ran 3-4x slower whenever another process
    # held the second core, which no comparison between commits can absorb.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench"
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = out_dir / f"work-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            spans_path = out_dir / f"spans-{tag}.json"
            out, table, overhead = _traced(workload, args.seed, workdir, spans_path)
            group, notes = "per_layer", {}
            values = {m["name"]: tracer.layer_value(table, m["name"]) for m in spec[group]}
            values["trace.overhead_pct"] = overhead
        else:
            group = "end_to_end"
            out, values, notes = _end_to_end(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[group]}
    notes["error_rate"] = f"{out.failed / out.attempted!r} ({out.failed} of {out.attempted})"

    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record(workload), "notes": notes,
              "problems": out.problems, "metrics": metrics}
    (out_dir / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    for name, metric in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:48s} {metric['value']!r} {metric['unit']}{note}")
    for name in sorted(set(notes) - set(metrics)):
        print(f"{name:48s} {notes[name]}")
    print("machine " + json.dumps(record["machine"]))
    for problem in out.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    correct = out.failed == 0 and all(math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": out.attempted, "failed": out.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
