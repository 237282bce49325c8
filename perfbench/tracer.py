"""Spans around the calls into icefusion's modules, recorded from outside.

The tracer replaces each public function named in ``TARGETS`` at every place
a caller looks it up -- every attribute of a loaded ``icefusion`` module that
holds the function, plus ``SeededRng.generator`` on its class -- and puts the
originals back when the ``installed`` block ends.  Nothing inside the package
changes.  Each call becomes one span (name, start, end, parent, variant) kept
in memory; ``layer_value`` turns the spans into the per-layer metrics.

Span names follow ``<module>.<function>[.<split>]``.  The split is the
dilation for convolutions, the mode for ``forward`` and the subcommand for
``cli.main``.  A metric name is a span name (or a prefix of span names, which
pools their splits) followed by one quantity.
"""
from __future__ import annotations

import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

_BYTES = 8  # float64


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    variant: str
    counts: dict = field(default_factory=dict)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for kid in sorted(kids, key=lambda s: s.start):
            lo = max(kid.start, reach)
            hi = min(kid.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


# ---------------------------------------------------------------------------
# What each wrapped function splits by and counts


def _arg(args, kwargs, position, name, default):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else default


def conv_counts(x, kernels, dilation, passes):
    """Computed work of one convolution call: FLOPs and bytes of its arrays.

    FLOPs are 2*Cout*Cin*k*k*H*W per pass (backward makes two products).
    Bytes are the im2col matrix, the zero-padded input and the output.
    """
    cin, height, width = x.shape
    cout, _, k, _ = kernels.shape
    pad = (k - 1) // 2 * dilation
    flops = passes * 2 * cout * cin * k * k * height * width
    cells = cin * k * k * height * width + cin * (height + 2 * pad) * (width + 2 * pad)
    cells += cout * height * width
    return {"gflop": flops / 1e9, "mb": cells * _BYTES / 1e6}


def _conv_split(args, kwargs):
    return f"d{_arg(args, kwargs, 3, 'dilation', 1)}"


def _conv_backward_split(args, kwargs):
    return f"d{_arg(args, kwargs, 4, 'dilation', 1)}"


def _conv_count(args, kwargs, result):
    return conv_counts(args[0], args[1], _arg(args, kwargs, 3, "dilation", 1), 1)


def _conv_backward_count(args, kwargs, result):
    return conv_counts(args[1], args[2], _arg(args, kwargs, 4, "dilation", 1), 2)


def _forward_split(args, kwargs):
    return _arg(args, kwargs, 3, "mode", "eval")


def _command_split(args, kwargs):
    argv = _arg(args, kwargs, 0, "argv", None)
    return argv[0] if argv else "none"


def _dataset_count(args, kwargs, result):
    scenes, _ = result
    cells = sum(s.sar.size + s.mwr.size + s.label.size for s in scenes)
    return {"mb": cells * _BYTES / 1e6}


@dataclass(frozen=True)
class Target:
    module: str
    function: str
    split: object = None   # (args, kwargs) -> split label
    count: object = None   # (args, kwargs, result) -> {quantity: value}
    faults: bool = False   # read minor page faults around the call


TARGETS = (
    Target("ops", "conv2d", _conv_split, _conv_count, faults=True),
    Target("ops", "conv2d_backward", _conv_backward_split, _conv_backward_count, faults=True),
    Target("ops", "avg_smooth"),
    Target("ops", "avg_smooth_backward"),
    Target("ops", "upsample"),
    Target("ops", "batch_norm"),
    Target("ops", "batch_norm_backward"),
    Target("ops", "relu"),
    Target("ops", "sigmoid"),
    Target("ops", "dropout"),
    Target("network", "build"),
    Target("network", "forward", _forward_split),
    Target("network", "backward"),
    Target("training", "bce_loss"),
    Target("training", "sgd_step"),
    Target("training", "train"),
    Target("training", "collect_mixing_stats"),
    Target("importance", "analyze"),
    Target("importance", "compare_variants"),
    Target("scenes", "generate"),
    Target("storage", "load_dataset", count=_dataset_count),
    Target("storage", "load_checkpoint"),
    Target("storage", "save_checkpoint"),
    Target("storage", "save_scene"),
    Target("storage", "write_report"),
    Target("storage", "read_report"),
    Target("storage", "sha256_file"),
    Target("cli", "main", _command_split),
)
GENERATOR = Target("rng", "generator")


# ---------------------------------------------------------------------------
# Patching


def package_modules() -> list:
    """The loaded modules of the icefusion package."""
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "icefusion" or n.startswith("icefusion."))]


@contextmanager
def replaced(replacements: dict, modules: list, classes: tuple = ()):
    """Swap every module attribute that is one of the originals to replace.

    ``replacements`` maps ``id(original)`` to ``(original, stand-in)``; ids,
    because module attributes include unhashable values.  ``classes`` lists
    (class, attribute, stand-in) triples.  Everything is restored on exit,
    whatever happens inside the block.
    """
    undo = []
    try:
        for module in modules:
            for attr, value in list(vars(module).items()):
                stand_in = replacements.get(id(value))
                if stand_in is not None and stand_in[0] is value:
                    undo.append((module, attr, value))
                    setattr(module, attr, stand_in[1])
        for owner, attr, stand_in in classes:
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, stand_in)
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


class Tracer:
    """Records one span per call into the wrapped functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self.variant = ""
        self._stack: list[int] = []

    def wrap(self, target: Target, fn):
        spans, stack = self.spans, self._stack
        base = f"{target.module}.{target.function}"
        split, count, faults = target.split, target.count, target.faults

        def traced(*args, **kwargs):
            name = f"{base}.{split(args, kwargs)}" if split else base
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt if faults else 0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                counts = {}
                if faults:
                    counts["minflt"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt
                spans[index] = Span(name, start, end, parent, self.variant, counts)
            if count:
                counts.update(count(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Trace every target of the already-imported package inside the block."""
        modules = {m.__name__: m for m in package_modules()}
        replacements = {}
        for target in TARGETS:
            original = getattr(modules[f"icefusion.{target.module}"], target.function)
            replacements[id(original)] = (original, self.wrap(target, original))
        rng_class = modules["icefusion.rng"].SeededRng
        generator = self.wrap(GENERATOR, rng_class.__dict__["generator"])
        with replaced(replacements, list(modules.values()), ((rng_class, "generator", generator),)):
            yield self


# ---------------------------------------------------------------------------
# From spans to per-layer metrics


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, ms, self_ms and every recorded count, summed."""
    table: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span.name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["ms"] += (span.end - span.start) * 1e3
        row["self_ms"] += own * 1e3
        for key, value in span.counts.items():
            row[key] = row.get(key, 0) + value
    return table


def layer_value(table: dict, metric: str) -> float:
    """Value of ``<span name or prefix>.<quantity>`` pooled over matching spans.

    ``gflops_rate`` is the pooled computed GFLOP divided by the pooled
    seconds.  A layer that was never called reads 0.
    """
    key, quantity = metric.rsplit(".", 1)
    rows = [row for name, row in table.items() if name == key or name.startswith(key + ".")]
    if quantity == "gflops_rate":
        seconds = sum(row["ms"] for row in rows) / 1e3
        return sum(row.get("gflop", 0.0) for row in rows) / seconds if seconds else 0.0
    return sum(row.get(quantity, 0) for row in rows)
