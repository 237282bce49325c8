"""Variance-scaled importance of the mixing inputs.

The final layer of the network is a per-pixel logistic regression, so each
mixing coefficient can be read the way regression coefficients are: scaled
by the spread of its input.  The score of input i is

    z_i = c_i / sigma_i

and importance is ranked by |z_i|.  A sample-size corrected variant
c_i / (sigma_i / sqrt(n)) is available behind an explicit argument; it
rescales every score by the same factor and never changes the ranking, and
it overstates confidence when nearby pixels are correlated, which is why the
uncorrected form is the default.  Inputs with zero variance ("dead" nodes,
the hallmark of a ReLU that never opens) carry no information and are
excluded from rankings and group sums.

A report stores only its per-input scores; the ranking, the per-group |z|
sums and the dead-node list are derived from them, one definition each.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DeadNodeError, ProvenanceError, UsageError
from .network import GROUP_BTEMP, FusionNetwork
from .training import NATIVE_GRID, MixingStats

__all__ = [
    "ZScoreEntry",
    "AnalysisReport",
    "ComparisonReport",
    "zscore",
    "zscore_corrected",
    "analyze",
    "top_k",
    "detect_dead",
    "compare_variants",
    "ranked_groups",
]


def zscore(coefficient: float, sigma: float) -> float:
    """Coefficient scaled by its input's standard deviation: c / sigma."""
    if sigma < 0.0:
        raise DataError(f"sigma must be non-negative, got {sigma}")
    if sigma == 0.0:
        raise DeadNodeError("zero variance: the input is dead and has no z-score")
    return coefficient / sigma


def zscore_corrected(coefficient: float, sigma: float, n: int) -> float:
    """Sample-size corrected score c / (sigma / sqrt(n)).

    Computed as sqrt(n) * zscore(c, sigma) so the scaling relation to the
    uncorrected form holds exactly, including the n = 1 degeneracy.
    """
    if n < 1:
        raise UsageError(f"sample count must be at least 1, got {n}")
    return math.sqrt(n) * zscore(coefficient, sigma)


@dataclass(frozen=True)
class ZScoreEntry:
    """Score of one mixing input; ``z`` is None for dead inputs."""

    input_index: int
    group: str
    coefficient: float
    sigma: float
    z: float | None

    @property
    def dead(self) -> bool:
        return self.z is None

    @property
    def abs_z(self) -> float | None:
        return None if self.z is None else abs(self.z)


@dataclass(frozen=True)
class AnalysisReport:
    """Scores for every mixing input of one trained model.

    Only ``variant`` and ``entries`` are stored; entry i scores mixing input
    i.  ``ranking``, ``group_sums`` and ``dead_nodes`` are derived from the
    entries.
    """

    variant: str
    entries: tuple[ZScoreEntry, ...]

    @property
    def ranking(self) -> tuple[int, ...]:
        """Live input indices by descending |z|, ties broken by index."""
        live = sorted((e for e in self.entries if not e.dead),
                      key=lambda e: (-e.abs_z, e.input_index))
        return tuple(e.input_index for e in live)

    @property
    def group_sums(self) -> dict[str, float]:
        """|z| summed over each group's live entries, in group order."""
        names = dict.fromkeys(e.group for e in self.entries)
        return {name: float(sum(e.abs_z for e in self.entries if e.group == name and not e.dead))
                for name in names}

    @property
    def dead_nodes(self) -> tuple[int, ...]:
        """Indices of the zero-variance inputs, which carry no score."""
        return tuple(e.input_index for e in self.entries if e.dead)


_DEAD_TOLERANCE = 1e-12


def detect_dead(stats: MixingStats, tolerance: float = 0.0) -> list[int]:
    """Indices whose standard deviation is within ``tolerance`` of zero."""
    if tolerance < 0.0:
        raise UsageError(f"tolerance must be non-negative, got {tolerance}")
    return [int(i) for i in np.flatnonzero(stats.sigma <= tolerance)]


def analyze(net: FusionNetwork, stats: MixingStats, *,
            sample_count: int | None = None) -> AnalysisReport:
    """Score every mixing input of ``net`` using the pooled ``stats``.

    Dead inputs (sigma within ``_DEAD_TOLERANCE`` of zero) are flagged and
    excluded rather than scored.  ``sample_count`` switches every score to
    the corrected form with that n.  Statistics whose btemp entries were
    pooled on the upsampled grid are refused: upsampling (other than nearest)
    shrinks the spread, so the spread must be measured on the native coarse
    grid before upsampling.
    """
    cfg = net.config
    d_total = cfg.mixing_width
    if stats.sigma.shape != (d_total,) or stats.mean.shape != (d_total,):
        raise UsageError(
            f"stats cover {stats.sigma.shape[0]} inputs but the model has {d_total}"
        )
    if any(p != NATIVE_GRID for p in stats.btemp_provenance):
        raise ProvenanceError(
            "btemp statistics must be pooled on the native coarse grid before "
            "upsampling; upsampled-grid spreads are biased low and inflate z-scores"
        )

    dead = set(detect_dead(stats, _DEAD_TOLERANCE))
    coeffs = net.mixing_coefficients
    entries = []
    for group in cfg.groups:
        for i in range(group.start, group.stop):
            sigma = float(stats.sigma[i])
            c = float(coeffs[i])
            if i in dead:
                z = None
            elif sample_count is None:
                z = zscore(c, sigma)
            else:
                z = zscore_corrected(c, sigma, sample_count)
            entries.append(ZScoreEntry(i, group.name, c, sigma, z))
    return AnalysisReport(variant=cfg.variant, entries=tuple(entries))


def top_k(report: AnalysisReport, k: int = 14) -> list[ZScoreEntry]:
    """The ``k`` highest-|z| live entries, most important first.

    Asking for more entries than are alive returns all live entries and
    issues a warning.
    """
    if k < 1:
        raise UsageError(f"k must be positive, got {k}")
    ranking = report.ranking
    if k > len(ranking):
        warnings.warn(
            f"requested top {k} but only {len(ranking)} live inputs exist",
            stacklevel=2,
        )
    return [report.entries[i] for i in ranking[:k]]


def ranked_groups(report: AnalysisReport) -> list[tuple[str, float]]:
    """(group, |z| sum) pairs, largest sum first; ties keep group order."""
    return sorted(report.group_sums.items(), key=lambda item: -item[1])


def _group_ranks(report: AnalysisReport) -> dict[str, int]:
    """Rank of each group by its |z| sum, 1 = largest."""
    return {name: rank for rank, (name, _) in enumerate(ranked_groups(report), start=1)}


@dataclass(frozen=True)
class ComparisonReport:
    """How two model variants order the same inputs and groups.

    Shared entries are identified by (group, offset inside the group), the
    only identity that survives the width change between variants.
    ``inversions`` counts pairs of shared top-``k`` entries whose relative
    order differs between the two rankings.
    """

    group_ranks_small: dict[str, int]
    group_ranks_large: dict[str, int]
    btemp_rank_stable: bool
    shared_top_keys: tuple[tuple[str, int], ...]
    inversions: int
    k: int


def _ranked_keys(report: AnalysisReport, k: int) -> list[tuple[str, int]]:
    first = {e.group: e.input_index for e in reversed(report.entries)}
    entries = [report.entries[i] for i in report.ranking[:k]]
    return [(e.group, e.input_index - first[e.group]) for e in entries]


def compare_variants(small: AnalysisReport, large: AnalysisReport, k: int = 14) -> ComparisonReport:
    """Contrast the small and large variants' importance structure."""
    if small.variant != "small" or large.variant != "large":
        raise UsageError(
            f"expected a small and a large report, got {small.variant!r} and {large.variant!r}"
        )
    if k < 1:
        raise UsageError(f"k must be positive, got {k}")
    ranks_small = _group_ranks(small)
    ranks_large = _group_ranks(large)

    keys_small = _ranked_keys(small, k)
    keys_large = _ranked_keys(large, k)
    shared = [key for key in keys_small if key in keys_large]
    pos_large = {key: keys_large.index(key) for key in shared}
    inversions = 0
    for a in range(len(shared)):
        for b in range(a + 1, len(shared)):
            if pos_large[shared[a]] > pos_large[shared[b]]:
                inversions += 1
    return ComparisonReport(
        group_ranks_small=ranks_small,
        group_ranks_large=ranks_large,
        btemp_rank_stable=ranks_small[GROUP_BTEMP] == ranks_large[GROUP_BTEMP],
        shared_top_keys=tuple(shared),
        inversions=inversions,
        k=k,
    )
