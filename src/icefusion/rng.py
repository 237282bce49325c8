"""Counter-based deterministic random streams.

A :class:`SeededRng` is an immutable value, not a stateful generator.  Every
draw happens on a sub-stream named by :meth:`SeededRng.derive`, and deriving
the same path twice always yields the same stream, bit for bit, on every
platform.  This is what makes dropout masks, parameter initialization and
scene synthesis reproducible, and it keeps the streams of different layers
independent: adding a layer never perturbs the draws of existing ones.

Because streams restart at their origin, drawing twice from the *same*
``SeededRng`` returns the same values.  Callers that need several independent
draws derive one sub-stream per draw site.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import _SEED, _check_range

__all__ = ["SeededRng"]


@dataclass(frozen=True)
class SeededRng:
    """Handle to one deterministic stream, identified by (seed, path)."""

    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self):
        _check_range("seed", self.seed, _SEED)
        for part in self.path:
            _check_range("stream path entry", part, (int, "[)", 0, math.inf))

    def derive(self, *ids: int) -> "SeededRng":
        """Return the sub-stream at ``path + ids``. Pure, never advances state."""
        return SeededRng(self.seed, self.path + ids)

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the origin of this stream."""
        sequence = np.random.SeedSequence((int(self.seed),) + self.path)
        return np.random.Generator(np.random.Philox(sequence))

    # Convenience draws.  Each call starts from the stream origin, so the
    # same SeededRng always produces the same array.

    def normal(self, shape=None) -> np.ndarray:
        return self.generator().normal(size=shape)

    def uniform(self, low: float, high: float, shape=None) -> np.ndarray:
        return self.generator().uniform(low, high, size=shape)

    def random(self, shape=None) -> np.ndarray:
        return self.generator().random(size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self.generator().permutation(n)

    def integers(self, high: int, shape=None) -> np.ndarray:
        return self.generator().integers(high, size=shape)
