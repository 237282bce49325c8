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

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, _is_int

_MAX_SEED = 2**64


@dataclass(frozen=True)
class SeededRng:
    """Handle to one deterministic stream, identified by (seed, path)."""

    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self):
        if not _is_int(self.seed) or not 0 <= self.seed < _MAX_SEED:
            raise ConfigurationError(
                f"seed must be an integer in [0, 2**64), got {self.seed!r}"
            )
        for part in self.path:
            if not _is_int(part) or part < 0:
                raise ConfigurationError(
                    f"stream path entries must be non-negative integers, got {part!r}"
                )

    def derive(self, *ids: int) -> "SeededRng":
        """Return the sub-stream at ``path + ids``. Pure, never advances state."""
        return SeededRng(self.seed, self.path + tuple(int(i) for i in ids))

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
