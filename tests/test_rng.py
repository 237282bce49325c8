"""Seeded stream derivation: immutability, independence, frozen draws."""
import numpy as np
import numpy.testing as npt
import pytest

from icefusion.errors import ConfigurationError
from icefusion.rng import SeededRng


def test_same_stream_same_values():
    a = SeededRng(42).derive(1, 2)
    b = SeededRng(42).derive(1, 2)
    npt.assert_array_equal(a.normal((4, 4)), b.normal((4, 4)))


def test_draws_restart_at_stream_origin():
    # A SeededRng is a value, not a stateful generator: drawing twice from
    # the same handle repeats the stream from its start.
    rng = SeededRng(9)
    npt.assert_array_equal(rng.normal(8), rng.normal(8))


def test_derive_is_pure_and_composes():
    root = SeededRng(17)
    first = root.derive(3).normal(5)
    second = root.derive(3).normal(5)
    npt.assert_array_equal(first, second)
    npt.assert_array_equal(root.derive(1, 2).normal(4), root.derive(1).derive(2).normal(4))
    assert root.path == ()  # derive never mutates the parent


def test_sibling_streams_differ():
    root = SeededRng(5)
    a = root.derive(0).normal(16)
    b = root.derive(1).normal(16)
    assert not np.array_equal(a, b)
    # seeds matter too
    c = SeededRng(6).derive(0).normal(16)
    assert not np.array_equal(a, c)


def test_frozen_draws():
    # Pinned values: Philox keyed by SeedSequence is documented stable across
    # platforms and numpy releases.  A change here means reproducibility of
    # every checkpoint and scene file is broken.
    npt.assert_allclose(
        SeededRng(0).normal(3),
        [-0.2059740286292238, -0.12884495093462758, -0.28978987549091256],
        rtol=0, atol=1e-16,
    )
    npt.assert_allclose(
        SeededRng(7, (1, 2)).random(2),
        [0.8277691332614714, 0.5056665987158014],
        rtol=0, atol=1e-16,
    )
    npt.assert_array_equal(SeededRng(123).derive(4).integers(1000, 4), [989, 706, 340, 287])
    npt.assert_array_equal(SeededRng(3).permutation(6), [1, 0, 2, 5, 4, 3])


def test_uniform_bounds():
    values = SeededRng(11).uniform(-0.25, 0.25, 1000)
    assert values.min() >= -0.25 and values.max() < 0.25
    assert abs(values.mean()) < 0.02


def test_seed_and_path_validation():
    with pytest.raises(ConfigurationError):
        SeededRng(-1)
    with pytest.raises(ConfigurationError):
        SeededRng(2**64)
    with pytest.raises(ConfigurationError):
        SeededRng(1.5)
    with pytest.raises(ConfigurationError):
        SeededRng(0, (-3,))
    # A bool is not an integer, as everywhere else in the package.
    with pytest.raises(ConfigurationError):
        SeededRng(True)
    with pytest.raises(ConfigurationError):
        SeededRng(0, (True,))
    # numpy integers are fine
    SeededRng(np.uint64(3)).derive(np.int64(1))
