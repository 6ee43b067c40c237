"""Tests for repro.utils.validation, seeding and parallel helpers."""

import numpy as np
import pytest

from harness.validation import check_in_range, check_shape, check_square, require
from repro.utils.parallel import available_workers, parallel_map
from repro.utils.seeding import default_rng, spawn_rngs, stable_hash_seed
from repro.utils.validation import ValidationError, check_positive, check_probability


class TestValidation:
    def test_require_passes(self):
        require(True, "never raised")

    def test_require_raises(self):
        with pytest.raises(ValidationError, match="broken"):
            require(False, "broken")

    def test_check_square_ok(self):
        out = check_square([[1, 0], [0, 1]])
        assert out.dtype == complex

    def test_check_square_rejects_rectangular(self):
        with pytest.raises(ValidationError):
            check_square(np.ones((2, 3)))

    def test_check_shape(self):
        check_shape(np.ones((2, 3)), (2, 3))
        with pytest.raises(ValidationError):
            check_shape(np.ones((2, 3)), (3, 2))

    def test_check_positive(self):
        assert check_positive(1.5) == 1.5
        with pytest.raises(ValidationError):
            check_positive(0.0)
        assert check_positive(0.0, strict=False) == 0.0

    def test_check_probability(self):
        assert check_probability(0.3) == 0.3
        with pytest.raises(ValidationError):
            check_probability(1.2)

    def test_check_in_range(self):
        assert check_in_range(0.5, 0, 1) == 0.5
        with pytest.raises(ValidationError):
            check_in_range(0.0, 0, 1, inclusive=False)


class TestSeeding:
    def test_default_rng_from_int_reproducible(self):
        a = default_rng(42).integers(0, 1000, 5)
        b = default_rng(42).integers(0, 1000, 5)
        assert np.array_equal(a, b)

    def test_default_rng_passthrough(self):
        gen = np.random.default_rng(1)
        assert default_rng(gen) is gen

    def test_spawn_rngs_independent_and_reproducible(self):
        first = [r.integers(0, 10**6) for r in spawn_rngs(7, 3)]
        second = [r.integers(0, 10**6) for r in spawn_rngs(7, 3)]
        assert first == second
        assert len(set(first)) == 3

    def test_spawn_rngs_negative(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_stable_hash_seed_deterministic(self):
        assert stable_hash_seed("x", 105, "montreal") == stable_hash_seed("x", 105, "montreal")
        assert stable_hash_seed("x", 105) != stable_hash_seed("x", 106)

    def test_stable_hash_seed_positive_63bit(self):
        seed = stable_hash_seed("anything")
        assert 0 <= seed < 2**63


class TestParallelMap:
    def test_serial_map_preserves_order(self):
        assert parallel_map(lambda x: x * x, [3, 1, 2]) == [9, 1, 4]

    def test_empty_input(self):
        assert parallel_map(lambda x: x, []) == []

    def test_available_workers_at_least_one(self):
        assert available_workers() >= 1

    def test_parallel_pool_matches_serial(self):
        items = list(range(8))
        assert parallel_map(_square, items, num_workers=2) == [i * i for i in items]


def _square(x):
    return x * x
