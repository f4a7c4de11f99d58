"""The shared test-data generators."""

import numpy as np
import pytest

from helpers import random_flat_knots


def rejection_only(rng: np.random.Generator, count: int, lo=-10.0, hi=10.0, min_gap=1e-2):
    """Reference: redraw until the gaps are wide enough, without a bound."""
    while True:
        ks = np.sort(rng.uniform(lo, hi, count))
        if count < 2 or float(np.min(np.diff(ks))) >= min_gap:
            return ks


class TestRandomFlatKnots:
    def test_same_draws_as_plain_rejection(self):
        for seed in range(30):
            for count in (0, 1, 2, 17, 60):
                got = random_flat_knots(np.random.default_rng(seed), count)
                want = rejection_only(np.random.default_rng(seed), count)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("count", [1500, 1900, 2000])
    def test_nearly_full_range_falls_back_to_spread(self, count):
        # one uniform draw fits with chance (1 - (count - 1) / 2000)^count < 1e-900
        ks = random_flat_knots(np.random.default_rng(5), count)
        assert ks.shape == (count,)
        assert np.min(np.diff(ks)) >= 1e-2
        assert ks[0] >= -10.0 and ks[-1] <= 10.0

    def test_knots_that_cannot_fit_raise(self):
        with pytest.raises(ValueError, match="do not fit"):
            random_flat_knots(np.random.default_rng(5), 2002)
        with pytest.raises(ValueError, match="do not fit"):
            random_flat_knots(np.random.default_rng(5), 3, lo=0.0, hi=1.0, min_gap=0.6)

