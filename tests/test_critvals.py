import io

import numpy as np
import pytest

from fedstat import critvals
from fedstat.critvals import CriticalValueTable, lookup, simulate_table

REFERENCE_LEVELS = (0.01, 0.025, 0.05, 0.1, 0.5, 0.9, 0.95, 0.975, 0.99)
REFERENCE_ROWS = {
    0.0: (-8.634, -6.753, -5.324, -3.877, 0.0, 3.877, 5.324, 6.753, 8.634),
    0.5: (-7.386, -5.851, -4.621, -3.446, 0.0, 3.446, 4.621, 5.851, 7.386),
}


def reference_table():
    betas = tuple(REFERENCE_ROWS)
    return CriticalValueTable(
        betas=betas,
        levels=REFERENCE_LEVELS,
        values=np.array([REFERENCE_ROWS[b] for b in betas]),
        steps=1000,
        replications=50000,
    )


class TestLookup:
    def test_column_addressing(self):
        table = reference_table()
        assert lookup(table, 0.05, 0.0) == 6.753

    def test_ninety_percent_column(self):
        assert lookup(reference_table(), 0.2, 0.5) == 3.446

    def test_missing_beta_is_an_error(self):
        with pytest.raises(KeyError):
            lookup(reference_table(), 0.05, 0.4)

    def test_missing_level_is_an_error(self):
        with pytest.raises(KeyError):
            lookup(reference_table(), 0.123, 0.0)

    def test_float_tolerant_beta_match(self):
        assert lookup(reference_table(), 0.05, 0.5 + 1e-12) == 5.851


# Small-scale run with a seeded generator; the full-scale comparison against
# the reference quantiles lives in the acceptance suite.
@pytest.fixture(scope="module")
def small():
    return simulate_table(
        (0.0, 1.0 / 3.0, 0.5, 2.0 / 3.0),
        REFERENCE_LEVELS,
        steps=400,
        replications=8000,
        seed=99,
    )


class TestSimulation:

    def test_median_is_near_zero(self, small):
        for row in small.values:
            assert abs(row[REFERENCE_LEVELS.index(0.5)]) < 0.05

    def test_symmetry(self, small):
        # Antithetic pairing makes the realization sample exactly symmetric.
        for row in small.values:
            for lo_level, hi_level in ((0.01, 0.99), (0.025, 0.975), (0.1, 0.9)):
                q_lo = row[REFERENCE_LEVELS.index(lo_level)]
                q_hi = row[REFERENCE_LEVELS.index(hi_level)]
                assert abs(q_lo + q_hi) < 1e-12

    def test_quantiles_increase_across_levels(self, small):
        for row in small.values:
            assert np.all(np.diff(row) > 0)

    def test_upper_quantiles_decrease_in_beta(self, small):
        # Shared Brownian paths across rows make the comparison stable.
        col = REFERENCE_LEVELS.index(0.975)
        top = small.values[:, col]
        assert np.all(np.diff(top) < 0)

    def test_ballpark_against_reference(self, small):
        assert lookup(small, 0.05, 0.0) == pytest.approx(6.753, rel=0.12)

    def test_discretization_stability(self):
        """Halving the grid on the same underlying paths moves the 97.5%
        quantile by well under 1% (common-random-numbers comparison)."""
        steps, reps, seed = 2000, 20000, 5
        rng = np.random.default_rng(seed)
        scale = 1.0 / np.sqrt(steps)
        stats_fine, stats_coarse = [], []
        done = 0
        while done < reps:
            n = min(4096, reps - done)
            paths = np.cumsum(rng.standard_normal((n, steps)) * scale, axis=1)
            b_one = paths[:, -1]
            for target, sub in ((stats_fine, 1), (stats_coarse, 2)):
                grid = np.concatenate(
                    [np.zeros((n, 1)), paths[:, : steps - sub : sub]], axis=1
                )
                r = np.arange(grid.shape[1]) * sub / steps
                dev = grid - np.outer(b_one, r)  # g_0(r) = r for beta = 0
                target.append(b_one / np.sqrt(np.mean(dev * dev, axis=1)))
            done += n
        q_fine = np.quantile(np.concatenate(stats_fine), 0.975)
        q_coarse = np.quantile(np.concatenate(stats_coarse), 0.975)
        assert abs(q_coarse / q_fine - 1.0) < 0.01

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            simulate_table((0.0,), (0.5,), steps=50, replications=5000)
        with pytest.raises(ValueError):
            simulate_table((0.0,), (0.5,), steps=500, replications=10)
        with pytest.raises(ValueError):
            simulate_table((1.2,), (0.5,), steps=500, replications=5000)


class TestSerialization:
    def test_roundtrip(self):
        table = simulate_table((0.0, 0.5), (0.1, 0.5, 0.9), steps=200, replications=2000, seed=1)
        buffer = io.StringIO()
        critvals.save_csv(table, buffer)
        buffer.seek(0)
        loaded = critvals.load_csv(buffer)
        assert loaded.betas == table.betas
        assert loaded.levels == table.levels
        assert loaded.steps == table.steps
        assert loaded.replications == table.replications
        np.testing.assert_array_equal(loaded.values, table.values)

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            critvals.load_csv(io.StringIO("# nothing\n"))


class TestPackagedTable:
    def test_ships_expected_rows_and_metadata(self):
        table = critvals.default_table()
        assert table.steps == 1000
        assert table.replications == 50000
        assert len(table.betas) == 4
        # Within the accepted band of the reference asymptotic values.
        for beta, target in ((0.0, 6.753), (1.0 / 3.0, 6.339), (0.5, 5.851), (2.0 / 3.0, 4.993)):
            assert lookup(table, 0.05, beta) == pytest.approx(target, rel=0.02)
