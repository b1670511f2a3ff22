from fractions import Fraction

import numpy as np
import pytest

from fedstat import harness, models, roundoff, schedules
from fedstat.engine import average_estimate
from fedstat.plugin import PluginState
from fedstat.rscale import RScaleState

X_STAR = np.array([0.7, -1.3])
FLOOR = roundoff.floor_for(2.0)


def ulp_path(rounds=30, seed=0):
    """Points within a few ulps of X_STAR, as a noiseless run leaves them."""
    rng = np.random.default_rng(seed)
    steps = rng.integers(-3, 4, size=(rounds, 2))
    return X_STAR + steps * np.spacing(X_STAR)


# The two-sided 95% critical values: the beta = 0 entry of the reference
# t*(beta) table, and the normal quantile z_0.975.
Q_RSCALE, Z_PLUGIN = 6.753, 1.9599639845400536


SCALE = 1.0 / 30  # the variance scale nu_hat / t_T of 30 rounds of C1


class TestFloor:
    def test_run_scale_bounds_start_and_local_optima(self):
        clients = [
            models.ClientModel("quadratic", np.array([1.0, -4.0])),
            models.ClientModel("quadratic", np.array([2.0, 0.5])),
        ]
        fed = models.Federation(clients)
        assert roundoff.run_scale(fed, np.zeros(2)) == 4.0
        assert roundoff.run_scale(fed, np.array([0.0, 9.0])) == 9.0


class TestZeroWidth:
    def test_half_at_or_below_floor_is_exactly_zero(self):
        assert roundoff.interval(1.5, FLOOR, FLOOR) == (1.5, 1.5)
        lo, hi = roundoff.interval(1.5, 2 * FLOOR, FLOOR)
        assert lo < 1.5 < hi

    def test_rscale_ulp_path_gives_centre_exactly(self):
        state, path = RScaleState(2), ulp_path()
        for x in path:
            state.observe(x, 2)
        y_bar = average_estimate(path)
        for j in range(2):
            lo, hi = state.confidence_interval(y_bar, Q_RSCALE, j, FLOOR)
            assert lo == hi == y_bar[j]

    def test_plugin_ulp_draws_give_centre_exactly(self):
        state, path = PluginState(2), ulp_path()
        for x in path:
            state.observe(x - X_STAR, np.eye(2))
        y_bar = average_estimate(path)
        for j in range(2):
            lo, hi = state.confidence_interval(y_bar, Z_PLUGIN, SCALE, j, FLOOR)
            assert lo == hi == y_bar[j]

    def test_exact_arithmetic_default_keeps_ulp_width(self):
        state, path = PluginState(2), ulp_path()
        for x in path:
            state.observe(x - X_STAR, np.eye(2))
        lo, hi = state.confidence_interval(average_estimate(path), Z_PLUGIN, SCALE, 0)
        assert lo < hi


class TestCoverage:
    def test_target_within_floor_is_covered(self):
        c = X_STAR[0]
        assert roundoff.covers(c, c, c + FLOOR, FLOOR)
        assert roundoff.covers(c, c, c - FLOOR, FLOOR)

    def test_target_beyond_floor_is_missed(self):
        c = X_STAR[0]
        assert not roundoff.covers(c, c, c + 2 * FLOOR, FLOOR)
        assert not roundoff.covers(c, c, c - 2 * FLOOR, FLOOR)

    def test_wide_interval_covers_by_its_endpoints(self):
        assert roundoff.covers(-1.0, 1.0, 1.0, FLOOR)
        assert not roundoff.covers(-1.0, 1.0, 1.0 + 2 * FLOOR, FLOOR)

    def test_arrays_give_the_scalar_decision_elementwise(self):
        c, nan = X_STAR[0], np.nan
        # Zero width within and beyond the floor, a covering and a missing
        # noisy interval, and nan rows: a failed method covers nothing.
        lo = np.array([[c + FLOOR, c + 2 * FLOOR], [c - 1.0, c + 1.0], [nan, c]])
        hi = np.array([[c + FLOOR, c + 2 * FLOOR], [c + 1.0, c + 2.0], [nan, nan]])
        got = roundoff.covers(lo, hi, c, FLOOR)
        expected = [[True, False], [True, False], [False, False]]
        assert got.tolist() == expected
        for lo_row, hi_row, row in zip(lo, hi, expected):
            assert [roundoff.covers(a, b, c, FLOOR) for a, b in zip(lo_row, hi_row)] == row


class TestNegativeVariance:
    def test_within_floor_squared_counts_as_zero(self):
        assert roundoff.nonnegative(-0.5 * FLOOR**2, FLOOR**2, "v") == 0.0

    def test_nan_passes_through_to_a_nan_interval(self):
        value = roundoff.nonnegative(float("nan"), FLOOR**2, "v")
        assert np.isnan(value)
        assert all(np.isnan(roundoff.interval(1.0, value, FLOOR)))

    def test_beyond_floor_squared_raises(self):
        with pytest.raises(ValueError, match="negative beyond roundoff"):
            roundoff.nonnegative(-2.0 * FLOOR**2, FLOOR**2, "v")

    def test_rscale_negative_diagonal(self, monkeypatch):
        state = RScaleState(1)
        state.observe(np.array([1.0]), 1)
        monkeypatch.setattr(state, "v_hat", lambda: np.array([[-0.5 * FLOOR**2]]))
        assert state.confidence_interval(np.ones(1), Q_RSCALE, 0, FLOOR) == (1.0, 1.0)
        monkeypatch.setattr(state, "v_hat", lambda: np.array([[-2.0 * FLOOR**2]]))
        with pytest.raises(ValueError, match="V_hat diagonal"):
            state.confidence_interval(np.ones(1), Q_RSCALE, 0, FLOOR)

    def test_plugin_negative_diagonal_scaled_by_nu_over_t(self, monkeypatch):
        state = PluginState(1)
        state.observe(np.zeros(1), np.eye(1))
        scale = 2.0 / 50  # nu_hat / t_T
        # The centre's variance is scale * sandwich diagonal.
        tolerance = FLOOR**2 / scale
        monkeypatch.setattr(state, "sandwich", lambda: np.array([[-0.5 * tolerance]]))
        assert state.confidence_interval(np.ones(1), Z_PLUGIN, scale, 0, FLOOR) == (1.0, 1.0)
        monkeypatch.setattr(state, "sandwich", lambda: np.array([[-2.0 * tolerance]]))
        with pytest.raises(ValueError, match="sandwich diagonal"):
            state.confidence_interval(np.ones(1), Z_PLUGIN, scale, 0, FLOOR)


class TestNoisyIntervalsUnchanged:
    def test_floor_leaves_noisy_intervals_alone(self):
        rng = np.random.default_rng(3)
        plugin, rscale = PluginState(2), RScaleState(2)
        path = X_STAR + 1e-3 * rng.standard_normal((50, 2))
        for x in path:
            plugin.observe(rng.standard_normal(2), np.eye(2))
            rscale.observe(x, 1)
        y_bar = average_estimate(path)
        for j in range(2):
            assert plugin.confidence_interval(y_bar, Z_PLUGIN, SCALE, j, FLOOR) == (
                plugin.confidence_interval(y_bar, Z_PLUGIN, SCALE, j)
            )
            assert rscale.confidence_interval(y_bar, Q_RSCALE, j, FLOOR) == (
                rscale.confidence_interval(y_bar, Q_RSCALE, j)
            )


class TestDoubleLengthSum:
    def test_add_rows_loses_nothing_between_blocks(self):
        # 0.1 does not add up exactly: summing forty equal block totals in
        # doubles drifts, but hi + lo keeps every addition's rounding error.
        rows = np.full((256, 3), 0.1)
        block = np.asfortranarray(rows).sum(axis=0)
        total = (np.zeros(3), np.zeros(3))
        for _ in range(40):
            total = roundoff.add_rows(total, rows)
        hi, lo = total
        for j in range(3):
            assert Fraction(hi[j]) + Fraction(lo[j]) == 40 * Fraction(block[j])
        naive = 0.0
        for _ in range(40):
            naive += block[0]
        assert Fraction(naive) != 40 * Fraction(block[0])


class TestNoiselessRuns:
    def test_noise_free_homogeneous_linear_run(self):
        config = harness.ExperimentConfig(
            model="linear", dimension=3, clients=4, noise_scale=0.0, heterogeneity=False,
            schedule=schedules.CommunicationSchedule("constant", base=1),
            rounds=60, target_observations=None, replications=3, seed=7,
            methods=("plugin", "rscale"), x0="optimum",
        )
        report = harness.run_experiment(config)
        for summary in report.methods:
            assert summary.coverage == 1.0
            assert summary.mean_length == 0.0
            assert summary.failures == 0

    @pytest.mark.parametrize("clients", [10, 50])
    def test_noise_free_c1_run_of_several_affine_calls(self, clients):
        """C1 rounds run as affine maps, one kernel call per 256-round block;
        700 rounds make three calls, each around the point it starts from."""
        config = harness.ExperimentConfig(
            model="linear", dimension=5, clients=clients, noise_scale=0.0,
            heterogeneity=False, schedule=schedules.CommunicationSchedule("constant", base=1),
            rounds=700, target_observations=None, replications=3, seed=11,
            methods=("plugin", "rscale"), x0="optimum",
        )
        report = harness.run_experiment(config)
        for summary in report.methods:
            assert summary.coverage == 1.0
            assert summary.mean_length == 0.0
            assert summary.failures == 0
