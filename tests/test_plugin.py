from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedstat import harness, models, schedules
from fedstat.engine import BLOCK_ROUNDS
from fedstat.plugin import PluginState, SingularHessian


Z_95 = 1.9599639845400536  # z_0.975, the critical value of a two-sided 95% interval


SCALE = 1.0  # the variance scale nu_hat / t_T of one round of C1


def batch_recompute(grads, hessians):
    g_hat = np.mean(hessians, axis=0)
    s_hat = np.mean([np.outer(g, g) for g in grads], axis=0)
    return g_hat, s_hat


class TestObserve:
    def test_single_observation_is_exact(self):
        state = PluginState(2)
        h = np.array([[2.0, 0.5], [0.5, 1.0]])
        g = np.array([1.0, -1.0])
        state.observe(g, h)
        np.testing.assert_array_equal(state.g_hat, h)
        np.testing.assert_array_equal(state.s_hat, np.outer(g, g))
        assert state.rounds_seen == 1

    def test_two_observations_average(self):
        state = PluginState(1)
        state.observe(np.array([1.0]), np.array([[2.0]]))
        state.observe(np.array([2.0]), np.array([[4.0]]))
        np.testing.assert_allclose(state.g_hat, [[3.0]], rtol=1e-14)
        np.testing.assert_allclose(state.s_hat, [[2.5]], rtol=1e-14)

    def test_online_equals_batch_on_random_streams(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            d = rng.integers(1, 4)
            n = rng.integers(1, 700)
            grads = rng.standard_normal((n, d))
            hessians = rng.standard_normal((n, d, d))
            state = PluginState(int(d))
            for g, h in zip(grads, hessians):
                state.observe(g, h)
            g_hat, s_hat = batch_recompute(grads, hessians)
            assert np.linalg.norm(state.g_hat - g_hat) < 1e-10
            assert np.linalg.norm(state.s_hat - s_hat) < 1e-10

    def test_dimension_mismatch(self):
        state = PluginState(2)
        with pytest.raises(ValueError):
            state.observe(np.zeros(3), np.eye(3))
        with pytest.raises(ValueError):
            state.observe(np.zeros(2), np.eye(3))

    @pytest.mark.parametrize("dimension", [0, -1])
    def test_dimension_below_one_rejected(self, dimension):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            PluginState(dimension)

    def test_draws_come_in_pairs(self):
        state = PluginState(2)
        with pytest.raises(ValueError):
            state.observe(np.zeros(2), None)


class TestBlockFold:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 3 * BLOCK_ROUNDS),
        reads=st.sets(st.integers(1, 3 * BLOCK_ROUNDS), max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_reads_never_change_results(self, n, reads, seed):
        rng = np.random.default_rng(seed)
        grads = rng.standard_normal((n, 2))
        hessians = rng.standard_normal((n, 2, 2))
        read, unread = PluginState(2), PluginState(2)
        for m, (g, h) in enumerate(zip(grads, hessians), start=1):
            read.observe(g, h)
            unread.observe(g, h)
            if m in reads:
                read.g_hat, read.s_hat  # read and dropped
        for name in ("g_hat", "s_hat", "rounds_seen"):
            np.testing.assert_array_equal(getattr(read, name), getattr(unread, name))

    def test_block_sums_match_exact_arithmetic(self):
        # Over 600 rounds (two full blocks and a partial one) the means lie
        # within the rounding bound of n additions, 2 n eps sum|term| / n, of
        # their exact rational values.
        rng = np.random.default_rng(23)
        n, d = 600, 2
        grads = rng.standard_normal((n, d))
        hessians = rng.standard_normal((n, d, d))
        state = PluginState(d)
        for g, h in zip(grads, hessians):
            state.observe(g, h)
        bound = 2 * np.finfo(np.float64).eps  # 2 n eps sum|term| with terms v / n
        for j in range(d):
            for i in range(d):
                terms = [Fraction(h) for h in hessians[:, i, j]]
                err = abs(Fraction(state.g_hat[i, j]) - sum(terms) / n)
                assert err <= bound * float(sum(map(abs, terms)))
                terms = [Fraction(a) * Fraction(b) for a, b in zip(grads[:, i], grads[:, j])]
                err = abs(Fraction(state.s_hat[i, j]) - sum(terms) / n)
                assert err <= bound * float(sum(map(abs, terms)))


class TestSandwich:
    def test_identity(self):
        # The draws (1, 1) and (1, -1) average g g' to exactly I.
        state = PluginState(2)
        for g in ([1.0, 1.0], [1.0, -1.0]):
            state.observe(np.array(g), np.eye(2))
        np.testing.assert_array_equal(state.s_hat, np.eye(2))
        np.testing.assert_allclose(state.sandwich(), np.eye(2), atol=1e-14)

    @pytest.mark.parametrize("rounds", [5, BLOCK_ROUNDS], ids=["pending", "folded"])
    def test_changing_a_read_changes_nothing(self, rounds):
        rng = np.random.default_rng(3)
        state = PluginState(2)
        for _ in range(rounds):
            a = rng.standard_normal((2, 2))
            state.observe(rng.standard_normal(2), a @ a.T + np.eye(2))
        reads = ("g_hat", "s_hat")
        before = [getattr(state, name) for name in reads] + [state.sandwich()]
        interval = state.confidence_interval(np.zeros(2), Z_95, SCALE, 0)
        for name in reads:
            getattr(state, name)[...] *= 4.0
        state.sandwich()[...] *= 4.0
        after = [getattr(state, name) for name in reads] + [state.sandwich()]
        for old, new in zip(before, after):
            np.testing.assert_array_equal(new, old)
        assert state.confidence_interval(np.zeros(2), Z_95, SCALE, 0) == interval

    def test_scalar_example(self):
        state = PluginState(1)
        state.observe(np.array([1.0]), np.array([[2.0]]))
        np.testing.assert_allclose(state.sandwich(), [[0.25]], rtol=1e-14)

    def test_psd_and_symmetric(self):
        rng = np.random.default_rng(7)
        state = PluginState(3)
        for _ in range(50):
            g = rng.standard_normal(3)
            a = rng.standard_normal((3, 3))
            state.observe(g, a @ a.T + np.eye(3))
        cov = state.sandwich()
        np.testing.assert_array_equal(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() >= -1e-12

    def test_too_few_rounds_raises(self):
        state = PluginState(3)
        state.observe(np.zeros(3), np.eye(3))
        with pytest.raises(SingularHessian):
            state.sandwich()

    def test_singular_hessian_estimate_raises(self):
        state = PluginState(2)
        rank_one = np.array([[1.0, 0.0], [0.0, 0.0]])
        for _ in range(5):
            state.observe(np.zeros(2), rank_one)
        with pytest.raises(SingularHessian):
            state.sandwich()

    def test_consistency_against_closed_form(self):
        """Streaming sandwich from an actual run comes within 10% Frobenius of
        the homogeneous-pool closed form I/K."""
        config = harness.ExperimentConfig(
            model="linear", dimension=5, clients=10, heterogeneity=False,
            schedule=schedules.CommunicationSchedule("constant", base=1),
            rounds=4000, target_observations=None, replications=1, seed=3,
            methods=("plugin",),
        )
        fed = harness.build_federation(config)
        state = PluginState(5)
        from fedstat import engine

        rows = schedules.table(config.schedule, 4000)
        path = engine.run(fed, rows, np.zeros(5), seed=11)
        for grads, hessians in engine.inference_draws(fed, 11, path.points):
            for grad_draw, hess_draw in zip(grads, hessians):
                state.observe(grad_draw, hess_draw)
        _, _, cov = models.true_sandwich(fed)
        err = np.linalg.norm(state.sandwich() - cov) / np.linalg.norm(cov)
        assert err < 0.10


class TestConfidenceInterval:
    def test_halfwidth_composition(self):
        state = PluginState(1)
        state.observe(np.array([1.0]), np.array([[1.0]]))
        lo, hi = state.confidence_interval(np.array([4.0]), Z_95, 4.0 / 16.0, 0)
        half = Z_95 * np.sqrt(4.0 / 16.0) * 1.0
        assert (lo, hi) == pytest.approx((4.0 - half, 4.0 + half), rel=1e-12)

    def test_degenerate_interval(self):
        state = PluginState(2)
        for _ in range(3):
            state.observe(np.zeros(2), np.eye(2))
        lo, hi = state.confidence_interval(np.array([1.0, 2.0]), Z_95, SCALE, 1)
        assert lo == hi == 2.0

    def test_nan_gradient_draw_gives_a_nan_interval(self):
        state = PluginState(2)
        state.observe(np.array([np.nan, 0.0]), np.eye(2))
        for _ in range(3):
            state.observe(np.ones(2), np.eye(2))
        lo, hi = state.confidence_interval(np.zeros(2), Z_95, SCALE, 0)
        assert np.isnan(lo) and np.isnan(hi)

    def test_propagates_singular_hessian(self):
        state = PluginState(2)
        state.observe(np.zeros(2), np.eye(2))
        with pytest.raises(SingularHessian):
            state.confidence_interval(np.zeros(2), Z_95, SCALE, 0)

    def test_width_scales_with_inverse_sqrt_iterations(self):
        """Doubling t_T must shrink mean width by sqrt(2) within 10%."""
        widths = {}
        for target in (2000, 4000):
            config = harness.ExperimentConfig(
                model="linear", dimension=3, clients=5, heterogeneity=True,
                schedule=schedules.CommunicationSchedule(
                    "constant", base=1, warmup_fraction=0.05
                ),
                target_observations=target, replications=30, seed=21,
                methods=("plugin",),
            )
            widths[target] = harness.run_experiment(config).methods[0].mean_length
        ratio = widths[2000] / widths[4000]
        assert ratio == pytest.approx(np.sqrt(2.0), rel=0.10)
