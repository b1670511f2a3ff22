import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedstat import schedules
from fedstat.engine import BLOCK_ROUNDS, average_estimate
from fedstat.rscale import RScaleState, beta_for_schedule

# The 0.975 quantiles of t*(beta) in the reference asymptotic table: the
# critical values of two-sided 95% intervals at beta = 0 and beta = 0.5.
Q_BETA_ZERO, Q_BETA_HALF = 6.753, 5.851


@pytest.mark.parametrize("rounds", [5, BLOCK_ROUNDS], ids=["pending", "folded"])
def test_changing_a_read_changes_nothing(rounds):
    rng = np.random.default_rng(3)
    state = RScaleState(2)
    for m in range(rounds):
        state.observe(rng.standard_normal(2), 1 + m % 3)
    reads = ("pivot", "A", "b")
    before = [getattr(state, name) for name in reads] + [state.v_hat()]
    interval = state.confidence_interval(np.zeros(2), Q_BETA_ZERO, 0)
    for name in reads:
        getattr(state, name)[...] *= 4.0
    state.v_hat()[...] *= 4.0
    after = [getattr(state, name) for name in reads] + [state.v_hat()]
    for old, new in zip(before, after):
        np.testing.assert_array_equal(new, old)
    assert state.confidence_interval(np.zeros(2), Q_BETA_ZERO, 0) == interval


def batch_vhat(points, intervals):
    """Direct evaluation of the studentizer from the stored path."""
    points = np.asarray(points, dtype=np.float64)
    t = len(points)
    inv = 1.0 / np.asarray(intervals, dtype=np.float64)
    y_t = points.mean(axis=0)
    partial = np.cumsum(points, axis=0)
    acc = np.zeros((points.shape[1], points.shape[1]))
    for m in range(1, t + 1):
        dev = partial[m - 1] - m * y_t
        acc += inv[m - 1] * np.outer(dev, dev)
    return acc / (t**2 * inv.sum())


class TestObserve:
    def test_first_observation(self):
        state = RScaleState(2)
        x = np.array([1.0, -2.0])
        state.observe(x, 1)
        # A and b accumulate around the pivot, the first point, so both start at 0.
        np.testing.assert_array_equal(state.pivot, x)
        np.testing.assert_array_equal(state.A, np.zeros((2, 2)))
        np.testing.assert_array_equal(state.b, np.zeros(2))
        np.testing.assert_array_equal(state.v_hat(), np.zeros((2, 2)))
        assert state.s == 1.0 and state.q == 1.0 and state.rounds_seen == 1

    def test_two_point_path_both_forms_agree(self):
        state = RScaleState(1)
        state.observe(np.array([0.0]), 1)
        state.observe(np.array([2.0]), 1)
        v_online = state.v_hat()[0, 0]
        v_batch = batch_vhat([[0.0], [2.0]], [1, 1])[0, 0]
        assert v_online == pytest.approx(1.0 / 8.0, abs=1e-15)
        assert v_batch == pytest.approx(1.0 / 8.0, abs=1e-15)

    def test_accumulators_strictly_increasing(self):
        rng = np.random.default_rng(0)
        state = RScaleState(2)
        s_prev = q_prev = 0.0
        for m in range(1, 30):
            state.observe(rng.standard_normal(2), int(rng.integers(1, 6)))
            assert state.s > s_prev and state.q > q_prev
            s_prev, q_prev = state.s, state.q

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            RScaleState(1).observe(np.zeros(1), 0)

    @pytest.mark.parametrize("interval", [math.nan, math.inf, 1.5, np.float64(2.0)])
    def test_interval_must_be_an_integer(self, interval):
        state = RScaleState(1)
        with pytest.raises(ValueError, match=re.escape(f"interval must be an integer, got {interval!r}")):
            state.observe(np.zeros(1), interval)
        assert state.rounds_seen == 0

    @pytest.mark.parametrize("dimension", [0, -1])
    def test_dimension_below_one_rejected(self, dimension):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            RScaleState(dimension)

    @pytest.mark.parametrize("x_bar", [np.zeros(3), np.zeros((1, 2)), np.zeros(())])
    def test_point_of_another_shape_rejected(self, x_bar):
        with pytest.raises(ValueError, match=r"x_bar must have shape \(2,\)"):
            RScaleState(2).observe(x_bar, 1)

    def test_v_hat_needs_an_observation(self):
        with pytest.raises(ValueError, match="no observations yet"):
            RScaleState(2).v_hat()


class TestBlockFold:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 3 * BLOCK_ROUNDS),
        reads=st.sets(st.integers(1, 3 * BLOCK_ROUNDS), max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_reads_never_change_results(self, n, reads, seed):
        rng = np.random.default_rng(seed)
        points = rng.standard_normal((n, 2))
        intervals = rng.integers(1, 7, size=n)
        read, unread = RScaleState(2), RScaleState(2)
        for m, (x, e) in enumerate(zip(points, intervals), start=1):
            read.observe(x, int(e))
            unread.observe(x, int(e))
            if m in reads:
                read.A, read.b, read.s, read.q, read.v_hat()  # read and dropped
        for name in ("pivot", "A", "b", "s", "q", "rounds_seen"):
            np.testing.assert_array_equal(getattr(read, name), getattr(unread, name))
        np.testing.assert_array_equal(read.v_hat(), unread.v_hat())

    def test_block_sums_match_exact_arithmetic(self):
        # Over 600 rounds (two full blocks and a partial one) every
        # accumulator lies within 2 n eps sum|term| of its exact rational
        # value: the rounding bound of n additions, with room for the rounded
        # partial sums inside each term.
        rng = np.random.default_rng(29)
        n, d = 600, 2
        points = 5.0 + rng.standard_normal((n, d))
        intervals = [int(e) for e in rng.integers(1, 7, size=n)]
        state = RScaleState(d)
        for x, e in zip(points, intervals):
            state.observe(x, e)
        exact_points = [[Fraction(v) for v in x] for x in points]
        pivot = exact_points[0]
        partial = [Fraction(0)] * d
        a_terms, b_terms = [], []
        for m, (x, e) in enumerate(zip(exact_points, intervals), start=1):
            partial = [p + v - c for p, v, c in zip(partial, x, pivot)]  # m z_m
            a_terms.append([[p * r / e for r in partial] for p in partial])
            b_terms.append([m * p / e for p in partial])
        tol = 2 * n * np.finfo(np.float64).eps

        def check(got, terms):
            err = abs(Fraction(float(got)) - sum(terms))
            assert err <= tol * float(sum(map(abs, terms)))

        for i in range(d):
            check(state.b[i], [t[i] for t in b_terms])
            for j in range(d):
                check(state.A[i, j], [t[i][j] for t in a_terms])
        check(state.s, [Fraction(1, e) for e in intervals])
        check(state.q, [Fraction(m * m, e) for m, e in enumerate(intervals, start=1)])


class TestVhat:
    def test_constant_path_gives_zero(self):
        state = RScaleState(2)
        c = np.array([3.0, -1.0])
        for m in range(1, 20):
            state.observe(c, 1 + m % 3)
            np.testing.assert_allclose(state.v_hat(), np.zeros((2, 2)), atol=1e-12)

    def test_online_equals_batch_on_random_paths(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(2, 700))
            points = rng.standard_normal((n, d))
            intervals = rng.integers(1, 7, size=n)
            state = RScaleState(d)
            for x, e in zip(points, intervals):
                state.observe(x, int(e))
            v_online = state.v_hat()
            v_batch = batch_vhat(points, intervals)
            denom = max(np.linalg.norm(v_batch), 1e-12)
            assert np.linalg.norm(v_online - v_batch) / denom < 1e-10

    def test_psd_on_every_prefix(self):
        rng = np.random.default_rng(9)
        state = RScaleState(3)
        for _ in range(60):
            state.observe(rng.standard_normal(3), int(rng.integers(1, 5)))
            assert np.linalg.eigvalsh(state.v_hat()).min() >= -1e-12

    def test_scale_equivariance(self):
        rng = np.random.default_rng(13)
        points = rng.standard_normal((40, 2))
        intervals = rng.integers(1, 4, size=40)
        c, shift = 2.5, np.array([0.3, -0.8])
        base, moved = RScaleState(2), RScaleState(2)
        for x, e in zip(points, intervals):
            base.observe(x, int(e))
            moved.observe(c * x + shift, int(e))
        np.testing.assert_allclose(moved.v_hat(), c**2 * base.v_hat(), rtol=1e-10, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        eighths=st.lists(
            st.lists(st.integers(-64, 64), min_size=2, max_size=2), min_size=2, max_size=40
        ),
        intervals=st.lists(st.integers(1, 6), min_size=40, max_size=40),
        shift=st.integers(-(10**6), 10**6),
    )
    def test_shift_invariance_at_large_offsets(self, eighths, intervals, shift):
        # Multiples of 1/8 shifted by an integer below 2**20 are exact doubles,
        # so the two states see the same path up to a constant offset.
        points = np.array(eighths, dtype=np.float64) / 8.0
        base, moved = RScaleState(2), RScaleState(2)
        for x, e in zip(points, intervals):
            base.observe(x, e)
            moved.observe(x + shift, e)
        # The shifted running means round at magnitude |shift|: at most one
        # ulp per update, which moves V_hat by about spread * that error.
        n = len(points)
        spread = np.ptp(points, axis=0).max()
        tol = 4.0 * n * np.finfo(np.float64).eps * (abs(shift) + 8.0) * (spread + 1.0)
        np.testing.assert_allclose(moved.v_hat(), base.v_hat(), rtol=0, atol=tol)

    def test_studentized_statistic_scale_invariant(self):
        # Scaling the path around the optimum leaves (y_j - x*_j)/sqrt(V_jj) fixed.
        rng = np.random.default_rng(17)
        x_star = np.array([1.0, -1.0])
        points = x_star + rng.standard_normal((30, 2))
        scaled_points = x_star + 4.0 * (points - x_star)
        base, scaled = RScaleState(2), RScaleState(2)
        for x, y in zip(points, scaled_points):
            base.observe(x, 2)
            scaled.observe(y, 2)

        def stat(state, path):
            return (average_estimate(path) - x_star) / np.sqrt(np.diag(state.v_hat()))

        np.testing.assert_allclose(stat(scaled, scaled_points), stat(base, points), rtol=1e-10)


class TestConfidenceInterval:
    def test_beta_zero_coefficient(self):
        state = RScaleState(1)
        state.observe(np.array([0.0]), 1)
        state.observe(np.array([2.0]), 1)
        lo, hi = state.confidence_interval(np.array([1.0]), Q_BETA_ZERO, 0)
        half = Q_BETA_ZERO * np.sqrt(1.0 / 8.0)
        assert (lo, hi) == pytest.approx((1.0 - half, 1.0 + half), rel=1e-12)

    def test_beta_half_coefficient(self):
        state = RScaleState(1)
        state.observe(np.array([0.0]), 1)
        state.observe(np.array([2.0]), 1)
        lo, hi = state.confidence_interval(np.array([1.0]), Q_BETA_HALF, 0)
        half = Q_BETA_HALF * np.sqrt(1.0 / 8.0)
        assert (lo, hi) == pytest.approx((1.0 - half, 1.0 + half), rel=1e-12)

    def test_degenerate_interval(self):
        state = RScaleState(1)
        for _ in range(4):
            state.observe(np.array([7.0]), 1)
        lo, hi = state.confidence_interval(np.array([7.0]), Q_BETA_ZERO, 0)
        assert lo == hi == 7.0


class TestBetaForSchedule:
    def test_constant_maps_to_zero(self):
        assert beta_for_schedule(schedules.CommunicationSchedule("constant", base=5)) == 0.0

    def test_log_maps_to_zero(self):
        sched = schedules.CommunicationSchedule("log", base=1, exponent=2.0)
        assert beta_for_schedule(sched) == 0.0

    def test_power_keeps_exponent(self):
        sched = schedules.CommunicationSchedule("power", base=1, exponent=1.0 / 3.0)
        assert beta_for_schedule(sched) == pytest.approx(1.0 / 3.0)
