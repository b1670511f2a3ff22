import itertools
import math
import pickle
import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedstat import cli, schedules
from fedstat.harness import rounds_for_target
from fedstat.schedules import CommunicationSchedule, explicit_table
from reference import bisect_rounds_for_target


def constant(base, **kw):
    return CommunicationSchedule("constant", base=base, **kw)


def interval(sched, m, total):
    return schedules.intervals(sched, total)[m - 1]


def steps(sched, m, total):
    rows = schedules.table(sched, total)
    return rows.gammas[m - 1], rows.etas[m - 1]


def fclt(sched, r, total):
    return schedules.fclt_time_scale(schedules.table(sched, total), r)


def summary(rows):
    return rows.t_T, rows.nu_hat, rows.acf


class TestIntervalAt:
    def test_constant_family(self):
        assert interval(constant(5), 7, 100) == 5

    def test_log_family_matches_ceil_log2(self):
        sched = CommunicationSchedule("log", base=1, exponent=1.0)
        assert interval(sched, 7, 100) == math.ceil(math.log2(8)) == 3

    def test_power_family_matches_ceil_sqrt(self):
        sched = CommunicationSchedule("power", base=1, exponent=0.5)
        assert interval(sched, 9, 100) == 3

    def test_power_rejects_beta_at_least_one(self):
        with pytest.raises(ValueError):
            CommunicationSchedule("power", base=1, exponent=1.0)

    def test_warmup_rounds_are_one(self):
        sched = constant(5, warmup_fraction=0.05)
        total = 2400
        w = schedules.table(sched, total).warmup
        assert w == 500  # 5% of the 10000 total observations
        assert all(interval(sched, m, total) == 1 for m in range(1, w + 1))
        assert interval(sched, w + 1, total) == 5

    def test_family_index_shifts_by_warmup(self):
        sched = CommunicationSchedule("power", base=1, exponent=0.5, warmup_fraction=0.05)
        total = 300
        w = schedules.table(sched, total).warmup
        assert interval(sched, w + 9, total) == 3  # ceil(sqrt(9))

    def test_pure_function(self):
        sched = CommunicationSchedule("log", base=2, exponent=1.0, warmup_fraction=0.1)
        values = [interval(sched, 17, 500) for _ in range(5)]
        assert len(set(values)) == 1


class TestStepSizes:
    def test_gamma_at_first_round(self):
        gamma, eta = steps(constant(1, gamma0=0.5, alpha=0.505), 1, 100)
        assert gamma == 0.5
        assert eta == 0.5

    def test_eta_divides_by_interval(self):
        gamma, eta = steps(constant(5, gamma0=0.5, alpha=0.505), 1, 100)
        assert gamma == 0.5
        assert eta == pytest.approx(0.1)

    def test_power_law_decay(self):
        gamma, _ = steps(constant(1, gamma0=2.0, alpha=0.505), 1024, 2000)
        assert gamma == pytest.approx(2.0 * 1024.0 ** (-0.505), rel=1e-14)

    def test_gamma_strictly_decreasing(self):
        sched = constant(3, gamma0=0.5, alpha=0.6)
        gammas = [steps(sched, m, 50)[0] for m in range(1, 51)]
        assert all(a > b for a, b in zip(gammas, gammas[1:]))

    def test_explicit_schedule_overrides_steps(self):
        rows = explicit_table((2, 2), (0.5, 0.25))
        assert (rows.gammas[1], rows.etas[1]) == (0.5, 0.25)


class TestDiagnostics:
    def test_all_ones(self):
        assert summary(schedules.table(constant(1), 100)) == (100, 1.0, 1.0)
        assert constant(1).nu_limit == 1.0

    def test_power_limit_value(self):
        sched = CommunicationSchedule("power", base=1, exponent=0.5)
        assert sched.nu_limit == pytest.approx(4.0 / 3.0)

    def test_direct_summation_oracle(self):
        rows = explicit_table((1, 2, 3), (0.1, 0.1, 0.1))
        assert rows.t_T == 6
        assert rows.nu_hat == pytest.approx((6 * (1 + 0.5 + 1 / 3)) / 9)

    def test_depend_on_the_intervals_alone(self):
        sched = CommunicationSchedule("power", exponent=0.5, warmup_fraction=0.05)
        rows = schedules.table(sched, 300)
        same = explicit_table(tuple(rows.intervals.tolist()), tuple(rows.etas.tolist()))
        assert summary(same) == summary(rows) == schedules.diagnostics(sched, 300)

    @pytest.mark.parametrize("beta", [1.0 / 3.0, 0.5])
    def test_power_nu_hat_approaches_limit(self, beta):
        sched = CommunicationSchedule("power", base=1, exponent=beta)
        rows = schedules.table(sched, 10_000)
        assert rows.nu_hat == pytest.approx(sched.nu_limit, rel=0.05)

    def test_acf_below_one_with_local_steps(self):
        rows = schedules.table(constant(5), 40)
        assert rows.acf == pytest.approx(0.2)
        assert rows.nu_hat == 1.0

    @given(
        st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=40)
    )
    @settings(max_examples=60, deadline=None)
    def test_nu_hat_at_least_one_iff_constant(self, intervals):
        nu_hat = explicit_table(tuple(intervals), (0.1,) * len(intervals)).nu_hat
        assert nu_hat >= 1.0 - 1e-12
        if len(set(intervals)) == 1:
            assert nu_hat == pytest.approx(1.0, abs=1e-12)
        else:
            assert nu_hat > 1.0 + 1e-12


class TestFcltTimeScale:
    def test_direct_scan_example(self):
        assert fclt(constant(1), 0.35, 10) == 3

    def test_full_budget_returns_total(self):
        for sched in (constant(1), constant(4), CommunicationSchedule("power", exponent=0.5)):
            assert fclt(sched, 1.0, 17) == 17

    def test_constant_interval_cancels(self):
        assert fclt(constant(2), 0.5, 10) == 5

    def test_monotone_in_r(self):
        sched = CommunicationSchedule("power", base=2, exponent=0.5)
        values = [fclt(sched, r, 200) for r in np.linspace(0.01, 1.0, 37)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert all(isinstance(v, int) for v in values)

    def test_rejects_r_outside_unit_interval(self):
        with pytest.raises(ValueError):
            fclt(constant(1), 0.0, 5)
        with pytest.raises(ValueError):
            fclt(constant(1), 1.5, 5)
        with pytest.raises(ValueError):
            fclt(constant(1), [0.5, float("nan")], 5)

    def test_a_sequence_equals_one_call_per_r(self):
        # Repeated r, and r small enough that even the first round exceeds
        # the budget under growing intervals.
        sched = CommunicationSchedule("power", base=2, exponent=0.5, warmup_fraction=0.05)
        rows = schedules.table(sched, 500)
        grid = [0.001, 0.3, 0.3, *np.linspace(0.002, 1.0, 61), 0.001, 1.0]
        hs = schedules.fclt_time_scale(rows, grid)
        assert hs == [schedules.fclt_time_scale(rows, r) for r in grid]
        assert all(type(h) is int for h in hs)
        assert hs[0] == 0 and hs[-1] == 500


class TestLabel:
    @pytest.mark.parametrize(
        "kwargs, label",
        [
            (dict(kind="constant", base=2.0), "C2"),
            (dict(kind="constant", base=True), "C1"),
            (dict(kind="log", base=3.0), "Log(3,1)"),
            (dict(kind="power", base=2.0, exponent=0.5), "P(2,0.5)"),
        ],
        ids=["constant-float", "constant-bool", "log-float", "power-float"],
    )
    def test_integral_base_is_labelled_as_an_int(self, kwargs, label):
        schedule = CommunicationSchedule(**kwargs)
        assert schedule.label() == label
        assert type(schedule.base) is int


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "kwargs, field",
        [
            (dict(kind="constant", gamma0=math.nan), "gamma0"),
            (dict(kind="constant", gamma0=math.inf), "gamma0"),
            (dict(kind="log", exponent=math.nan), "exponent"),
            (dict(kind="log", exponent=math.inf), "exponent"),
            (dict(kind="constant", base=math.inf), "base"),
            (dict(kind="constant", exponent=math.nan), "schedule exponent must be finite"),
            (dict(kind="constant", exponent=math.inf), "schedule exponent must be finite"),
            (dict(kind="weekly"), "unknown schedule kind 'weekly'"),
            (dict(kind="constant", alpha=0.5), r"alpha must lie in \(0.5, 1\)"),
            (dict(kind="constant", alpha=1.0), r"alpha must lie in \(0.5, 1\)"),
            (dict(kind="constant", warmup_fraction=-0.1), r"warmup_fraction must lie in \[0, 1\)"),
            (dict(kind="constant", warmup_fraction=1.0), r"warmup_fraction must lie in \[0, 1\)"),
        ],
        ids=["gamma0-nan", "gamma0-inf", "log-exponent-nan", "log-exponent-inf", "base-inf",
             "constant-exponent-nan", "constant-exponent-inf", "kind", "alpha-low", "alpha-high",
             "warmup-negative", "warmup-one"],
    )
    def test_parametric_schedule(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            CommunicationSchedule(**kwargs)

    @pytest.mark.parametrize(
        "intervals, etas, field",
        [
            ((1, math.inf), (0.1, 0.1), "intervals must be integers >= 1"),
            ((1, math.nan), (0.1, 0.1), "intervals must be integers >= 1"),
            ((1, 2.5), (0.1, 0.1), "intervals must be integers >= 1"),
            ((1, 0), (0.1, 0.1), "intervals must be integers >= 1"),
            ((1, 2), (0.1, math.nan), "etas must be positive and finite"),
            ((1, 2), (0.1, math.inf), "etas must be positive and finite"),
            ((1, 2), (0.1, 0.0), "etas must be positive and finite"),
            ((), (), "need at least one interval"),
            ((1, 2), (0.1,), "etas must match intervals in length"),
        ],
        ids=["interval-inf", "interval-nan", "interval-fraction", "interval-zero", "eta-nan",
             "eta-inf", "eta-zero", "no-intervals", "etas-length"],
    )
    def test_explicit_schedule(self, intervals, etas, field):
        with pytest.raises(ValueError, match=field):
            explicit_table(intervals, etas)

    @pytest.mark.parametrize("rounds", [0, -1])
    def test_table_of_no_rounds(self, rounds):
        with pytest.raises(ValueError, match="total_rounds must be >= 1"):
            schedules.table(constant(1), rounds)


class TestTable:
    SCHED = CommunicationSchedule("power", exponent=0.5, warmup_fraction=0.05)
    ARRAYS = ("intervals", "gammas", "etas", "comm_times")

    def test_cannot_be_changed(self):
        rows = schedules.table(self.SCHED, 300)
        for name in self.ARRAYS:
            array = getattr(rows, name)
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 7
        with pytest.raises(FrozenInstanceError):
            rows.warmup = 0

    def test_unpickled_copy_is_equal_and_read_only(self):
        rows = schedules.table(self.SCHED, 300)
        copy = pickle.loads(pickle.dumps(rows))
        for name in self.ARRAYS:
            assert not getattr(copy, name).flags.writeable
            np.testing.assert_array_equal(getattr(copy, name), getattr(rows, name))
        assert (copy.warmup, *summary(copy)) == (rows.warmup, *summary(rows))


class TestSetupProbe:
    """``schedules.diagnostics``, which the benchmark's set-up probe times,
    gives the table's summary numbers without building any step size."""

    SCHEDULES = [
        constant(5),
        CommunicationSchedule("log", base=2, exponent=1.5),
        CommunicationSchedule("power", base=1, exponent=0.5),
    ]

    @pytest.mark.parametrize("warmup", [0.0, 0.05])
    @pytest.mark.parametrize("sched", SCHEDULES, ids=lambda s: s.label())
    def test_equals_the_table_and_builds_no_table(self, sched, warmup, monkeypatch):
        sched = replace(sched, warmup_fraction=warmup)
        expected = summary(schedules.table(sched, 700))

        def no_table(*args):
            raise AssertionError("the probe built a table")

        monkeypatch.setattr(schedules, "table", no_table)
        assert schedules.diagnostics(sched, 700) == expected


class TestOverflow:
    """A family whose intervals pass 2**53, or whose counts could pass int64,
    is refused before the cast instead of wrapping."""

    HUGE = [
        (constant(2**62), 4),
        (CommunicationSchedule("power", base=2**60, exponent=0.5), 10),
        (CommunicationSchedule("log", base=2**52, exponent=2.0), 3),
        (constant(2**53), 1024),
    ]

    @pytest.mark.parametrize("sched, total", HUGE, ids=["C2^62", "P2^60", "Log2^52", "C2^53"])
    def test_table_refuses(self, sched, total):
        with pytest.raises(ValueError, match=f"^schedule {re.escape(sched.label())} does not fit"):
            schedules.table(sched, total)
        with pytest.raises(ValueError, match="does not fit 64-bit counts"):
            rounds_for_target(sched, 2**63 - 1)

    def test_largest_counts_fit(self):
        rows = schedules.table(constant(2**53), 1023)
        assert rows.t_T == rows.comm_times[-1] == 1023 * 2**53

    def test_cli_reports_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "config.txt"
        path.write_text(f"schedule_base = {2**62}\nrounds = 4\nreplications = 2\n")
        assert cli.main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"fedstat: error: schedule C{2**62} does not fit 64-bit counts at T = 4 "
            f"(interval {2**62})\n"
        )


class TestValidateSchedule:
    GRID = [100, 1000, 10000]

    def test_constant_five_clean(self):
        assert schedules.validate_schedule(constant(5, alpha=0.505), self.GRID) == []

    def test_classical_sgd_clean(self):
        assert schedules.validate_schedule(constant(1, alpha=0.505), self.GRID) == []

    def test_fast_power_growth_flags_gamma_floor(self):
        sched = CommunicationSchedule("power", base=1, exponent=0.9, alpha=0.505)
        warnings = schedules.validate_schedule(sched, self.GRID)
        assert any("gamma_floor" in w for w in warnings)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            schedules.validate_schedule(constant(1), [])


class TestWarmupAccounting:
    def test_no_warmup_means_zero_rounds(self):
        assert schedules.table(constant(5), 100).warmup == 0

    def test_warmup_observation_fraction(self):
        # The warm-up rounds themselves are observations: W ~ frac * t_T(W).
        sched = CommunicationSchedule("power", base=1, exponent=0.5, warmup_fraction=0.05)
        total = 1076
        rows = schedules.table(sched, total)
        w, t_total = rows.warmup, rows.t_T
        assert w >= sched.warmup_fraction * t_total - 1
        assert (w - 1) < sched.warmup_fraction * (t_total + 1)


# --- scalar reference: one formula per round, Python scalar arithmetic --------


def ref_family(sched, index):
    if sched.kind == "constant":
        return sched.base
    if sched.kind == "log":
        value = sched.base * math.log2(index + 1) ** sched.exponent
    else:
        value = sched.base * index**sched.exponent
    return max(1, math.ceil(value - 1e-12))


def ref_warmup(sched, total):
    if sched.warmup_fraction == 0.0:
        return 0
    frac = sched.warmup_fraction
    prefix = [0]
    for i in range(1, total + 1):
        prefix.append(prefix[-1] + ref_family(sched, i))

    def short(w):
        return w < frac * (w + prefix[total - w])

    lo, hi = 0, total
    if short(hi):
        return hi
    while lo < hi:
        mid = (lo + hi) // 2
        if short(mid):
            lo = mid + 1
        else:
            hi = mid
    return lo


def ref_intervals(sched, total):
    w = ref_warmup(sched, total)
    return [1 if m <= w else ref_family(sched, m - w) for m in range(1, total + 1)]


def ref_steps(sched, total):
    e = ref_intervals(sched, total)
    gammas = [sched.gamma0 * m ** (-sched.alpha) for m in range(1, total + 1)]
    return gammas, [gamma / e_m for gamma, e_m in zip(gammas, e)]


def ref_rounds_for_target(sched, target):
    def total(t):
        return sum(ref_intervals(sched, t))

    lo, hi = 1, target
    while lo < hi:
        mid = (lo + hi) // 2
        if total(mid) >= target:
            hi = mid
        else:
            lo = mid + 1
    while total(lo) < target:
        lo += 1
    return lo


parametric = st.builds(
    CommunicationSchedule,
    kind=st.sampled_from(["constant", "log", "power"]),
    base=st.integers(min_value=1, max_value=8),
    exponent=st.floats(min_value=0.05, max_value=0.95),
    gamma0=st.floats(min_value=0.01, max_value=5.0),
    alpha=st.floats(min_value=0.501, max_value=0.99),
    warmup_fraction=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.95)),
)
explicit_rounds = st.lists(
    st.tuples(st.integers(min_value=1, max_value=5000), st.floats(min_value=1e-6, max_value=10.0)),
    min_size=1,
    max_size=60,
)


class TestScalarParity:
    """The array tables equal the per-round scalar formulas bit for bit."""

    @given(
        sched=parametric,
        total=st.integers(min_value=1, max_value=3000),
        target=st.integers(min_value=1, max_value=5000),
    )
    @settings(max_examples=150, deadline=None)
    def test_tables_equal_scalar_reference(self, sched, total, target):
        e = schedules.intervals(sched, total)
        np.testing.assert_array_equal(e, ref_intervals(sched, total))
        assert e.dtype == np.int64
        rows = schedules.table(sched, total)
        np.testing.assert_array_equal(rows.intervals, e)
        np.testing.assert_array_equal(rows.comm_times, np.cumsum(ref_intervals(sched, total)))
        ref_gammas, ref_etas = ref_steps(sched, total)
        np.testing.assert_array_equal(rows.gammas, ref_gammas)
        np.testing.assert_array_equal(rows.etas, ref_etas)
        assert rows.warmup == ref_warmup(sched, total)
        assert summary(rows) == schedules.diagnostics(sched, total)
        assert rounds_for_target(sched, target) == ref_rounds_for_target(sched, target)

    @given(explicit_rounds)
    @settings(max_examples=150, deadline=None)
    def test_explicit_table_equals_scalar_reference(self, rounds):
        intervals, etas = zip(*rounds)
        rows = schedules.explicit_table(intervals, etas)
        np.testing.assert_array_equal(rows.intervals, intervals)
        np.testing.assert_array_equal(rows.etas, etas)
        np.testing.assert_array_equal(rows.comm_times, list(itertools.accumulate(intervals)))
        np.testing.assert_array_equal(rows.gammas, [eta * e for e, eta in rounds])
        assert rows.intervals.dtype == rows.comm_times.dtype == np.int64
        assert rows.warmup == 0
        t_total, total = sum(intervals), len(intervals)
        assert rows.t_T == t_total
        assert rows.acf == total / t_total
        nu_hat = t_total * math.fsum(1.0 / e for e in intervals) / total**2
        assert rows.nu_hat == pytest.approx(nu_hat, rel=1e-14)

    @pytest.mark.parametrize(
        "sched, target, rounds",
        [
            (constant(1, warmup_fraction=0.05), 10_000, 10_000),
            (CommunicationSchedule("power", exponent=0.5, warmup_fraction=0.05), 100_000, 7705),
        ],
        ids=["C1-1e4", "P0.5-1e5"],
    )
    def test_benchmark_setups(self, sched, target, rounds):
        assert rounds_for_target(sched, target) == rounds
        e = schedules.intervals(sched, rounds)
        assert e.sum() >= target > schedules.intervals(sched, rounds - 1).sum()

    @given(sched=parametric)
    @settings(max_examples=12, deadline=None)
    def test_bounded_target_solver_equals_the_bisection_over_every_round(self, sched):
        """The solver's bracketed bisection on a prefix grown to its upper
        bound finds the T of a bisection over 1..target, at every target."""
        for target in range(1, 3001):
            assert rounds_for_target(sched, target) == bisect_rounds_for_target(sched, target)

    @pytest.mark.parametrize(
        "sched, target",
        [
            (constant(1, warmup_fraction=0.05), 10_000),
            (CommunicationSchedule("power", exponent=0.5, warmup_fraction=0.05), 100_000),
        ],
        ids=["C1-1e4", "P0.5-1e5"],
    )
    def test_bounded_target_solver_on_the_benchmark_setups(self, sched, target):
        for t in [*range(1, 3001), target]:
            assert rounds_for_target(sched, t) == bisect_rounds_for_target(sched, t)

    @pytest.mark.parametrize("target", [0, -5])
    def test_target_below_one_rejected(self, target):
        with pytest.raises(ValueError, match="target_observations must be >= 1"):
            rounds_for_target(constant(1), target)
