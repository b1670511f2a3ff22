import dataclasses
import io
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedstat import engine, models, roundoff, schedules
from fedstat.engine import DivergenceError, SampleBuffer, average_estimate, run
from fedstat.models import ClientModel, federation_of
from fedstat.schedules import explicit_table, table
from reference import per_round_run, round_map, unit_z


def quadratic_fed(centers, weights=None, curvature=1.0):
    clients = [ClientModel("quadratic", np.atleast_1d(c), curvature=curvature) for c in centers]
    return federation_of(clients, weights=weights)


def linear_fed(optima, weights=None, noise=1.0):
    clients = [ClientModel("linear", np.asarray(o, dtype=float), noise_scale=noise) for o in optima]
    return federation_of(clients, weights=weights)


def fixed_step(eta, rounds, interval=1):
    return explicit_table((interval,) * rounds, (eta,) * rounds)


class TestDeterministicContraction:
    def test_halving_path(self):
        fed = quadratic_fed([0.0])
        path = run(fed, fixed_step(0.5, 10), np.array([1.0]), seed=0)
        np.testing.assert_allclose(path.points[:, 0], 0.5 ** np.arange(1, 11), rtol=1e-15)
        assert path.total_iterations == 10
        np.testing.assert_array_equal(path.table.comm_times, np.arange(1, 11))

    def test_heterogeneous_quadratic_affine_recursion(self):
        # Every local chain is affine in its start, and averaging preserves
        # affinity, so the sync path contracts towards the weighted center:
        # x_bar_m = c_bar + (x0 - c_bar) * prod_j (1 - eta_j)^(E_j).
        rng = np.random.default_rng(4)
        centers = rng.standard_normal((4, 3))
        weights = np.array([0.1, 0.2, 0.3, 0.4])
        fed = quadratic_fed(centers, weights=weights)
        intervals = (3, 1, 4, 2, 5, 3, 1, 2)
        etas = (0.3, 0.5, 0.2, 0.4, 0.1, 0.25, 0.35, 0.15)
        x0 = np.array([2.0, -1.0, 0.5])
        path = run(fed, explicit_table(intervals, etas), x0, seed=0)
        c_bar = weights @ centers
        factor = 1.0
        for e, eta in zip(intervals, etas):
            factor *= (1.0 - eta) ** e
            expected = c_bar + factor * (x0 - c_bar)
            # compare to the round reached at this point
        factor = 1.0
        for m, (e, eta) in enumerate(zip(intervals, etas)):
            factor *= (1.0 - eta) ** e
            np.testing.assert_allclose(
                path.points[m], c_bar + factor * (x0 - c_bar), atol=1e-12, rtol=0
            )

    def test_constant_interval_closed_form(self):
        centers = [np.array([1.0]), np.array([-3.0])]
        fed = quadratic_fed(centers)
        eta, e, rounds = 0.4, 5, 12
        rows = fixed_step(eta, rounds, interval=e)
        path = run(fed, rows, np.array([10.0]), seed=0)
        c_bar = 0.5 * (1.0 - 3.0)
        expected = c_bar + (1 - eta) ** (e * np.arange(1, rounds + 1)) * (10.0 - c_bar)
        np.testing.assert_allclose(path.points[:, 0], expected, atol=1e-12, rtol=0)


class TestReductionToParallelSgd:
    def test_bit_identical_to_single_chain(self):
        """With E_m = 1, rounds coincide with iterations of single-chain SGD on
        the weighted gradient; same substreams must give bit-equal paths.

        The reference keeps exactly one state vector (that is the property
        under test: the engine's K per-client states cannot drift apart).  The
        60 rounds are one kernel call, so each round is the kernel's affine
        map around x0, built with the same expressions from the round's own
        sample row and applied with one matvec, and the floating-point
        kernels agree exactly.
        """
        rng = np.random.default_rng(8)
        optima = rng.standard_normal((3, 4))
        weights = np.array([0.5, 0.3, 0.2])
        fed = linear_fed(optima, weights=weights)
        sched = schedules.CommunicationSchedule("constant", base=1, gamma0=0.4, alpha=0.6)
        rounds = 60
        seed = 123
        path = run(fed, table(sched, rounds), np.zeros(4), seed=seed)

        buffer = SampleBuffer(fed.clients, seed, 0)
        etas = table(sched, rounds).etas
        pivot, z = np.zeros(4), unit_z(4)
        reference = []
        for eta in etas:
            z = np.dot(round_map(*buffer.take(1), weights, eta, pivot), z)
            reference.append(z[:4] + pivot)
        np.testing.assert_array_equal(path.points, np.array(reference))

    def test_weight_invariance_for_identical_noiseless_clients(self):
        centers = [np.array([2.0, -1.0])] * 4
        rows = fixed_step(0.3, 20)
        x0 = np.array([5.0, 5.0])
        single = run(quadratic_fed(centers[:1]), rows, x0, seed=0)
        # Dyadic equal weights recombine exactly; uneven weights only up to
        # one rounding in the weighted average per round.
        exact = run(quadratic_fed(centers, weights=[0.25] * 4), rows, x0, seed=0)
        np.testing.assert_array_equal(exact.points, single.points)
        uneven = run(quadratic_fed(centers, weights=[0.7, 0.1, 0.1, 0.1]), rows, x0, seed=0)
        np.testing.assert_allclose(uneven.points, single.points, rtol=1e-13, atol=0)


class TestObserversAndDeterminism:
    @pytest.mark.parametrize("kind", ["linear", "logistic", "quadratic"])
    def test_block_draws_equal_per_round_draws(self, kind):
        """``inference_draws`` equals a per-round evaluation, bit for bit.

        The path crosses an inference-buffer refill and ends on a partial
        block.  The reference takes one inference row per round from the
        client substreams and evaluates the weighted draws at that round's
        synchronized point with the per-round formulas.
        """
        rounds = 2 * engine._BUFFER_CHUNK + 37
        d, k, seed = 3, 4, 21
        rng = np.random.default_rng(12)
        weights = np.array([0.1, 0.2, 0.3, 0.4])
        optima = rng.standard_normal((k, d))
        if kind == "linear":
            fed = linear_fed(optima, weights=weights)
        elif kind == "logistic":
            clients = [ClientModel("logistic", optima[0]) for _ in range(k)]
            fed = federation_of(clients, weights=weights)
        else:
            clients = [ClientModel("quadratic", c, curvature=1.0 + i) for i, c in enumerate(optima)]
            fed = federation_of(clients, weights=weights)
        rows = explicit_table(tuple(1 + m % 3 for m in range(rounds)), (0.05,) * rounds)
        path = run(fed, rows, np.zeros(d), seed=seed)
        blocks = list(engine.inference_draws(fed, seed, path.points))

        buffer = SampleBuffer(fed.clients, seed, 1)
        centers = np.stack([c.local_optimum for c in fed.clients])
        curvatures = np.array([c.curvature for c in fed.clients])
        grads, hessians = [], []
        for x_bar in path.points:
            a_block, b_block = buffer.take(1)
            if kind == "quadratic":
                gaps = np.broadcast_to(x_bar, centers.shape) - centers
                grads.append(weights @ (curvatures[:, None] * gaps))
                hessians.append(float(weights @ curvatures) * np.eye(d))
                continue
            a, b = a_block[0], b_block[0]
            if kind == "logistic":
                p = models.sigmoid(a @ x_bar)
                grads.append(weights @ (a * (p - b)[:, None]))
                hessians.append(models.weighted_gram(a[None], weights * p * (1.0 - p))[0])
            else:
                resid = a @ x_bar - b
                grads.append(weights @ (a * resid[:, None]))
                hessians.append(models.weighted_gram(a[None], weights)[0])

        full, partial = divmod(rounds, engine.BLOCK_ROUNDS)
        assert [len(g) for g, _ in blocks] == [engine.BLOCK_ROUNDS] * full + [partial]
        np.testing.assert_array_equal(np.concatenate([g for g, _ in blocks]), np.stack(grads))
        np.testing.assert_array_equal(np.concatenate([h for _, h in blocks]), np.stack(hessians))

    def test_divergence_in_a_later_block_names_the_first_failing_round(self):
        # 1 - eta = -1.05 grows the iterate by 1.05 per round; it first
        # exceeds the bound 1e8 at round 378, in the second block.  The
        # reference runs the per-step expression and the norm test one round
        # at a time.
        fed = quadratic_fed([0.0])
        eta, bound = 2.05, 1e8
        x, seen = np.array([1.0]), []
        while True:
            x = x - np.float64(eta) * (1.0 * (x - 0.0))
            if not float(x @ x) <= bound**2:
                break
            seen.append(x)
        m = len(seen) + 1
        assert m == 378 and engine.BLOCK_ROUNDS < m < 2 * engine.BLOCK_ROUNDS
        with pytest.raises(DivergenceError, match=f"at round {m}$"):
            run(fed, fixed_step(eta, 600), np.array([1.0]), 0)

    def test_overflow_after_the_diverging_round_is_silent(self):
        # 1 - eta = -1000: round 3 exceeds 1e8, and the rest of the block's
        # rounds overflow to inf and then nan before the block is tested.
        fed, rounds = quadratic_fed([0.0]), engine.BLOCK_ROUNDS
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="at round 3$"):
                run(fed, fixed_step(1001.0, rounds), np.array([1.0]), seed=0)

    def test_bit_identical_reruns(self):
        fed = linear_fed(np.random.default_rng(1).standard_normal((3, 2)))
        sched = schedules.CommunicationSchedule("log", base=1, exponent=1.0, gamma0=0.5)
        a = run(fed, table(sched, 50), np.zeros(2), seed=9)
        b = run(fed, table(sched, 50), np.zeros(2), seed=9)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.table.comm_times, b.table.comm_times)

    def test_shared_table_gives_the_paths_of_separate_tables(self):
        fed = linear_fed(np.random.default_rng(3).standard_normal((3, 2)))
        sched = schedules.CommunicationSchedule("power", exponent=0.5, warmup_fraction=0.05)
        shared = table(sched, 300)
        for seed in (1, 2):
            path = run(fed, shared, np.zeros(2), seed)
            alone = run(fed, table(sched, 300), np.zeros(2), seed)
            np.testing.assert_array_equal(path.points, alone.points)
            np.testing.assert_array_equal(path.table.comm_times, alone.table.comm_times)
            assert path.table is shared

    def test_path_carries_round_metadata(self):
        fed = quadratic_fed([0.0, 1.0])
        rows = explicit_table((2, 3, 1), (0.1, 0.1, 0.1))
        path = run(fed, rows, np.array([1.0]), seed=0)
        assert path.table is rows
        assert [f.name for f in dataclasses.fields(engine.SyncPath)] == ["points", "table"]
        np.testing.assert_array_equal(path.table.comm_times, [2, 5, 6])
        assert path.rounds == 3 and path.total_iterations == 6

    def test_growing_new_clients_preserves_existing_streams(self):
        optima = np.random.default_rng(2).standard_normal((4, 2))
        sched = schedules.CommunicationSchedule("constant", base=2, gamma0=0.3, alpha=0.51)
        seed = 77
        for stream in (0, 1):
            small_rngs = engine.client_generators(seed, 2, stream, 2)
            large_rngs = engine.client_generators(seed, 4, stream, 2)
            for k in range(2):
                for small, large in zip(small_rngs[k], large_rngs[k]):
                    np.testing.assert_array_equal(small.random(8), large.random(8))
        # Every substream of every client and stream is a stream of its own.
        streams = [engine.client_generators(seed, 4, stream, 2) for stream in (0, 1)]
        assert len({rng.random() for clients in streams for pair in clients for rng in pair}) == 16


class TestGuardsAndHelpers:
    def test_divergence_guard_names_round(self):
        fed = quadratic_fed([0.0])
        # eta = 3 makes |1 - eta| = 2, doubling the iterate per step.
        with pytest.raises(DivergenceError, match="bound 1e\\+08 at round 27$"):
            run(fed, fixed_step(3.0, 40), np.array([1.0]), seed=0)

    @pytest.mark.parametrize(
        "x0", [np.zeros(2), np.zeros((1, 1)), np.array([np.nan]), np.array([np.inf])],
        ids=["length", "shape", "nan", "inf"],
    )
    def test_x0_must_be_a_finite_vector_of_the_dimension(self, x0):
        fed = quadratic_fed([0.0])
        with pytest.raises(ValueError, match="x0 must be a finite vector of length 1"):
            run(fed, fixed_step(0.5, 3), x0, seed=0)

    @pytest.mark.parametrize("rounds", [3, 5])
    def test_path_needs_one_point_per_round_of_its_table(self, rounds):
        with pytest.raises(ValueError, match="one row per round of the table"):
            engine.SyncPath(np.zeros((rounds, 1)), fixed_step(0.5, 4))

    def test_average_estimate(self):
        np.testing.assert_array_equal(average_estimate(np.array([[1.0], [3.0]])), [2.0])
        np.testing.assert_array_equal(average_estimate(np.array([[0.25, 1.0]])), [0.25, 1.0])
        with pytest.raises(ValueError, match="no synchronized points"):
            average_estimate(np.empty((0, 2)))

    @pytest.mark.parametrize("rows", [3 * engine.BLOCK_ROUNDS + 100, 300, 7])
    def test_average_estimate_matches_exact_arithmetic(self, rows):
        # On three full blocks and a partial one, and on two prefixes, the
        # estimate lies within (B + 1) eps sum|x| / t of the exact rational
        # mean: B additions in any order round by at most (B - 1) eps sum|x|,
        # the double-length total across blocks adds nothing, and hi + lo
        # and the division round once each.
        rng = np.random.default_rng(23)
        points = (5.0 + rng.standard_normal((3 * engine.BLOCK_ROUNDS + 100, 2)))[:rows]
        estimate = average_estimate(points)
        eps = np.finfo(np.float64).eps
        for j in range(2):
            column = points[:, j]
            exact = sum(map(Fraction, column)) / rows
            tol = (engine.BLOCK_ROUNDS + 1) * eps * np.abs(column).sum() / rows
            assert abs(Fraction(estimate[j]) - exact) <= tol

    def test_average_estimate_loses_nothing_between_blocks(self):
        # Blocks of 1e16, of 1 and of -1e16 rows sum to exactly BLOCK_ROUNDS;
        # one running total rounds the ones away against 256 * 1e16.
        points = np.repeat([1e16, 1.0, -1e16], engine.BLOCK_ROUNDS)[:, None]
        assert average_estimate(points)[0] == 1.0 / 3.0

    def test_prefix_estimates_equal_the_estimates_of_each_prefix(self):
        # Prefixes inside the first block, after a partial block, at a block
        # boundary after a partial block, twice in one block, and the whole
        # path, which ends on a partial block.  Blocks of 1e16 and -1e16
        # leave the low word of the total to carry the later estimates, so a
        # pass that drops it, or sums a prefix's partial block into the
        # running total, gives other bits.
        rng = np.random.default_rng(29)
        points = 5.0 + rng.standard_normal((3 * engine.BLOCK_ROUNDS + 100, 2))
        points[: engine.BLOCK_ROUNDS] = 1e16
        points[2 * engine.BLOCK_ROUNDS : 3 * engine.BLOCK_ROUNDS] = -1e16
        ends = (1, 100, 300, 512, 600, 700, 768, len(points))
        estimates = engine._prefix_estimates(points, ends)
        assert estimates.shape == (len(ends), 2)
        for t, estimate in zip(ends, estimates):
            np.testing.assert_array_equal(estimate, average_estimate(points[:t]))

    def test_long_run_estimate_near_optimum(self):
        # Monte Carlo sanity of the mean estimate at 3 sigma of its CLT scale.
        fed = linear_fed(np.random.default_rng(6).standard_normal((10, 2)))
        sched = schedules.CommunicationSchedule("constant", base=1, gamma0=0.5, alpha=0.505)
        path = run(fed, table(sched, 1000), np.zeros(2), seed=31)
        from fedstat.models import true_sandwich

        _, _, cov = true_sandwich(fed)
        bound = 3.0 * np.sqrt(np.trace(cov) / path.total_iterations)
        assert np.linalg.norm(average_estimate(path.points) - fed.global_optimum) <= bound

    def test_path_csv_dump(self):
        fed = quadratic_fed([0.0])
        path = run(fed, fixed_step(0.5, 3), np.array([1.0]), seed=0)
        out = io.StringIO()
        engine.save_path_csv(path, out)
        lines = out.getvalue().strip().splitlines()
        assert lines[0] == "round,iteration,x0"
        assert lines[1].startswith("1,1,0.5")
        assert len(lines) == 4

    def test_sample_buffer_matches_direct_draws(self):
        """Takes that cross refills, one longer than a chunk, read the stream
        in order.  A take is valid until the next one, so each is copied
        before the next."""
        client = ClientModel("linear", np.array([1.0, -1.0]))
        buf = SampleBuffer((client,), 3, 0)
        takes = (5, 2040, 10, 5000, 1, 300)
        taken_a, taken_b = [], []
        for n in takes:
            a, b = buf.take(n)
            assert a.shape == (n, 1, 2) and b.shape == (n, 1)
            taken_a.append(a[:, 0].copy())
            taken_b.append(b[:, 0].copy())
        assert max(takes) > engine._BUFFER_CHUNK
        direct_a, direct_b = client.draw(engine.client_generators(3, 1, 0, 1)[0], sum(takes))
        np.testing.assert_array_equal(np.concatenate(taken_a), direct_a)
        np.testing.assert_array_equal(np.concatenate(taken_b), direct_b)

    def test_default_bound_scales_with_the_run(self):
        # The iterate doubles in size per round from 1e3, so it first exceeds
        # 1e8 * 1e3 at round 27 (2**27 > 1e8).
        with pytest.raises(DivergenceError, match="bound 1e\\+11 at round 27$"):
            run(quadratic_fed([0.0]), fixed_step(3.0, 40), np.array([1e3]), seed=0)

    def test_bound_whose_square_overflows(self):
        # From x0 = 1e150 the bound is 1e158, whose square overflows a float;
        # the run must still start, warn of nothing, and halve the iterate
        # every round.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            path = run(quadratic_fed([0.0]), fixed_step(0.5, 10), np.array([1e150]), 0)
        np.testing.assert_array_equal(path.points[:, 0], 1e150 * 0.5 ** np.arange(1, 11))


class TestRoundGroups:
    """Rounds run in groups of at most `BLOCK_ROUNDS` rows per sample take.

    The intervals give: a block of 256 one-step rounds (one group), a group
    cut short by the block, rounds just under, at and over the cap, rounds
    just under and over a chunk (refills of more than a chunk), and a short
    tail group.
    """

    INTERVALS = (1,) * 300 + (255, 256, 257, 2047, 2049, 3000, 5000) + (1,) * 40

    @staticmethod
    def federation(kind):
        k, d = 3, 3
        optima = np.random.default_rng(17).standard_normal((k, d))
        weights = [0.2, 0.3, 0.5]
        if kind == "logistic":
            return federation_of([ClientModel(kind, optima[0]) for _ in range(k)], weights)
        return linear_fed(optima, weights=weights)

    @pytest.mark.parametrize("kind", ["linear", "logistic"])
    def test_groups_equal_one_take_per_round(self, kind):
        fed = self.federation(kind)
        rounds = len(self.INTERVALS)
        rows = explicit_table(self.INTERVALS, (0.002,) * rounds)
        x0 = np.full(3, 0.5)
        points, grads, hessians, diverged = per_round_run(fed, rows, x0, seed=4)
        assert diverged is None
        path = run(fed, rows, x0, seed=4)
        blocks = list(engine.inference_draws(fed, 4, path.points))
        assert max(self.INTERVALS) > engine._BUFFER_CHUNK
        np.testing.assert_array_equal(path.points, np.array(points))
        np.testing.assert_array_equal(np.concatenate([g for g, _ in blocks]), np.stack(grads))
        np.testing.assert_array_equal(np.concatenate([h for _, h in blocks]), np.stack(hessians))

    def test_divergence_inside_a_group(self):
        fed = self.federation("linear")
        rounds = engine.BLOCK_ROUNDS
        rows = fixed_step(1.5, rounds)
        x0 = np.full(3, 0.5)
        bound = 1e8 * max(1.0, roundoff.run_scale(fed, x0))
        points, _, _, m = per_round_run(fed, rows, x0, seed=8, bound=bound)
        # All rounds of the first block are one group.
        assert m is not None and 1 < m < rounds
        with pytest.raises(DivergenceError, match=f"at round {m}$"):
            run(fed, rows, x0, seed=8)


class TestSampleContract:
    """A take of n rows is the next n rows of every client's streams, however
    the takes are split, so no result depends on the buffer's chunk size."""

    KINDS = ["linear", "logistic", "quadratic"]

    @staticmethod
    def clients(kind):
        optima = np.random.default_rng(9).standard_normal((3, 3))
        if kind == "logistic":
            return tuple(ClientModel(kind, optima[0]) for _ in range(3))
        return tuple(ClientModel(kind, o, curvature=1.0 + i) for i, o in enumerate(optima))

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=25, deadline=None)
    @given(
        takes=st.lists(st.integers(1, 2 * engine._BUFFER_CHUNK + 100), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(takes=[7, 2040, 1, 2500, 452], seed=0)
    def test_split_takes_equal_one_take(self, kind, takes, seed):
        clients = self.clients(kind)
        split = SampleBuffer(clients, seed, 0)
        parts = [[x.copy() for x in split.take(n)] for n in takes]
        whole = SampleBuffer(clients, seed, 0).take(sum(takes))
        for j, rows in enumerate(whole):
            np.testing.assert_array_equal(np.concatenate([part[j] for part in parts]), rows)

    @pytest.mark.parametrize("chunk", [256, 300, 4096])
    @pytest.mark.parametrize("kind", KINDS)
    def test_results_do_not_depend_on_the_chunk(self, kind, chunk, monkeypatch):
        fed = federation_of(self.clients(kind), weights=[0.2, 0.3, 0.5])
        rows = explicit_table(TestRoundGroups.INTERVALS, (0.002,) * len(TestRoundGroups.INTERVALS))
        x0 = np.full(3, 0.5)

        def outputs():
            path = run(fed, rows, x0, seed=6)
            draws = list(engine.inference_draws(fed, 6, path.points))
            return [path.points, *(np.concatenate(column) for column in zip(*draws))]

        expected = outputs()
        monkeypatch.setattr(engine, "_BUFFER_CHUNK", chunk)
        for found, wanted in zip(outputs(), expected, strict=True):
            np.testing.assert_array_equal(found, wanted)


def traced_peak(call):
    """(peak, result): the traced heap peak of ``call()`` above the heap before
    it, in bytes, and what it returned."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return tracemalloc.get_traced_memory()[1] - before, result
    finally:
        if started:
            tracemalloc.stop()


class TestFootprint:
    """A stream holds one sample buffer: a refill writes into it in place,
    so no refill holds an old and a new buffer at once."""

    K, D = 10, 5
    # Rounds of two steps: five refills of the optimization stream, three of
    # the inference stream.
    ROUNDS = 2 * engine._BUFFER_CHUNK + 100

    def setup_method(self):
        optimum = np.random.default_rng(5).standard_normal(self.D) * 0.3
        self.fed = federation_of([ClientModel("logistic", optimum) for _ in range(self.K)])
        self.table = fixed_step(0.01, self.ROUNDS, interval=2)
        self.x0 = np.zeros(self.D)
        # Load and warm everything a run touches before any peak is traced.
        path = run(self.fed, self.table, self.x0, seed=1)
        for _ in engine.inference_draws(self.fed, 1, path.points):
            pass
        rows = engine._BUFFER_CHUNK
        self.bound = rows * self.K * (self.D + 1) * 8 + 512 * 1024

    def test_run_holds_one_buffer(self):
        peak, path = traced_peak(lambda: run(self.fed, self.table, self.x0, seed=1))
        assert peak - path.points.nbytes <= self.bound

    def test_inference_draws_hold_one_buffer(self):
        path = run(self.fed, self.table, self.x0, seed=1)

        def consume():
            for _ in engine.inference_draws(self.fed, 1, path.points):
                pass

        peak, _ = traced_peak(consume)
        assert peak <= self.bound
