import io
import warnings

import numpy as np
import pytest

from fedstat import engine, models, schedules
from fedstat.engine import DivergenceError, SampleBuffer, average_estimate, run
from fedstat.models import ClientModel, federation_of


def quadratic_fed(centers, weights=None, curvature=1.0):
    clients = [ClientModel("quadratic", np.atleast_1d(c), curvature=curvature) for c in centers]
    return federation_of(clients, weights=weights)


def linear_fed(optima, weights=None, noise=1.0):
    clients = [ClientModel("linear", np.asarray(o, dtype=float), noise_scale=noise) for o in optima]
    return federation_of(clients, weights=weights)


def fixed_step(eta, rounds, interval=1):
    return schedules.ExplicitSchedule(
        intervals=(interval,) * rounds, etas=(eta,) * rounds
    )


class PathRecorder:
    needs_inference_draws = False

    def __init__(self):
        self.rows = []

    def observe_sync(self, round_index, iteration, x_bar, interval, grad_draw, hess_draw):
        self.rows.append((round_index, iteration, x_bar.copy(), interval))


class DrawRecorder:
    needs_inference_draws = True

    def __init__(self):
        self.rows = []

    def observe_sync(self, round_index, iteration, x_bar, interval, grad_draw, hess_draw):
        self.rows.append(
            (round_index, iteration, x_bar.copy(), interval, grad_draw.copy(), hess_draw.copy())
        )


class TestDeterministicContraction:
    def test_halving_path(self):
        fed = quadratic_fed([0.0])
        path = run(fed, fixed_step(0.5, 10), 10, np.array([1.0]), seed=0)
        np.testing.assert_allclose(path.points[:, 0], 0.5 ** np.arange(1, 11), rtol=1e-15)
        assert path.total_iterations == 10
        np.testing.assert_array_equal(path.comm_times, np.arange(1, 11))

    def test_heterogeneous_quadratic_affine_recursion(self):
        # Every local chain is affine in its start, and averaging preserves
        # affinity, so the sync path contracts towards the weighted center:
        # x_bar_m = c_bar + (x0 - c_bar) * prod_j (1 - eta_j)^(E_j).
        rng = np.random.default_rng(4)
        centers = rng.standard_normal((4, 3))
        weights = np.array([0.1, 0.2, 0.3, 0.4])
        fed = quadratic_fed(centers, weights=weights)
        sched = schedules.ExplicitSchedule(
            intervals=(3, 1, 4, 2, 5, 3, 1, 2),
            etas=(0.3, 0.5, 0.2, 0.4, 0.1, 0.25, 0.35, 0.15),
        )
        x0 = np.array([2.0, -1.0, 0.5])
        path = run(fed, sched, 8, x0, seed=0)
        c_bar = weights @ centers
        factor = 1.0
        for e, eta in zip(sched.intervals, sched.etas):
            factor *= (1.0 - eta) ** e
            expected = c_bar + factor * (x0 - c_bar)
            # compare to the round reached at this point
        factor = 1.0
        for m, (e, eta) in enumerate(zip(sched.intervals, sched.etas)):
            factor *= (1.0 - eta) ** e
            np.testing.assert_allclose(
                path.points[m], c_bar + factor * (x0 - c_bar), atol=1e-12, rtol=0
            )

    def test_constant_interval_closed_form(self):
        centers = [np.array([1.0]), np.array([-3.0])]
        fed = quadratic_fed(centers)
        eta, e, rounds = 0.4, 5, 12
        path = run(fed, fixed_step(eta, rounds, interval=e), rounds, np.array([10.0]), seed=0)
        c_bar = 0.5 * (1.0 - 3.0)
        expected = c_bar + (1 - eta) ** (e * np.arange(1, rounds + 1)) * (10.0 - c_bar)
        np.testing.assert_allclose(path.points[:, 0], expected, atol=1e-12, rtol=0)


class TestReductionToParallelSgd:
    def test_bit_identical_to_single_chain(self):
        """With E_m = 1, rounds coincide with iterations of single-chain SGD on
        the weighted gradient; same substreams must give bit-equal paths.

        The reference keeps exactly one state vector (that is the property
        under test: the engine's K per-client states cannot drift apart), and
        evaluates the K per-client gradients with the same stacked layout the
        engine uses so the floating-point kernels agree exactly.
        """
        rng = np.random.default_rng(8)
        optima = rng.standard_normal((3, 4))
        weights = np.array([0.5, 0.3, 0.2])
        fed = linear_fed(optima, weights=weights)
        sched = schedules.CommunicationSchedule("constant", base=1, gamma0=0.4, alpha=0.6)
        rounds = 60
        seed = 123
        path = run(fed, sched, rounds, np.zeros(4), seed=seed)

        opt_rngs, _ = engine.client_generators(seed, 3)
        buffer = SampleBuffer(fed.clients, opt_rngs)
        _, etas = schedules.effective_steps(sched, rounds)
        x = np.zeros(4)
        reference = []
        for eta in etas:
            a_block, b_block = buffer.take(1)
            a = a_block[:, 0, :]
            state = np.tile(x, (3, 1))
            resid = np.einsum("kd,kd->k", a, state) - b_block[:, 0]
            state -= eta * (a * resid[:, None])
            x = weights @ state
            reference.append(x.copy())
        np.testing.assert_array_equal(path.points, np.array(reference))

    def test_weight_invariance_for_identical_noiseless_clients(self):
        centers = [np.array([2.0, -1.0])] * 4
        sched = fixed_step(0.3, 20)
        x0 = np.array([5.0, 5.0])
        single = run(quadratic_fed(centers[:1]), sched, 20, x0, seed=0)
        # Dyadic equal weights recombine exactly; uneven weights only up to
        # one rounding in the weighted average per round.
        exact = run(quadratic_fed(centers, weights=[0.25] * 4), sched, 20, x0, seed=0)
        np.testing.assert_array_equal(exact.points, single.points)
        uneven = run(quadratic_fed(centers, weights=[0.7, 0.1, 0.1, 0.1]), sched, 20, x0, seed=0)
        np.testing.assert_allclose(uneven.points, single.points, rtol=1e-13, atol=0)


class TestObserversAndDeterminism:
    def test_observer_transparency(self):
        # More than two notification blocks, ending on a partial one.
        rounds = 2 * engine.BLOCK_ROUNDS + 40
        fed = linear_fed(np.random.default_rng(0).standard_normal((2, 3)))
        sched = schedules.CommunicationSchedule("power", base=1, exponent=0.5, gamma0=0.5)
        bare = run(fed, sched, rounds, np.zeros(3), seed=5)
        from fedstat.plugin import PluginObserver
        from fedstat.rscale import RScaleObserver

        recorder = PathRecorder()
        watched = run(
            fed, sched, rounds, np.zeros(3), seed=5,
            observers=(PluginObserver(3), RScaleObserver(3), recorder),
        )
        np.testing.assert_array_equal(bare.points, watched.points)
        np.testing.assert_array_equal(bare.comm_times, watched.comm_times)
        assert [row[0] for row in recorder.rows] == list(range(1, rounds + 1))

    @pytest.mark.parametrize("kind", ["linear", "logistic", "quadratic"])
    def test_block_draws_equal_per_round_draws(self, kind):
        """Every observer argument equals a per-round evaluation, bit for bit.

        The run crosses an inference-buffer refill and ends on a partial
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
        sched = schedules.ExplicitSchedule(
            intervals=tuple(1 + m % 3 for m in range(rounds)), etas=(0.05,) * rounds
        )
        recorder = DrawRecorder()
        path = run(fed, sched, rounds, np.zeros(d), seed=seed, observers=(recorder,))

        _, inf_rngs = engine.client_generators(seed, k)
        buffer = SampleBuffer(fed.clients, inf_rngs)
        centers = np.stack([c.local_optimum for c in fed.clients])
        curvatures = np.array([c.curvature for c in fed.clients])
        grads, hessians = [], []
        for x_bar in path.points:
            if kind == "quadratic":
                gaps = np.broadcast_to(x_bar, centers.shape) - centers
                grads.append(weights @ (curvatures[:, None] * gaps))
                hessians.append(float(weights @ curvatures) * np.eye(d))
                continue
            a_block, b_block = buffer.take(1)
            a, b = a_block[:, 0, :], b_block[:, 0]
            if kind == "logistic":
                p = models.sigmoid(a @ x_bar)
                grads.append(weights @ (a * (p - b)[:, None]))
                hessians.append(np.einsum("k,ki,kj->ij", weights * p * (1.0 - p), a, a))
            else:
                resid = a @ x_bar - b
                grads.append(weights @ (a * resid[:, None]))
                hessians.append(np.einsum("k,ki,kj->ij", weights, a, a))

        seen = list(zip(*recorder.rows))
        assert list(seen[0]) == list(range(1, rounds + 1))
        np.testing.assert_array_equal(seen[1], path.comm_times)
        np.testing.assert_array_equal(np.stack(seen[2]), path.points)
        np.testing.assert_array_equal(seen[3], sched.intervals)
        np.testing.assert_array_equal(np.stack(seen[4]), np.stack(grads))
        np.testing.assert_array_equal(np.stack(seen[5]), np.stack(hessians))

    def test_observers_see_every_round_before_divergence(self):
        fed = quadratic_fed([0.0])
        recorder = PathRecorder()
        # 1 - eta = -2 doubles the iterate's size per step: 2**10 > 1e3 at round 10.
        with pytest.raises(DivergenceError, match="round 10"):
            run(fed, fixed_step(3.0, 40), 40, np.array([1.0]), seed=0,
                observers=(recorder,), divergence_bound=1e3)
        assert [row[0] for row in recorder.rows] == list(range(1, 10))
        assert recorder.rows[-1][2][0] == (-2.0) ** 9

    def test_divergence_in_a_later_block_names_the_first_failing_round(self):
        # 1 - eta = -1.1 grows the iterate by 1.1 per round; it first exceeds
        # 1e13 in the second block.  The reference runs the per-step
        # expression and the norm test one round at a time.
        fed = quadratic_fed([0.0])
        eta, bound = 2.1, 1e13
        x, seen = np.array([1.0]), []
        while True:
            x = x - np.float64(eta) * (1.0 * (x - 0.0))
            if not float(x @ x) <= bound**2:
                break
            seen.append(x)
        m = len(seen) + 1
        assert engine.BLOCK_ROUNDS < m < 2 * engine.BLOCK_ROUNDS
        recorder = PathRecorder()
        with pytest.raises(DivergenceError, match=f"at round {m}$"):
            run(fed, fixed_step(eta, 600), 600, np.array([1.0]), seed=0,
                observers=(recorder,), divergence_bound=bound)
        assert [row[0] for row in recorder.rows] == list(range(1, m))
        np.testing.assert_array_equal([row[2] for row in recorder.rows], seen)

    def test_overflow_after_the_diverging_round_is_silent(self):
        # 1 - eta = -1000: round 3 exceeds 1e8, and the rest of the block's
        # rounds overflow to inf and then nan before the block is tested.
        fed = quadratic_fed([0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="at round 3$"):
                run(fed, fixed_step(1001.0, engine.BLOCK_ROUNDS), engine.BLOCK_ROUNDS,
                    np.array([1.0]), seed=0, divergence_bound=1e8)

    def test_bit_identical_reruns(self):
        fed = linear_fed(np.random.default_rng(1).standard_normal((3, 2)))
        sched = schedules.CommunicationSchedule("log", base=1, exponent=1.0, gamma0=0.5)
        a = run(fed, sched, 50, np.zeros(2), seed=9)
        b = run(fed, sched, 50, np.zeros(2), seed=9)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.comm_times, b.comm_times)

    def test_observer_sees_round_metadata(self):
        fed = quadratic_fed([0.0, 1.0])
        sched = schedules.ExplicitSchedule(intervals=(2, 3, 1), etas=(0.1, 0.1, 0.1))
        recorder = PathRecorder()
        path = run(fed, sched, 3, np.array([1.0]), seed=0, observers=(recorder,))
        assert [(m, t, e) for m, t, _, e in recorder.rows] == [(1, 2, 2), (2, 5, 3), (3, 6, 1)]
        assert path.total_iterations == 6

    def test_growing_new_clients_preserves_existing_streams(self):
        optima = np.random.default_rng(2).standard_normal((4, 2))
        sched = schedules.CommunicationSchedule("constant", base=2, gamma0=0.3, alpha=0.51)
        seed = 77
        small_rngs, _ = engine.client_generators(seed, 2)
        large_rngs, _ = engine.client_generators(seed, 4)
        for k in range(2):
            a = small_rngs[k].standard_normal(8)
            b = large_rngs[k].standard_normal(8)
            np.testing.assert_array_equal(a, b)


class TestGuardsAndHelpers:
    def test_divergence_guard_names_round(self):
        fed = quadratic_fed([0.0])
        # eta = 3 makes |1 - eta| = 2, doubling the iterate per step.
        sched = fixed_step(3.0, 40)
        with pytest.raises(DivergenceError, match="round"):
            run(fed, sched, 40, np.array([1.0]), seed=0, divergence_bound=1e3)

    def test_average_estimate(self):
        path = engine.SyncPath(
            points=np.array([[1.0], [3.0]]), comm_times=np.array([1, 2]), total_iterations=2
        )
        np.testing.assert_allclose(average_estimate(path), [2.0])
        single = engine.SyncPath(
            points=np.array([[0.25, 1.0]]), comm_times=np.array([1]), total_iterations=1
        )
        np.testing.assert_allclose(average_estimate(single), [0.25, 1.0])

    def test_long_run_estimate_near_optimum(self):
        # Monte Carlo sanity of the mean estimate at 3 sigma of its CLT scale.
        fed = linear_fed(np.random.default_rng(6).standard_normal((10, 2)))
        sched = schedules.CommunicationSchedule("constant", base=1, gamma0=0.5, alpha=0.505)
        path = run(fed, sched, 1000, np.zeros(2), seed=31)
        from fedstat.models import true_sandwich

        _, _, cov = true_sandwich(fed)
        bound = 3.0 * np.sqrt(np.trace(cov) / path.total_iterations)
        assert np.linalg.norm(average_estimate(path) - fed.global_optimum) <= bound

    def test_path_csv_dump(self):
        fed = quadratic_fed([0.0])
        path = run(fed, fixed_step(0.5, 3), 3, np.array([1.0]), seed=0)
        out = io.StringIO()
        engine.save_path_csv(path, out)
        lines = out.getvalue().strip().splitlines()
        assert lines[0] == "round,iteration,x0"
        assert lines[1].startswith("1,1,0.5")
        assert len(lines) == 4

    def test_sample_buffer_matches_direct_draws(self):
        client = ClientModel("linear", np.array([1.0, -1.0]))
        rng_buf = np.random.default_rng(3)
        rng_direct = np.random.default_rng(3)
        buf = SampleBuffer((client,), [rng_buf], chunk=7)
        taken_a, taken_b = [], []
        for n in (3, 5, 2, 9, 1):
            a, b = buf.take(n)
            taken_a.append(a[0])
            taken_b.append(b[0])
        direct_a, direct_b = client.draw(rng_direct, 20)
        np.testing.assert_array_equal(np.concatenate(taken_a), direct_a)
        np.testing.assert_array_equal(np.concatenate(taken_b), direct_b)
