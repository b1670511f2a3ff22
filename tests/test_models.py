import math

import numpy as np
import pytest

from fedstat import models
from fedstat.engine import SampleBuffer, client_generators
from fedstat.models import ClientModel, Federation, true_sandwich
from reference import round_map

ONE = np.ones(1)  # the weights of a single client


def substreams(model, seed):
    """A client's substreams of stream 0 of ``seed``, as a run builds them."""
    return client_generators(seed, 1, 0, models.SUBSTREAMS[model.kind])[0]


def draws_at(model, a, b, X):
    """Gradient and Hessian draws of one client of weight 1, one row per sample."""
    kernel = models.linear_draws if model.kind == "linear" else models.logistic_draws
    return kernel(ONE, a[:, None], b[:, None], X)


def quadratic_draws_at(model, X):
    a, b = model.draw((), len(X))
    return models.quadratic_draws(ONE, a[:, None], b[:, None], X)


class TestQuadratic:
    def test_gradient_is_exact(self):
        model = ClientModel("quadratic", np.zeros(3))
        x = np.array([1.0, -2.0, 0.5])
        grads, _ = quadratic_draws_at(model, x[None])
        np.testing.assert_array_equal(grads[0], x)

    def test_hessian_is_curvature_times_identity(self):
        model = ClientModel("quadratic", np.zeros(2), curvature=3.0)
        _, hess = quadratic_draws_at(model, np.ones((1, 2)))
        np.testing.assert_array_equal(hess[0], 3.0 * np.eye(2))

    def test_zero_gradient_noise(self):
        model = ClientModel("quadratic", np.array([1.0, 2.0]))
        x = np.array([0.3, -0.7])
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        a, b = model.draw((rng,), 5)
        np.testing.assert_array_equal(a, np.tile(model.local_optimum, (5, 1)))
        np.testing.assert_array_equal(b, np.full(5, model.curvature))
        assert rng.bit_generator.state == state
        grads, _ = quadratic_draws_at(model, np.tile(x, (5, 1)))
        for g in grads[1:]:
            np.testing.assert_array_equal(g, grads[0])


class TestLinear:
    def test_gradient_unbiased_at_local_optimum(self):
        d, n = 4, 100_000
        model = ClientModel("linear", np.array([0.5, -1.0, 2.0, 0.0]))
        rng = np.random.default_rng(11)
        a, b = model.draw((rng,), n)
        grads, _ = draws_at(model, a, b, np.tile(model.local_optimum, (n, 1)))
        mean = grads.mean(axis=0)
        se = grads.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(mean) <= 3.0 * se)

    def test_hessian_mean_is_identity(self):
        d, n = 3, 100_000
        model = ClientModel("linear", np.zeros(d))
        a, b = model.draw((np.random.default_rng(5),), n)
        _, hessians = draws_at(model, a, b, np.zeros((n, d)))
        assert np.all(np.abs(hessians.mean(axis=0) - np.eye(d)) < 0.05)

    def test_response_uses_noise_scale(self):
        model = ClientModel("linear", np.zeros(2), noise_scale=0.0)
        a, b = model.draw((np.random.default_rng(3),), 1000)
        np.testing.assert_allclose(b, a @ model.local_optimum, atol=1e-15)


class TestLogistic:
    def test_gradient_unbiased_at_optimum(self):
        d, n = 3, 100_000
        xstar = np.linspace(0.0, 1.0, d)
        model = ClientModel("logistic", xstar)
        a, b = model.draw(substreams(model, 17), n)
        grads, _ = draws_at(model, a, b, np.tile(xstar, (n, 1)))
        mean = grads.mean(axis=0)
        se = grads.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(mean) <= 3.0 * se)

    def test_hessian_mean_at_zero_is_quarter_identity(self):
        d, n = 3, 100_000
        model = ClientModel("logistic", np.linspace(0, 1, d))
        a, b = model.draw(substreams(model, 23), n)
        _, hessians = draws_at(model, a, b, np.zeros((n, d)))
        mean = hessians.mean(axis=0)
        assert np.all(np.abs(mean - 0.25 * np.eye(d)) < 0.05 * 0.25 + 0.01)

    def test_labels_are_binary(self):
        model = ClientModel("logistic", np.ones(2))
        _, b = model.draw(substreams(model, 1), 500)
        assert set(np.unique(b)) <= {0.0, 1.0}

    def test_sigmoid_within_4_ulp_to_its_edges(self):
        # Against Python floats: the quotient, or exp(z) below -700, where
        # math.exp(-z) would overflow.  exp(-z) does overflow below -709.78;
        # a RuntimeWarning there would fail the test.
        edges = [-745.0, -709.8, 709.8, 745.0]
        z = np.concatenate([np.linspace(-745.0, 745.0, 29801), edges])
        ref = np.array([math.exp(v) if v < -700 else 1.0 / (1.0 + math.exp(-v)) for v in z])
        got = models.sigmoid(z)
        assert np.all(np.abs(got - ref) <= 4 * np.spacing(ref))
        assert [models.sigmoid(v) for v in edges] == list(got[-4:])


class TestSharedSampleDraws:
    def test_gradient_hessian_share_one_sample(self):
        model = ClientModel("linear", np.array([1.0, -1.0]))
        x = np.array([0.2, 0.4])
        g, h = draws_at(model, *model.draw(substreams(model, 9), 1), x[None])
        a, b = model.draw(substreams(model, 9), 1)
        # The kernel's reduction: one stacked matmul dot per row.
        resid = np.matmul(a[None], x[None, :, None])[0, 0, 0] - b[0]
        np.testing.assert_array_equal(h[0], np.outer(a[0], a[0]))
        np.testing.assert_array_equal(g[0], a[0] * resid)

    def test_identical_seed_identical_stream(self):
        model = ClientModel("logistic", np.linspace(0, 1, 4))
        a1, b1 = model.draw(substreams(model, 42), 64)
        a2, b2 = model.draw(substreams(model, 42), 64)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(b1, b2)


def signed_step(kind, a, b, eta, X):
    """eta * a (a'x - b) (linear) or eta * a~ / (1 + exp(-a~'x)) with
    a~ = (1 - 2b) a (logistic), for every client, as the kernels round it."""
    if kind == "logistic":
        a = (1.0 - 2.0 * b)[:, None] * a
        return (eta * a) / (1.0 + np.exp(-np.vecdot(a, X)))[:, None]
    return (eta * a) * (np.vecdot(a, X) - b)[:, None]


def textbook_step(kind, a, b, eta, X):
    """eta * (a (r - b)) with r = a'x (linear) or sigmoid(a'x) (logistic), the
    dot by ``np.einsum``: the gradient step as usually written."""
    r = np.einsum("kd,kd->k", a, X)
    if kind == "logistic":
        r = models.sigmoid(r)
    return eta * (a * (r - b)[:, None])


def affine_reference(X, A, B, weights, etas):
    """Linear rounds of one step each as affine maps around X[0], one round
    at a time: each round's map, then one matvec on z = (x - X[0], 1)."""
    pivot, d = X[0].copy(), X.shape[1]
    z = np.zeros(d + 1)
    z[d] = 1.0
    points = []
    for t, eta in enumerate(etas):
        M = round_map(A[t : t + 1], B[t : t + 1], weights, np.float64(eta), pivot)
        z = np.dot(M, z)
        points.append(z[:d] + pivot)
    return np.tile(points[-1], (len(X), 1)), np.array(points)


def per_round_reference(kind, X, optima, curvatures, A, B, weights, intervals, etas):
    """The rounds as the per-step expression and ``weights @ X`` per round.

    Linear and logistic steps are written in the kernels' form: the dot by
    ``np.vecdot``, logistic covariates signed by 1 - 2b, and the rate folded
    into a scaled copy of the covariates.  Linear rounds that all have one
    step are the kernel's affine maps (``affine_reference``)."""
    if kind == "linear" and set(intervals) == {1}:
        return affine_reference(X, A, B, weights, etas)
    X, points, t = X.copy(), [], 0
    for interval, eta in zip(intervals, etas):
        eta64 = np.float64(eta)
        for _ in range(interval):
            if kind == "quadratic":
                X -= eta64 * (curvatures[:, None] * (X - optima))
                continue
            X -= signed_step(kind, A[t], B[t], eta64, X)
            t += 1
        x_bar = weights @ X
        X[...] = x_bar
        points.append(x_bar)
    return X, np.array(points)


class TestStepKernels:
    """The ``*_rounds`` kernels against the per-step, per-round expression."""

    @staticmethod
    def check(kind, k, intervals, etas, seed, equal_rows=False):
        d = 5
        rng = np.random.default_rng(seed)
        optima = rng.standard_normal((k, d))
        weights = rng.random(k) + 0.5
        weights /= weights.sum()
        if kind == "logistic":
            clients = tuple(ClientModel(kind, optima[0]) for _ in range(k))
        else:
            clients = tuple(ClientModel(kind, o, curvature=1.0 + i) for i, o in enumerate(optima))
        curvatures = np.array([c.curvature for c in clients])
        X = rng.standard_normal((k, d))
        if equal_rows:
            X[...] = X[0]
        points = np.empty((len(intervals), d))
        buffer = SampleBuffer(clients, seed, 0)
        buffer.take(5)
        A, B = buffer.take(sum(intervals))
        expected_X, expected = per_round_reference(
            kind, X, optima, curvatures, A, B, weights, intervals, etas
        )
        rounds_kernel, _ = models.KERNELS[kind]
        rounds_kernel(X, A, B, weights, intervals, etas, points)
        np.testing.assert_array_equal(points, expected)
        np.testing.assert_array_equal(X, expected_X)

    @pytest.mark.parametrize("k", [1, 3, 10])
    @pytest.mark.parametrize("steps", [1, 7, 300])
    @pytest.mark.parametrize("kind", ["linear", "logistic", "quadratic"])
    def test_kernel_equals_per_step_expression(self, kind, steps, k):
        """One round of ``steps`` local steps and its average, in place, bit for
        bit as the per-step expression run on the same take of a sample buffer.
        A linear round of one step starts from equal rows, as a synchronization
        leaves them, and runs as its affine map."""
        equal_rows = kind == "linear" and steps == 1
        self.check(kind, k, [steps], [0.05], seed=100 * steps + k, equal_rows=equal_rows)

    @pytest.mark.parametrize("k", [1, 3, 10])
    @pytest.mark.parametrize("kind", ["linear", "logistic", "quadratic"])
    def test_several_rounds_in_one_call(self, kind, k):
        """Rounds of unequal lengths and rates in one call, each averaged."""
        intervals = [1, 1, 3, 1, 7, 2, 1, 12, 1]
        etas = [0.05, 0.04, 0.03, 0.05, 0.01, 0.02, 0.06, 0.005, 0.03]
        self.check(kind, k, intervals, etas, seed=k)

    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_linear_one_step_rounds_as_affine_maps(self, k):
        """300 one-step linear rounds of unequal rates in one call, bit for bit
        as one map and one matvec per round."""
        etas = list(0.3 / np.arange(1, 301) ** 0.6)
        self.check("linear", k, [1] * 300, etas, seed=7 + k, equal_rows=True)

    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_one_longer_round_runs_the_step_loop(self, k):
        """One-step rounds around a round of three steps run the per-step
        expression, bit for bit, from equal rows as the map form would."""
        intervals = [1] * 20 + [3] + [1] * 20
        etas = list(np.linspace(0.08, 0.02, len(intervals)))
        self.check("linear", k, intervals, etas, seed=20 + k, equal_rows=True)

    def test_one_step_rounds_need_equal_rows(self):
        k, d = 3, 4
        clients = tuple(ClientModel("linear", np.zeros(d)) for _ in range(k))
        buffer = SampleBuffer(clients, k, 0)
        A, B = buffer.take(2)
        X = np.zeros((k, d))
        X[1, 2] = 1e-300
        with pytest.raises(ValueError, match="equal rows"):
            models.linear_rounds(X, A, B, np.full(k, 1 / k), [1, 1], [0.1, 0.1], np.empty((2, d)))


class TestTextbookStep:
    """The kernels against the gradient step as usually written, and where the
    signed logistic form is more accurate than it."""

    @pytest.mark.parametrize("k", [1, 3, 10])
    @pytest.mark.parametrize("kind", ["linear", "logistic"])
    def test_kernel_near_textbook_step(self, kind, k):
        """300 steps from a buffer take, in rounds of unequal lengths and
        rates, within 1e-13 max(1, ||x||_inf) of the textbook step.  Unlike the
        exact tests above, this catches an error in the kernels' own algebra,
        such as a wrong sign in 1 - 2b."""
        d = 5
        rng = np.random.default_rng(40 + k)
        optimum = rng.standard_normal(d)
        weights = rng.random(k) + 0.5
        weights /= weights.sum()
        clients = tuple(ClientModel(kind, optimum) for _ in range(k))
        buffer = SampleBuffer(clients, k, 0)
        buffer.take(3)
        intervals, etas = [100, 1, 50, 149], [0.05, 0.1, 0.02, 0.03]
        A, B = buffer.take(sum(intervals))
        X = rng.standard_normal((k, d))
        reference, expected, t = X.copy(), [], 0
        for interval, eta in zip(intervals, etas):
            for _ in range(interval):
                reference -= textbook_step(kind, A[t], B[t], eta, reference)
                t += 1
            reference[...] = weights @ reference
            expected.append(reference[0].copy())
        kernel = models.logistic_rounds if kind == "logistic" else models.linear_rounds
        points = np.empty((len(intervals), d))
        kernel(X, A, B, weights, intervals, etas, points)
        scale = max(1.0, np.abs(expected).max())
        np.testing.assert_allclose(points, expected, rtol=0, atol=1e-13 * scale)

    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_one_step_rounds_near_textbook_step(self, k):
        """300 one-step linear rounds of unequal rates in one call, run as
        affine maps, within 1e-13 max(1, ||x||_inf) of the textbook step and
        the weighted average.  The exact tests share the maps' algebra; this
        one catches a wrong sign in h_m or a dropped sum of the weights.  The
        weights sum to 0.999, and the kernel uses them as given."""
        d = 5
        rng = np.random.default_rng(70 + k)
        optima = rng.standard_normal((k, d))
        weights = rng.random(k) + 0.5
        weights *= 0.999 / weights.sum()
        clients = tuple(ClientModel("linear", o) for o in optima)
        buffer = SampleBuffer(clients, k, 0)
        buffer.take(3)
        rounds = 300
        etas = list(0.4 / np.arange(1, rounds + 1) ** 0.6)
        A, B = buffer.take(rounds)
        X = np.tile(rng.standard_normal(d), (k, 1))
        reference, expected = X.copy(), []
        for t, eta in enumerate(etas):
            reference -= textbook_step("linear", A[t], B[t], eta, reference)
            reference[...] = weights @ reference
            expected.append(reference[0].copy())
        points = np.empty((rounds, d))
        models.linear_rounds(X, A, B, weights, [1] * rounds, etas, points)
        scale = max(1.0, np.abs(expected).max())
        np.testing.assert_allclose(points, expected, rtol=0, atol=1e-13 * scale)
        np.testing.assert_array_equal(X, np.tile(points[-1], (k, 1)))

    def test_large_margin_label_one_step(self):
        """b = 1 at a'x = 40: the step is eta a sigmoid(-40), about 4.2e-18 eta a,
        where sigmoid(40) - 1 rounds to 0 and would not move x."""
        eta = 0.5
        X = np.array([[20.0, 0.0]])
        A = np.array([[[2.0, 1.0]]])
        points = np.empty((1, 2))
        models.logistic_rounds(X, A, np.ones((1, 1)), ONE, [1], [eta], points)
        moved = eta * 1.0 / (1.0 + math.exp(40.0))
        assert points[0, 0] == 20.0  # 20 + 4.2e-18 rounds to 20
        assert abs(points[0, 1] / moved - 1.0) < 1e-15
        np.testing.assert_array_equal(X, points)

    @pytest.mark.parametrize("label", [0.0, 1.0])
    def test_overflowing_margin_leaves_x_unchanged(self, label):
        """a~'x = -800: exp(800) overflows, without a warning, and the step
        eta a~ / inf is 0, as the exact step of about 1e-348 rounds."""
        start = np.array([[-400.0 * (1.0 - 2.0 * label), 3.0]])
        X = start.copy()
        A = np.array([[[2.0, 0.0]]])
        points = np.empty((1, 2))
        models.logistic_rounds(X, A, np.full((1, 1), label), ONE, [1], [0.5], points)
        np.testing.assert_array_equal(X, start)
        np.testing.assert_array_equal(points, start)


class TestGradientHessianConsistency:
    """Finite differences of the mean gradient match the mean Hessian."""

    @pytest.mark.parametrize("kind", ["linear", "quadratic"])
    def test_finite_difference(self, kind):
        d = 3
        optimum = np.array([0.5, -0.25, 1.0])
        if kind == "linear":
            mean_grad = lambda x: x - optimum
            mean_hess = np.eye(d)
        else:
            curv = 2.0
            mean_grad = lambda x: curv * (x - optimum)
            mean_hess = curv * np.eye(d)
        x = np.array([0.1, 0.2, -0.3])
        step = 1e-5
        for i in range(d):
            e_i = np.zeros(d)
            e_i[i] = step
            column = (mean_grad(x + e_i) - mean_grad(x - e_i)) / (2 * step)
            np.testing.assert_allclose(column, mean_hess[:, i], atol=1e-4)


class TestClientModelInputs:
    @pytest.mark.parametrize("noise", [-1.0, math.nan, math.inf])
    def test_noise_scale_must_be_nonnegative_and_finite(self, noise):
        with pytest.raises(ValueError, match="noise_scale"):
            ClientModel("linear", np.zeros(2), noise_scale=noise)

    @pytest.mark.parametrize(
        "args, kwargs, message",
        [
            (("cubic", np.zeros(2)), {}, "unknown model kind 'cubic'"),
            (("linear", np.zeros(0)), {}, "local_optimum must be a nonempty vector"),
            (("linear", np.zeros((2, 2))), {}, "local_optimum must be a nonempty vector"),
            (("quadratic", np.zeros(2)), {"curvature": 0.0}, "curvature must be positive"),
            (("quadratic", np.zeros(2)), {"curvature": -1.0}, "curvature must be positive"),
        ],
        ids=["kind", "empty", "matrix", "curvature-zero", "curvature-negative"],
    )
    def test_bad_client_rejected(self, args, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ClientModel(*args, **kwargs)


class TestFederation:
    def test_weights_must_sum_to_one(self):
        clients = [ClientModel("linear", np.zeros(2)) for _ in range(2)]
        with pytest.raises(ValueError):
            Federation(clients=tuple(clients), weights=np.array([0.6, 0.6]))

    def test_weights_off_one_beyond_roundoff_rejected(self):
        # Accepted under a 1e-12 bound, these weights let a noiseless run of
        # two quadratic clients settle 3.2e-11 off x*.
        clients = [ClientModel("quadratic", np.full(2, c)) for c in (1.0, 3.0)]
        with pytest.raises(ValueError, match="normalize"):
            Federation(clients, weights=[0.5, 0.5 + 9e-13])

    def test_equal_weights_accepted(self):
        for k in range(1, 65):
            clients = [ClientModel("linear", np.zeros(2)) for _ in range(k)]
            assert Federation(clients, weights=np.full(k, 1.0 / k)).size == k

    @pytest.mark.parametrize(
        "weights",
        [[0.25, 0.75], [0.1, 0.2, 0.3, 0.4], [0.5, 0.3, 0.2], [0.25] * 4, [0.7, 0.1, 0.1, 0.1]],
    )
    def test_weight_vectors_of_the_suite_accepted(self, weights):
        clients = [ClientModel("linear", np.zeros(2)) for _ in weights]
        np.testing.assert_array_equal(Federation(clients, weights=weights).weights, weights)

    def test_linear_global_optimum_is_weighted_average(self):
        clients = [
            ClientModel("linear", np.array([1.0, 0.0])),
            ClientModel("linear", np.array([0.0, 2.0])),
        ]
        fed = Federation(clients, weights=[0.25, 0.75])
        np.testing.assert_allclose(fed.global_optimum, [0.25, 1.5])

    def test_logistic_clients_must_agree(self):
        clients = [
            ClientModel("logistic", np.zeros(2)),
            ClientModel("logistic", np.ones(2)),
        ]
        with pytest.raises(ValueError):
            Federation(clients)

    def test_mixed_kinds_rejected(self):
        clients = [ClientModel("linear", np.zeros(2)), ClientModel("quadratic", np.zeros(2))]
        with pytest.raises(ValueError, match="all clients must share one model kind"):
            Federation(clients)

    @pytest.mark.parametrize(
        "dimensions, weights, message",
        [
            ((), [], "federation needs at least one client"),
            ((), None, "federation needs at least one client"),
            ((2, 3), [0.5, 0.5], "all clients must share one dimension"),
            ((2, 3), None, "all clients must share one dimension"),
            ((2, 2), [1.0], "weights must be positive, one per client"),
            ((2, 2), [0.5, 0.25, 0.25], "weights must be positive, one per client"),
            ((2, 2), [[0.5, 0.5]], "weights must be positive, one per client"),
            ((2, 2), [1.5, -0.5], "weights must be positive, one per client"),
            ((2, 2), [1.0, 0.0], "weights must be positive, one per client"),
        ],
        ids=["no-clients", "no-clients-default-weights", "dimensions", "dimensions-default-weights",
             "short", "long", "matrix", "negative", "zero"],
    )
    def test_bad_federation_rejected(self, dimensions, weights, message):
        clients = tuple(ClientModel("linear", np.zeros(d)) for d in dimensions)
        with pytest.raises(ValueError, match=message):
            Federation(clients, weights)

    def test_logistic_clients_of_mixed_dimension_rejected_before_their_optima(self):
        clients = [ClientModel("logistic", np.zeros(2)), ClientModel("logistic", np.zeros(3))]
        with pytest.raises(ValueError, match="^all clients must share one dimension$"):
            Federation(clients)

    def test_global_optimum_is_derived_not_given(self):
        clients = [ClientModel("logistic", np.zeros(2)), ClientModel("logistic", np.zeros(2))]
        with pytest.raises(TypeError, match="global_optimum"):
            Federation(clients, global_optimum=np.array([7.0, 7.0]))
        np.testing.assert_array_equal(Federation(clients).global_optimum, np.zeros(2))

    def test_clients_stored_as_a_tuple_with_equal_default_weights(self):
        clients = [ClientModel("linear", np.full(2, c)) for c in (1.0, 2.0, 4.0)]
        fed = Federation(clients)
        assert fed.clients == tuple(clients)
        np.testing.assert_array_equal(fed.weights, np.full(3, 1.0 / 3))
        optima = np.stack([c.local_optimum for c in clients])
        np.testing.assert_array_equal(fed.global_optimum, fed.weights @ optima)

    def test_clients_and_federations_compare_by_identity(self):
        # Array fields give no single truth value, so == is identity: equal
        # but distinct clients and federations compare unequal, and hash.
        a, b = ClientModel("linear", np.zeros(2)), ClientModel("linear", np.zeros(2))
        assert a == a and a != b and not a == b
        assert len({a, b, a}) == 2
        f, g = Federation([a, b]), Federation([a, b])
        assert f == f and f != g and not f == g
        assert len({f, g, f}) == 2

    def test_quadratic_global_optimum_is_curvature_weighted(self):
        clients = [
            ClientModel("quadratic", np.array([1.0, 0.0]), curvature=3.0),
            ClientModel("quadratic", np.array([0.0, 2.0]), curvature=1.0),
        ]
        fed = Federation(clients, weights=[0.5, 0.5])
        np.testing.assert_allclose(fed.global_optimum, [0.75, 0.5])


class TestTrueSandwich:
    def test_equal_weight_homogeneous_pool(self):
        xstar = np.array([1.0, -2.0, 0.0])
        clients = [ClientModel("linear", xstar) for _ in range(10)]
        g, s, cov = true_sandwich(Federation(clients))
        np.testing.assert_allclose(g, np.eye(3))
        np.testing.assert_allclose(s, np.eye(3) / 10.0)
        np.testing.assert_allclose(cov, np.eye(3) / 10.0)

    def test_single_client(self):
        fed = Federation([ClientModel("linear", np.zeros(2), noise_scale=1.5)])
        _, _, cov = true_sandwich(fed)
        np.testing.assert_allclose(cov, 1.5**2 * np.eye(2))

    def test_quadratic_noiseless(self):
        fed = Federation([ClientModel("quadratic", np.ones(2), curvature=2.0)])
        g, s, cov = true_sandwich(fed)
        np.testing.assert_allclose(g, 2.0 * np.eye(2))
        np.testing.assert_array_equal(s, np.zeros((2, 2)))
        np.testing.assert_array_equal(cov, np.zeros((2, 2)))

    def test_logistic_has_no_closed_form(self):
        fed = Federation([ClientModel("logistic", np.zeros(2))])
        with pytest.raises(ValueError):
            true_sandwich(fed)

    def test_heterogeneous_formula_against_monte_carlo(self):
        # Gradient-noise covariance at the global optimum, estimated from
        # 200k draws, against the closed form used for acceptance checks.
        rng = np.random.default_rng(3)
        optima = rng.standard_normal((3, 2))
        clients = [ClientModel("linear", o) for o in optima]
        fed = Federation(clients)
        _, s_closed, _ = true_sandwich(fed)
        n = 200_000
        agg = np.zeros((n, 2))
        for client, p in zip(fed.clients, fed.weights):
            a, b = client.draw((rng,), n)
            grads, _ = draws_at(client, a, b, np.tile(fed.global_optimum, (n, 1)))
            agg += p * (grads - grads.mean(axis=0))
        s_mc = agg.T @ agg / n
        np.testing.assert_allclose(s_mc, s_closed, rtol=0.05, atol=0.02)
