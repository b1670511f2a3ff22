import numpy as np
import pytest

from fedstat import models
from fedstat.engine import SampleBuffer
from fedstat.models import ClientModel, federation_of, true_sandwich

ONE = np.ones(1)  # the weights of a single client


def rng_pair(seed=0):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def draws_at(model, a, b, X):
    """Gradient and Hessian draws of one client of weight 1, one row per sample."""
    kernel = models.linear_draws if model.kind == "linear" else models.logistic_draws
    return kernel(ONE, a[None], b[None], X)


def quadratic_draws_at(model, X):
    centers = model.local_optimum[None]
    return models.quadratic_draws(ONE, centers, np.array([model.curvature]), X)


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
        a, b = model.draw(rng, 5)
        assert a.shape == (5, 0) and b.shape == (5,)
        assert rng.bit_generator.state == state
        grads, _ = quadratic_draws_at(model, np.tile(x, (5, 1)))
        for g in grads[1:]:
            np.testing.assert_array_equal(g, grads[0])


class TestLinear:
    def test_gradient_unbiased_at_local_optimum(self):
        d, n = 4, 100_000
        model = ClientModel("linear", np.array([0.5, -1.0, 2.0, 0.0]))
        rng = np.random.default_rng(11)
        a, b = model.draw(rng, n)
        grads, _ = draws_at(model, a, b, np.tile(model.local_optimum, (n, 1)))
        mean = grads.mean(axis=0)
        se = grads.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(mean) <= 3.0 * se)

    def test_hessian_mean_is_identity(self):
        d, n = 3, 100_000
        model = ClientModel("linear", np.zeros(d))
        a, b = model.draw(np.random.default_rng(5), n)
        _, hessians = draws_at(model, a, b, np.zeros((n, d)))
        assert np.all(np.abs(hessians.mean(axis=0) - np.eye(d)) < 0.05)

    def test_response_uses_noise_scale(self):
        model = ClientModel("linear", np.zeros(2), noise_scale=0.0)
        a, b = model.draw(np.random.default_rng(3), 1000)
        np.testing.assert_allclose(b, a @ model.local_optimum, atol=1e-15)


class TestLogistic:
    def test_gradient_unbiased_at_optimum(self):
        d, n = 3, 100_000
        xstar = np.linspace(0.0, 1.0, d)
        model = ClientModel("logistic", xstar)
        a, b = model.draw(np.random.default_rng(17), n)
        grads, _ = draws_at(model, a, b, np.tile(xstar, (n, 1)))
        mean = grads.mean(axis=0)
        se = grads.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(mean) <= 3.0 * se)

    def test_hessian_mean_at_zero_is_quarter_identity(self):
        d, n = 3, 100_000
        model = ClientModel("logistic", np.linspace(0, 1, d))
        a, b = model.draw(np.random.default_rng(23), n)
        _, hessians = draws_at(model, a, b, np.zeros((n, d)))
        mean = hessians.mean(axis=0)
        assert np.all(np.abs(mean - 0.25 * np.eye(d)) < 0.05 * 0.25 + 0.01)

    def test_labels_are_binary(self):
        model = ClientModel("logistic", np.ones(2))
        _, b = model.draw(np.random.default_rng(1), 500)
        assert set(np.unique(b)) <= {0.0, 1.0}


class TestSharedSampleDraws:
    def test_gradient_hessian_share_one_sample(self):
        model = ClientModel("linear", np.array([1.0, -1.0]))
        x = np.array([0.2, 0.4])
        r1, r2 = rng_pair(9)
        g, h = draws_at(model, *model.draw(r1, 1), x[None])
        a, b = model.draw(r2, 1)
        # The kernel's reduction: one stacked matmul dot per row.
        resid = np.matmul(a[None], x[None, :, None])[0, 0, 0] - b[0]
        np.testing.assert_array_equal(h[0], np.outer(a[0], a[0]))
        np.testing.assert_array_equal(g[0], a[0] * resid)

    def test_identical_seed_identical_stream(self):
        model = ClientModel("logistic", np.linspace(0, 1, 4))
        r1, r2 = rng_pair(42)
        a1, b1 = model.draw(r1, 64)
        a2, b2 = model.draw(r2, 64)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(b1, b2)


class TestStepKernels:
    @pytest.mark.parametrize("k", [1, 3, 10])
    @pytest.mark.parametrize("steps", [1, 7, 300])
    @pytest.mark.parametrize("kind", ["linear", "logistic", "quadratic"])
    def test_kernel_equals_per_step_expression(self, kind, steps, k):
        """One round's local steps, in place, bit for bit as the per-step
        expression run on the same (K, E, d) take of a sample buffer."""
        d, eta = 5, 0.05
        rng = np.random.default_rng(100 * steps + k)
        optima = rng.standard_normal((k, d))
        if kind == "logistic":
            clients = tuple(ClientModel(kind, optima[0]) for _ in range(k))
        else:
            clients = tuple(ClientModel(kind, o, curvature=1.0 + i) for i, o in enumerate(optima))
        X = rng.standard_normal((k, d))
        expected = X.copy()
        eta64 = np.float64(eta)
        if kind == "quadratic":
            curvatures = np.array([c.curvature for c in clients])
            models.quadratic_steps(X, optima, curvatures, eta, steps)
            for _ in range(steps):
                expected -= eta64 * (curvatures[:, None] * (expected - optima))
        else:
            buffer = SampleBuffer(clients, [np.random.default_rng(s) for s in range(k)])
            buffer.take(5)
            A, B = buffer.take(steps)
            kernel = models.logistic_steps if kind == "logistic" else models.linear_steps
            kernel(X, A, B, eta)
            for t in range(steps):
                a_t = A[:, t, :]
                if kind == "logistic":
                    p = models.sigmoid(np.einsum("kd,kd->k", a_t, expected))
                    expected -= eta64 * (a_t * (p - B[:, t])[:, None])
                else:
                    resid = np.einsum("kd,kd->k", a_t, expected) - B[:, t]
                    expected -= eta64 * (a_t * resid[:, None])
        np.testing.assert_array_equal(X, expected)


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


class TestFederation:
    def test_weights_must_sum_to_one(self):
        clients = [ClientModel("linear", np.zeros(2)) for _ in range(2)]
        with pytest.raises(ValueError):
            models.Federation(
                clients=tuple(clients), weights=np.array([0.6, 0.6]), global_optimum=np.zeros(2)
            )

    def test_weights_off_one_beyond_roundoff_rejected(self):
        # Accepted under a 1e-12 bound, these weights let a noiseless run of
        # two quadratic clients settle 3.2e-11 off x*.
        clients = [ClientModel("quadratic", np.full(2, c)) for c in (1.0, 3.0)]
        with pytest.raises(ValueError, match="normalize"):
            federation_of(clients, weights=[0.5, 0.5 + 9e-13])

    def test_equal_weights_accepted(self):
        for k in range(1, 65):
            clients = [ClientModel("linear", np.zeros(2)) for _ in range(k)]
            assert federation_of(clients, weights=np.full(k, 1.0 / k)).size == k

    @pytest.mark.parametrize(
        "weights",
        [[0.25, 0.75], [0.1, 0.2, 0.3, 0.4], [0.5, 0.3, 0.2], [0.25] * 4, [0.7, 0.1, 0.1, 0.1]],
    )
    def test_weight_vectors_of_the_suite_accepted(self, weights):
        clients = [ClientModel("linear", np.zeros(2)) for _ in weights]
        np.testing.assert_array_equal(federation_of(clients, weights=weights).weights, weights)

    def test_linear_global_optimum_is_weighted_average(self):
        clients = [
            ClientModel("linear", np.array([1.0, 0.0])),
            ClientModel("linear", np.array([0.0, 2.0])),
        ]
        fed = federation_of(clients, weights=[0.25, 0.75])
        np.testing.assert_allclose(fed.global_optimum, [0.25, 1.5])

    def test_logistic_clients_must_agree(self):
        clients = [
            ClientModel("logistic", np.zeros(2)),
            ClientModel("logistic", np.ones(2)),
        ]
        with pytest.raises(ValueError):
            federation_of(clients)

    def test_mixed_kinds_rejected(self):
        clients = [ClientModel("linear", np.zeros(2)), ClientModel("quadratic", np.zeros(2))]
        with pytest.raises(ValueError):
            federation_of(clients)


class TestTrueSandwich:
    def test_equal_weight_homogeneous_pool(self):
        xstar = np.array([1.0, -2.0, 0.0])
        clients = [ClientModel("linear", xstar) for _ in range(10)]
        g, s, cov = true_sandwich(federation_of(clients))
        np.testing.assert_allclose(g, np.eye(3))
        np.testing.assert_allclose(s, np.eye(3) / 10.0)
        np.testing.assert_allclose(cov, np.eye(3) / 10.0)

    def test_single_client(self):
        fed = federation_of([ClientModel("linear", np.zeros(2), noise_scale=1.5)])
        _, _, cov = true_sandwich(fed)
        np.testing.assert_allclose(cov, 1.5**2 * np.eye(2))

    def test_quadratic_noiseless(self):
        fed = federation_of([ClientModel("quadratic", np.ones(2), curvature=2.0)])
        g, s, cov = true_sandwich(fed)
        np.testing.assert_allclose(g, 2.0 * np.eye(2))
        np.testing.assert_array_equal(s, np.zeros((2, 2)))
        np.testing.assert_array_equal(cov, np.zeros((2, 2)))

    def test_logistic_has_no_closed_form(self):
        fed = federation_of([ClientModel("logistic", np.zeros(2))])
        with pytest.raises(ValueError):
            true_sandwich(fed)

    def test_heterogeneous_formula_against_monte_carlo(self):
        # Gradient-noise covariance at the global optimum, estimated from
        # 200k draws, against the closed form used for acceptance checks.
        rng = np.random.default_rng(3)
        optima = rng.standard_normal((3, 2))
        clients = [ClientModel("linear", o) for o in optima]
        fed = federation_of(clients)
        _, s_closed, _ = true_sandwich(fed)
        n = 200_000
        agg = np.zeros((n, 2))
        for client, p in zip(fed.clients, fed.weights):
            a, b = client.draw(rng, n)
            grads, _ = draws_at(client, a, b, np.tile(fed.global_optimum, (n, 1)))
            agg += p * (grads - grads.mean(axis=0))
        s_mc = agg.T @ agg / n
        np.testing.assert_allclose(s_mc, s_closed, rtol=0.05, atol=0.02)
