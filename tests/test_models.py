import numpy as np
import pytest

from fedstat import models
from fedstat.models import ClientModel, federation_of, true_sandwich


def rng_pair(seed=0):
    return np.random.default_rng(seed), np.random.default_rng(seed)


class TestQuadratic:
    def test_gradient_is_exact(self):
        model = ClientModel("quadratic", np.zeros(3))
        x = np.array([1.0, -2.0, 0.5])
        grad = model.sample_gradient(x, np.random.default_rng(0))
        np.testing.assert_array_equal(grad, x)

    def test_hessian_is_curvature_times_identity(self):
        model = ClientModel("quadratic", np.zeros(2), curvature=3.0)
        hess = model.sample_hessian(np.ones(2), np.random.default_rng(0))
        np.testing.assert_array_equal(hess, 3.0 * np.eye(2))

    def test_zero_gradient_noise(self):
        model = ClientModel("quadratic", np.array([1.0, 2.0]))
        x = np.array([0.3, -0.7])
        grads = [model.sample_gradient(x, np.random.default_rng(s)) for s in range(5)]
        for g in grads[1:]:
            np.testing.assert_array_equal(g, grads[0])


class TestLinear:
    def test_gradient_unbiased_at_local_optimum(self):
        d, n = 4, 100_000
        model = ClientModel("linear", np.array([0.5, -1.0, 2.0, 0.0]))
        rng = np.random.default_rng(11)
        a, b = model.draw(rng, n)
        grads = models.linear_gradients(a, b, np.tile(model.local_optimum, (n, 1)))
        mean = grads.mean(axis=0)
        se = grads.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(mean) <= 3.0 * se)

    def test_hessian_mean_is_identity(self):
        d, n = 3, 100_000
        model = ClientModel("linear", np.zeros(d))
        a, _ = model.draw(np.random.default_rng(5), n)
        mean = models.linear_hessians(a).mean(axis=0)
        assert np.all(np.abs(mean - np.eye(d)) < 0.05)

    def test_response_uses_noise_scale(self):
        model = ClientModel("linear", np.zeros(2), noise_scale=0.0)
        a, b = model.draw(np.random.default_rng(3), 1000)
        np.testing.assert_allclose(b, a @ model.local_optimum, atol=1e-15)

    def test_rejects_nonfinite_point(self):
        model = ClientModel("linear", np.zeros(2))
        with pytest.raises(ValueError):
            model.sample_gradient(np.array([np.nan, 0.0]), np.random.default_rng(0))


class TestLogistic:
    def test_gradient_unbiased_at_optimum(self):
        d, n = 3, 100_000
        xstar = np.linspace(0.0, 1.0, d)
        model = ClientModel("logistic", xstar)
        a, b = model.draw(np.random.default_rng(17), n)
        grads = models.logistic_gradients(a, b, np.tile(xstar, (n, 1)))
        mean = grads.mean(axis=0)
        se = grads.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(mean) <= 3.0 * se)

    def test_hessian_mean_at_zero_is_quarter_identity(self):
        d, n = 3, 100_000
        model = ClientModel("logistic", np.linspace(0, 1, d))
        a, _ = model.draw(np.random.default_rng(23), n)
        mean = models.logistic_hessians(a, np.zeros((n, d))).mean(axis=0)
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
        g, h = model.sample_gradient_hessian(x, r1)
        a, b = model.draw(r2, 1)
        np.testing.assert_array_equal(h, np.outer(a[0], a[0]))
        np.testing.assert_array_equal(g, a[0] * (a[0] @ x - b[0]))

    def test_identical_seed_identical_stream(self):
        model = ClientModel("logistic", np.linspace(0, 1, 4))
        r1, r2 = rng_pair(42)
        a1, b1 = model.draw(r1, 64)
        a2, b2 = model.draw(r2, 64)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(b1, b2)


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
            grads = models.linear_gradients(a, b, np.tile(fed.global_optimum, (n, 1)))
            agg += p * (grads - grads.mean(axis=0))
        s_mc = agg.T @ agg / n
        np.testing.assert_allclose(s_mc, s_closed, rtol=0.05, atol=0.02)
