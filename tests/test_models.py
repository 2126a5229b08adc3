import math
import re
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from biasaudit import models
from biasaudit.advi import FitConfig
from biasaudit.errors import EstimationError, QuadratureError
from biasaudit.gaussmath import (SpdMatrix, grid_quadrature_2d, mvn_logpdf,
                                 normal_logpdf)
from biasaudit.models import (CausalModelSpec, CodeLength, ConfoundedModelSpec,
                              JointVector, causal_code_length,
                              causal_evidence_closed_form, causal_log_joint,
                              code_length_X, confounded_code_length,
                              confounded_evidence_k1,
                              confounded_evidence_quadrature,
                              confounded_log_joint, make_causal_target,
                              make_collapsed_target,
                              make_confounded_target, ppca_evidence_fixed_W)
from biasaudit.seeding import derive_seed

from conftest import LOG_2PI, quick_fit_config

SPEC = CausalModelSpec()
CSPEC = ConfoundedModelSpec()


def quadrature_1d(log_f, half_width=10.0, nodes=400):
    """log of the integral of exp(log_f) over one real variable."""
    x, w = leggauss(nodes)
    x = x * half_width
    w = w * half_width
    values = np.array([log_f(v) for v in x])
    shift = values.max()
    return shift + np.log(np.sum(w * np.exp(values - shift)))


class TestCausalLogJoint:
    def test_value_at_zero_weights(self, rng):
        X = rng.standard_normal((7, 2))
        y = np.zeros(7)
        value, _ = causal_log_joint(np.zeros(2), X, y, SPEC)
        want = 2 * float(normal_logpdf(0.0, 1.0)) + 7 * float(normal_logpdf(0.0, 1.0))
        assert value == pytest.approx(want, abs=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        X = rng.standard_normal((15, 3))
        y = rng.standard_normal(15)
        h = 1e-4
        for _ in range(10):
            w = rng.standard_normal(3)
            _, grad = causal_log_joint(w, X, y, SPEC)
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                up, _ = causal_log_joint(w + e, X, y, SPEC)
                dn, _ = causal_log_joint(w - e, X, y, SPEC)
                fd = (up - dn) / (2 * h)
                assert abs(grad[j] - fd) / max(abs(fd), 1e-8) < 1e-6

    def test_flat_likelihood_leaves_prior_gradient(self, rng):
        X = rng.standard_normal((10, 3))
        y = rng.standard_normal(10)
        w = rng.standard_normal(3)
        spec = CausalModelSpec(sigma_y=1e8)
        _, grad = causal_log_joint(w, X, y, spec)
        np.testing.assert_allclose(grad, -w / SPEC.sigma_w ** 2, atol=1e-8)


class TestCausalEvidence:
    def test_zero_design_single_row(self):
        got = causal_evidence_closed_form(np.zeros((1, 1)), np.zeros(1), SPEC)
        assert got == pytest.approx(-0.9189385, abs=1e-6)

    def test_unit_design_single_row(self):
        got = causal_evidence_closed_form(np.ones((1, 1)), np.zeros(1), SPEC)
        assert got == pytest.approx(-1.2655121, abs=1e-6)

    def test_matches_1d_quadrature(self, rng):
        X = rng.standard_normal((2, 1))
        y = rng.standard_normal(2)
        closed = causal_evidence_closed_form(X, y, SPEC)

        def log_f(w):
            resid = y - X[:, 0] * w
            return (float(np.sum(normal_logpdf(resid, SPEC.sigma_y)))
                    + float(normal_logpdf(w, SPEC.sigma_w)))

        assert closed == pytest.approx(quadrature_1d(log_f), abs=1e-6)

    def test_row_permutation_invariant(self, rng):
        X = rng.standard_normal((9, 2))
        y = rng.standard_normal(9)
        base = causal_evidence_closed_form(X, y, SPEC)
        perm = rng.permutation(9)
        assert causal_evidence_closed_form(X[perm], y[perm], SPEC) == pytest.approx(
            base, abs=1e-9)


class TestCodeLengthX:
    def test_all_zero_matrix(self):
        got = code_length_X(np.zeros((2, 2)), 1.0)
        assert got == pytest.approx(4 * 0.9189385, abs=1e-6)

    def test_additive_in_rows(self, rng):
        X = rng.standard_normal((5, 3))
        doubled = np.vstack([X, X])
        assert code_length_X(doubled, 1.0) == pytest.approx(
            2 * code_length_X(X, 1.0), abs=1e-9)

    def test_standardized_matrix_expectation(self, rng):
        raw = rng.standard_normal((200, 4)) * 3.1 + 0.7
        std = (raw - raw.mean(axis=0)) / raw.std(axis=0)
        got = code_length_X(std, 1.0)
        want = 200 * 4 * (0.5 * LOG_2PI + 0.5)
        assert abs(got - want) / want < 0.05

    def test_tiny_sd_overflows_to_inf_without_a_warning(self):
        # the test configuration turns a RuntimeWarning into an error
        assert code_length_X(np.ones((2, 2)), 1e-200) == math.inf


@pytest.mark.parametrize("spec, name", [
    (CausalModelSpec, "sigma_w"), (CausalModelSpec, "sigma_y"),
    (ConfoundedModelSpec, "sigma_z"), (ConfoundedModelSpec, "sigma_w"),
    (ConfoundedModelSpec, "sigma_obs")])
def test_a_scale_whose_square_overflows_is_refused(spec, name):
    spec(**{name: 1e154})  # its square, 1e308, is finite
    with pytest.raises(ValueError, match=f"{name} must have a finite square, got 1e\\+155"):
        spec(**{name: 1e155})


@pytest.mark.parametrize("spec, name", [
    (CausalModelSpec, "sigma_w"), (CausalModelSpec, "sigma_y"),
    (ConfoundedModelSpec, "sigma_w"), (ConfoundedModelSpec, "sigma_obs")])
@pytest.mark.parametrize("value", [1e-160, 1e-170], ids=["subnormal_square", "square_zero"])
def test_a_scale_whose_square_has_no_finite_reciprocal_is_refused(spec, name, value):
    spec(**{name: 1e-154})  # 1 / its square, about 1e308, is finite
    with pytest.raises(ValueError, match=f"^{name} must have a finite 1/{name}\\^2, got {value}$"):
        spec(**{name: value})


@pytest.mark.parametrize("nats, elbo_se, error", [
    (math.inf, 0.0, "advi code length is inf, not finite"),
    (1.0, math.inf, "advi elbo_se is inf, not finite"),
    (1.0, math.nan, "advi elbo_se is nan, not finite")])
def test_code_length_refuses_a_non_finite_value_or_standard_error(nats, elbo_se, error):
    with pytest.raises(EstimationError, match=f"^{re.escape(error)}$"):
        CodeLength(nats, "advi", elbo_se=elbo_se)


def test_sigma_z_is_never_divided_by_so_its_square_may_underflow():
    assert ConfoundedModelSpec(sigma_z=1e-170).sigma_z == 1e-170


def test_sigma_x_is_never_squared_so_any_finite_value_is_accepted():
    assert CausalModelSpec(sigma_x=1e200).sigma_x == 1e200


class TestCausalCodeLength:
    def test_advi_upper_bounds_closed_form(self, rng):
        X = rng.standard_normal((30, 2))
        y = rng.standard_normal(30)
        closed = causal_code_length(X, y, SPEC, method="closed_form")
        advi = causal_code_length(X, y, SPEC, method="advi",
                                  fit_config=quick_fit_config(seed=21))
        assert closed.nats <= advi.nats + 3 * advi.elbo_se

    def test_full_rank_matches_closed_form(self, rng):
        X = rng.standard_normal((50, 3))
        y = rng.standard_normal(50)
        closed = causal_code_length(X, y, SPEC, method="closed_form")
        advi = causal_code_length(X, y, SPEC, method="advi", family="full_rank",
                                  fit_config=quick_fit_config(seed=22))
        assert advi.nats == pytest.approx(closed.nats, abs=0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            causal_code_length(np.zeros((0, 2)), np.zeros(0), SPEC,
                               method="closed_form")

    def test_unknown_method(self, rng):
        with pytest.raises(ValueError):
            causal_code_length(np.zeros((3, 1)), np.zeros(3), SPEC, method="mcmc")


class TestConfoundedLogJoint:
    def test_value_at_zero_latents(self, rng):
        V = JointVector(np.zeros((6, 3)))
        value, _ = confounded_log_joint(
            {"Z": np.zeros((6, 1)), "W": np.zeros((1, 3))}, V, CSPEC)
        want = (6 * 1 + 1 * 3 + 6 * 3) * float(normal_logpdf(0.0, 1.0))
        assert value == pytest.approx(want, abs=1e-10)

    def test_gradients_match_finite_differences(self, rng):
        V = JointVector(rng.standard_normal((6, 3)))
        spec = ConfoundedModelSpec(k=2)
        h = 1e-4
        for _ in range(10):
            Z = rng.standard_normal((6, 2))
            W = rng.standard_normal((2, 3))
            _, grads = confounded_log_joint({"Z": Z, "W": W}, V, spec)
            for arr, key in ((Z, "grad_Z"), (W, "grad_W")):
                flat_idx = np.unravel_index(
                    rng.integers(0, arr.size, size=4), arr.shape)
                for i, j in zip(*flat_idx):
                    up, dn = arr.copy(), arr.copy()
                    up[i, j] += h
                    dn[i, j] -= h
                    if key == "grad_Z":
                        vu, _ = confounded_log_joint({"Z": up, "W": W}, V, spec)
                        vd, _ = confounded_log_joint({"Z": dn, "W": W}, V, spec)
                    else:
                        vu, _ = confounded_log_joint({"Z": Z, "W": up}, V, spec)
                        vd, _ = confounded_log_joint({"Z": Z, "W": dn}, V, spec)
                    fd = (vu - vd) / (2 * h)
                    assert abs(grads[key][i, j] - fd) / max(abs(fd), 1e-8) < 1e-5

    def test_sign_flip_invariance(self, rng):
        V = JointVector(rng.standard_normal((5, 2)))
        Z = rng.standard_normal((5, 1))
        W = rng.standard_normal((1, 2))
        a, _ = confounded_log_joint({"Z": Z, "W": W}, V, CSPEC)
        b, _ = confounded_log_joint({"Z": -Z, "W": -W}, V, CSPEC)
        assert a == pytest.approx(b, abs=1e-10)

    def test_rotation_invariance_k2(self, rng):
        V = JointVector(rng.standard_normal((5, 3)))
        spec = ConfoundedModelSpec(k=2)
        Z = rng.standard_normal((5, 2))
        W = rng.standard_normal((2, 3))
        angle = 0.7
        R = np.array([[np.cos(angle), -np.sin(angle)],
                      [np.sin(angle), np.cos(angle)]])
        a, _ = confounded_log_joint({"Z": Z, "W": W}, V, spec)
        b, _ = confounded_log_joint({"Z": Z @ R, "W": R.T @ W}, V, spec)
        assert a == pytest.approx(b, abs=1e-9)


class TestPpcaEvidence:
    def test_zero_loadings_decouple(self, rng):
        V = JointVector(rng.standard_normal((8, 3)))
        got = ppca_evidence_fixed_W(V, np.zeros((1, 3)), CSPEC)
        want = float(np.sum(normal_logpdf(V.values, CSPEC.sigma_obs)))
        assert got == pytest.approx(want, abs=1e-9)

    def test_matches_per_row_quadrature(self, rng):
        V = JointVector(rng.standard_normal((4, 2)))
        W = rng.standard_normal((1, 2))
        got = ppca_evidence_fixed_W(V, W, CSPEC)
        want = 0.0
        for row in V.values:
            want += quadrature_1d(
                lambda z: (float(np.sum(normal_logpdf(row - z * W[0], 1.0)))
                           + float(normal_logpdf(z, 1.0))))
        assert got == pytest.approx(want, abs=1e-6)

    def test_duplicate_row_adds_its_marginal(self, rng):
        rows = rng.standard_normal((5, 2))
        W = rng.standard_normal((1, 2))
        base = ppca_evidence_fixed_W(JointVector(rows), W, CSPEC)
        extended = ppca_evidence_fixed_W(
            JointVector(np.vstack([rows, rows[-1:]])), W, CSPEC)
        single = ppca_evidence_fixed_W(JointVector(rows[-1:]), W, CSPEC)
        assert extended == pytest.approx(base + single, abs=1e-9)


class TestConfoundedCodeLength:
    def test_bounded_by_quadrature_and_close(self, rng):
        z = rng.standard_normal(10)
        w = np.array([0.8, -0.6])
        V = JointVector(np.outer(z, w) + 0.5 * rng.standard_normal((10, 2)))
        truth = -confounded_evidence_quadrature(V, CSPEC)
        got = confounded_code_length(V, CSPEC,
                                     fit_config=quick_fit_config(seed=23))
        assert got.nats >= truth - 3 * got.elbo_se
        assert abs(got.nats - truth) < 5.0

    def test_duplicated_data_costs_more(self, rng):
        V = JointVector(rng.standard_normal((8, 2)))
        V2 = JointVector(np.vstack([V.values, V.values]))
        a = confounded_code_length(V, CSPEC, fit_config=quick_fit_config(seed=24))
        b = confounded_code_length(V2, CSPEC, fit_config=quick_fit_config(seed=25))
        assert b.nats > a.nats

    def test_zero_latent_dimension_rejected(self):
        with pytest.raises(ValueError, match=r"^k must be >= 1, got 0$"):
            ConfoundedModelSpec(k=0)

    def test_too_few_rows_rejected(self, rng):
        V = JointVector(rng.standard_normal((2, 2)))
        with pytest.raises(ValueError):
            confounded_code_length(V, CSPEC)

    def test_quadrature_needs_m1_k1(self, rng):
        V = JointVector(rng.standard_normal((5, 3)))
        with pytest.raises(ValueError):
            confounded_evidence_quadrature(V, CSPEC)

    @pytest.mark.parametrize("factor", [False, True])
    def test_quadrature_equals_per_point_evaluation(self, rng, factor):
        spec = ConfoundedModelSpec(k=1, sigma_z=0.7, sigma_w=1.3, sigma_obs=0.8)
        data = rng.standard_normal((10, 2))
        if factor:
            data = np.outer(rng.standard_normal(10), [1.2, -0.9]) + 0.5 * data
        V = JointVector(data)
        want = _per_point_quadrature(V, spec, 32)
        assert confounded_evidence_quadrature(V, spec, 32) == pytest.approx(want, abs=1e-10)


def _per_point_quadrature(V: JointVector, spec: ConfoundedModelSpec, nodes_per_axis: int):
    """The quadrature oracle evaluated one loading point at a time."""
    half_width = 8.0 * spec.sigma_w

    def log_integrand(w1, w2):
        W = np.array([[w1, w2]])
        prior = float(np.sum(normal_logpdf(W, spec.sigma_w)))
        return ppca_evidence_fixed_W(V, W, spec) + prior

    coarse = np.linspace(-half_width, half_width, 33)
    shift = max(log_integrand(a, b) for a in coarse for b in coarse)
    vectorized = np.vectorize(lambda a, b: math.exp(log_integrand(a, b) - shift))
    integral = grid_quadrature_2d(vectorized, ((-half_width, half_width),) * 2, nodes_per_axis)
    return shift + math.log(integral)


class TestBatchedTargets:
    def test_causal_target_batch_consistency(self, rng):
        X = rng.standard_normal((12, 3))
        y = rng.standard_normal(12)
        target, d = make_causal_target(X, y, SPEC)
        assert d == 3
        batch = rng.standard_normal((5, 3))
        values, grads = target(batch)
        for s in range(5):
            v, g = causal_log_joint(batch[s], X, y, SPEC)
            assert values[s] == pytest.approx(v)
            np.testing.assert_allclose(grads[s], g)

    def test_confounded_target_batch_consistency(self, rng):
        V = JointVector(rng.standard_normal((4, 2)))
        target, d = make_confounded_target(V, CSPEC)
        assert d == 4 * 1 + 1 * 2
        batch = rng.standard_normal((3, d))
        values, grads = target(batch)
        for s in range(3):
            Z = batch[s, :4].reshape(4, 1)
            W = batch[s, 4:].reshape(1, 2)
            v, g = confounded_log_joint({"Z": Z, "W": W}, V, CSPEC)
            assert values[s] == pytest.approx(v)
            np.testing.assert_allclose(grads[s, :4], g["grad_Z"].ravel())
            np.testing.assert_allclose(grads[s, 4:], g["grad_W"].ravel())


class TestSufficientStatisticTargets:
    """The n-free score path against the row-wise formulas it replaces."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("width", [2, 4])
    def test_collapsed_target_equals_ppca_evidence_plus_prior(self, rng, k, width):
        spec = ConfoundedModelSpec(k=k, sigma_z=0.7, sigma_w=1.3, sigma_obs=0.8)
        V = JointVector(rng.standard_normal((11, width)) @ rng.standard_normal((width, width)))
        target, d = make_collapsed_target(V.values.T @ V.values, V.n, spec)
        assert d == k * width
        batch = rng.standard_normal((6, d))
        values, grads = target(batch)
        assert grads.shape == (6, d)
        for s in range(6):
            W = batch[s].reshape(k, width)
            want = (ppca_evidence_fixed_W(V, W, spec)
                    + float(np.sum(normal_logpdf(W, spec.sigma_w))))
            assert values[s] == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("width", [2, 4])
    def test_collapsed_gradient_matches_finite_differences(self, rng, k, width):
        spec = ConfoundedModelSpec(k=k, sigma_z=0.7, sigma_w=1.3, sigma_obs=0.8)
        V = JointVector(rng.standard_normal((11, width)))
        target, d = make_collapsed_target(V.values.T @ V.values, V.n, spec)
        h = 1e-5
        for _ in range(4):
            theta = rng.standard_normal(d)
            _, grads = target(theta)
            steps = h * np.eye(d)
            fd = (target(theta + steps)[0] - target(theta - steps)[0]) / (2 * h)
            err = np.abs(grads[0] - fd) / np.maximum(np.abs(fd), 1e-8)
            assert np.all(err < 1e-5), err

    def test_causal_target_equals_rowwise_residuals(self, rng):
        spec = CausalModelSpec(sigma_x=1.0, sigma_w=0.6, sigma_y=1.7)
        for n, m in [(40, 3), (1, 1), (25, 5)]:
            X = rng.standard_normal((n, m))
            y = X @ rng.standard_normal(m) + rng.standard_normal(n)
            target, _ = make_causal_target(X, y, spec)
            batch = 2.0 * rng.standard_normal((5, m))
            values, grads = target(batch)
            for s, w in enumerate(batch):
                resid = y - X @ w
                want = (-0.5 * m * math.log(2 * math.pi * spec.sigma_w ** 2)
                        - 0.5 * n * math.log(2 * math.pi * spec.sigma_y ** 2)
                        - 0.5 * np.sum(w ** 2) / spec.sigma_w ** 2
                        - 0.5 * np.sum(resid ** 2) / spec.sigma_y ** 2)
                want_grad = -w / spec.sigma_w ** 2 + X.T @ resid / spec.sigma_y ** 2
                assert values[s] == pytest.approx(want, rel=1e-12)
                np.testing.assert_allclose(grads[s], want_grad, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("n", [1, 9, 300])
    def test_closed_form_equals_n_by_n_gaussian(self, rng, n):
        spec = CausalModelSpec(sigma_x=1.0, sigma_w=0.6, sigma_y=1.7)
        X = rng.standard_normal((n, 3))
        y = X @ np.array([0.5, -1.0, 0.2]) + rng.standard_normal(n)
        cov = SpdMatrix(spec.sigma_w ** 2 * (X @ X.T) + spec.sigma_y ** 2 * np.eye(n))
        want = mvn_logpdf(y, np.zeros(n), cov)
        assert causal_evidence_closed_form(X, y, spec) == pytest.approx(want, rel=1e-12)

    def test_closed_form_builds_no_n_by_n_matrix(self, rng):
        X = rng.standard_normal((4000, 3))
        y = rng.standard_normal(4000)
        tracemalloc.start()
        try:
            causal_evidence_closed_form(X, y, SPEC)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, f"peak {peak / 1e6:.1f} MB"


def _batched_collapsed_target_k1(V: JointVector, spec: ConfoundedModelSpec):
    """The k=1 collapsed target in its (S, 1, m+1) batched-matmul form, as it
    stood before k=1 got its own 2-D closure, kept as that closure's oracle."""
    data = V.values
    n, width = data.shape
    k = spec.k
    var_z, var_w, var_obs = spec.sigma_z ** 2, spec.sigma_w ** 2, spec.sigma_obs ** 2
    S = data.T @ data
    const = (-0.5 * k * width * math.log(2.0 * math.pi * var_w)
             - 0.5 * n * width * LOG_2PI
             - 0.5 * (n * (width - k) * math.log(var_obs) + float(np.trace(S)) / var_obs))
    noise = var_obs * np.eye(k)

    def target(theta: np.ndarray):
        theta = np.atleast_2d(theta)
        s = theta.shape[0]
        W = theta.reshape(s, k, width)
        M = var_z * (W @ W.transpose(0, 2, 1)) + noise
        M_inv, log_det_M = 1.0 / M, np.log(M[:, 0, 0])
        B = M_inv @ W
        BS = B @ S
        BSW_t = BS @ W.transpose(0, 2, 1)
        values = (const
                  - (0.5 / var_w) * np.add.reduce(theta * theta, axis=1)
                  - (0.5 * n) * log_det_M
                  + (0.5 * var_z / var_obs) * np.trace(BSW_t, axis1=1, axis2=2))
        grad_w = ((var_z / var_obs) * (BS - var_z * (BSW_t @ B))
                  - (n * var_z) * B - W / var_w)
        return values, grad_w.reshape(s, k * width)

    return target, k * width


@pytest.mark.parametrize("scales", [(1.0, 1.0, 1.0), (0.7, 1.5, 0.6)], ids=["unit", "scaled"])
@pytest.mark.parametrize("width", [2, 4])
@pytest.mark.parametrize("batch", [1, 8])
def test_k1_collapsed_target_matches_batched_form(rng, scales, width, batch):
    sigma_z, sigma_w, sigma_obs = scales
    spec = ConfoundedModelSpec(k=1, sigma_z=sigma_z, sigma_w=sigma_w, sigma_obs=sigma_obs)
    V = JointVector(rng.standard_normal((50, width)) @ rng.standard_normal((width, width)))
    target, d = make_collapsed_target(V.values.T @ V.values, V.n, spec)
    oracle, d_oracle = _batched_collapsed_target_k1(V, spec)
    assert d == d_oracle == width
    theta = rng.standard_normal((batch, width))
    values, grads = target(theta)
    want_values, want_grads = oracle(theta)
    assert values.shape == (batch,) and grads.shape == (batch, width)
    np.testing.assert_allclose(values, want_values, rtol=1e-12, atol=0)
    np.testing.assert_allclose(grads, want_grads, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# The scoring targets as they stood with Python numbers for operands, kept as
# the reference the closures, which hold their constants as 0-d arrays and
# write into their own temporaries, must match bit for bit.
# ---------------------------------------------------------------------------

def _python_scalar_causal_target(X, y, spec: CausalModelSpec):
    n, m = np.shape(X)
    P, b, yty = models._regression_terms(X, y, spec)
    var_w, var_y = spec.sigma_w ** 2, spec.sigma_y ** 2
    const = (-0.5 * m * math.log(2.0 * math.pi * var_w)
             - 0.5 * n * math.log(2.0 * math.pi * var_y)
             - 0.5 * yty / var_y)

    def target(weights: np.ndarray):
        weights = weights if weights.ndim == 2 else np.atleast_2d(weights)
        Pw = weights @ P
        return const + weights @ b - 0.5 * np.add.reduce(weights * Pw, axis=1), b - Pw

    return target


def _python_scalar_collapsed_target(S, n: int, spec: ConfoundedModelSpec):
    width, k = S.shape[0], spec.k
    var_z, var_w, var_obs = spec.sigma_z ** 2, spec.sigma_w ** 2, spec.sigma_obs ** 2
    const = (-0.5 * k * width * math.log(2.0 * math.pi * var_w)
             - 0.5 * n * width * LOG_2PI
             - 0.5 * (n * (width - k) * math.log(var_obs) + float(np.trace(S)) / var_obs))

    if k == 1:
        def target(theta: np.ndarray):
            theta = theta if theta.ndim == 2 else np.atleast_2d(theta)
            r2 = np.add.reduce(theta * theta, axis=1)
            M = var_z * r2 + var_obs
            B = theta / M[:, None]
            BS = B @ S
            q = np.add.reduce(BS * theta, axis=1)
            values = (const - (0.5 / var_w) * r2 - (0.5 * n) * np.log(M)
                      + (0.5 * var_z / var_obs) * q)
            grad_w = ((var_z / var_obs) * (BS - (var_z * q)[:, None] * B)
                      - (n * var_z) * B - theta / var_w)
            return values, grad_w

        return target

    noise = var_obs * np.eye(k)

    def target(theta: np.ndarray):
        theta = np.atleast_2d(theta)
        W = theta.reshape(-1, k, width)
        M = var_z * (W @ W.transpose(0, 2, 1)) + noise
        B = np.linalg.inv(M) @ W
        BS = B @ S
        BSW_t = BS @ W.transpose(0, 2, 1)
        values = (const
                  - (0.5 / var_w) * np.add.reduce(theta * theta, axis=1)
                  - (0.5 * n) * np.linalg.slogdet(M)[1]
                  + (0.5 * var_z / var_obs) * np.trace(BSW_t, axis1=1, axis2=2))
        grad_w = ((var_z / var_obs) * (BS - var_z * (BSW_t @ B))
                  - (n * var_z) * B - W / var_w)
        return values, grad_w.reshape(theta.shape)

    return target


@pytest.mark.parametrize("scales", [(1.0, 1.0, 1.0), (0.7, 1.9, 0.45)], ids=["unit", "scaled"])
@pytest.mark.parametrize("n", [12, 500])
@pytest.mark.parametrize("width", [2, 4, 7])
def test_targets_match_their_python_scalar_forms_bit_for_bit(rng, scales, n, width):
    sigma_a, sigma_w, sigma_b = scales
    data = rng.standard_normal((n, width)) @ rng.standard_normal((width, width))
    X, y, S = data[:, :-1], data[:, -1], data.T @ data
    causal = CausalModelSpec(sigma_w=sigma_w, sigma_y=sigma_b)
    pairs = [(make_causal_target(X, y, causal)[0], _python_scalar_causal_target(X, y, causal),
              width - 1)]
    for k in (1, 2, 3):
        spec = ConfoundedModelSpec(k=k, sigma_z=sigma_a, sigma_w=sigma_w, sigma_obs=sigma_b)
        pairs.append((make_collapsed_target(S, n, spec)[0],
                      _python_scalar_collapsed_target(S, n, spec), k * width))
    for target, reference, d in pairs:
        for batch in (1, 8, 33):
            theta = 3.0 * rng.standard_normal((batch, d))
            got, want = target(theta), reference(theta)
            for got_array, want_array in zip(got, want):
                assert got_array.shape == want_array.shape
                assert got_array.tobytes() == want_array.tobytes()


def _log_posterior_k1(V: JointVector, spec: ConfoundedModelSpec, w1, w2):
    """log p(V, W) of the m=1, k=1 model on a grid of loadings, written out.

    With a = sigma_z^2 |w|^2 the row covariance C = sigma_z^2 w w^T +
    sigma_obs^2 I has log|C| = 2 log sigma_obs^2 + log(1 + a / sigma_obs^2)
    and C^-1 = (I - sigma_z^2 w w^T / (sigma_obs^2 + a)) / sigma_obs^2.
    """
    S = V.values.T @ V.values
    var_z, var_w, var_obs = spec.sigma_z ** 2, spec.sigma_w ** 2, spec.sigma_obs ** 2
    a = var_z * (w1 ** 2 + w2 ** 2)
    wSw = S[0, 0] * w1 ** 2 + 2 * S[0, 1] * w1 * w2 + S[1, 1] * w2 ** 2
    log_det = 2 * math.log(var_obs) + np.log1p(a / var_obs)
    trace = np.trace(S) / var_obs - var_z * wSw / (var_obs * (var_obs + a))
    prior = -math.log(2 * math.pi * var_w) - (w1 ** 2 + w2 ** 2) / (2 * var_w)
    return prior - 0.5 * V.n * (2 * math.log(2 * math.pi) + log_det) - 0.5 * trace


def _two_mode_grid_evidence(V: JointVector, spec: ConfoundedModelSpec) -> float:
    """log evidence of the m=1, k=1 model on dense grids around both modes.

    The posterior over the loadings is symmetric under W -> -W and, at
    n=500, a few hundredths wide.  A sweep over [-4, 4]^2 finds the mode
    and the half-width within which the log posterior stays within 50
    nats of it; a 400-node Gauss-Legendre grid then covers +mode and
    -mode, or one box around both when they overlap.
    """
    sweep = np.linspace(-4.0, 4.0, 801)
    xx, yy = np.meshgrid(sweep, sweep, indexing="ij")
    logp = _log_posterior_k1(V, spec, xx, yy)
    peak = np.unravel_index(np.argmax(logp), logp.shape)
    mode = np.array([xx[peak], yy[peak]])
    mass = np.stack([xx[logp > logp.max() - 50], yy[logp > logp.max() - 50]], axis=1)
    half = np.minimum(np.abs(mass - mode).max(axis=1),
                      np.abs(mass + mode).max(axis=1)).max() + 0.05
    reach = np.abs(mode).max()
    boxes = [(mode, half), (-mode, half)] if reach > half else [(np.zeros(2), reach + half)]
    nodes, weights = leggauss(400)
    total = 0.0
    for centre, width in boxes:
        g1, g2 = np.meshgrid(centre[0] + width * nodes, centre[1] + width * nodes,
                             indexing="ij")
        values = np.exp(_log_posterior_k1(V, spec, g1, g2) - logp.max())
        total += (width * weights) @ values @ (width * weights)
    return logp.max() + math.log(total)


def _grid_instance(instance: int) -> JointVector:
    """The n=500, m=1 instances of the grid oracle: noise when even, one factor when odd."""
    rng = np.random.default_rng(derive_seed(9110, instance))
    if instance % 2 == 0:
        return JointVector(rng.standard_normal((500, 2)))
    return JointVector(np.outer(rng.standard_normal(500), 1.5 * rng.standard_normal(2))
                       + 0.5 * rng.standard_normal((500, 2)))


@pytest.mark.parametrize("instance", range(8))
def test_confounded_code_length_tracks_grid_oracle_at_n500(instance):
    """The confounded bound stays within 1.25 nats above the exact evidence.

    One Gaussian covers one of the two mirror modes of the loadings, so
    where they separate (the factor instances) the bound exceeds the
    evidence by log 2, plus what mean-field loses to correlated loadings.
    """
    spec = ConfoundedModelSpec(k=1)
    V = _grid_instance(instance)
    truth = -_two_mode_grid_evidence(V, spec)
    got = confounded_code_length(V, spec, fit_config=FitConfig(seed=derive_seed(9111, instance)))
    assert truth - 3 * got.elbo_se <= got.nats <= truth + 1.25, (
        f"code length {got.nats:.3f} vs grid oracle {truth:.3f} (se {got.elbo_se:.3f})")


class TestConfoundedEvidenceK1:
    @pytest.mark.parametrize("scales", [(1.0, 1.0, 1.0), (0.7, 1.5, 0.6)])
    @pytest.mark.parametrize("instance", range(8))
    def test_matches_two_mode_grid(self, instance, scales):
        sigma_z, sigma_w, sigma_obs = scales
        spec = ConfoundedModelSpec(k=1, sigma_z=sigma_z, sigma_w=sigma_w, sigma_obs=sigma_obs)
        V = _grid_instance(instance)
        got = confounded_evidence_k1(V.values.T @ V.values, V.n, spec)
        assert got == pytest.approx(_two_mode_grid_evidence(V, spec), abs=1e-8)

    @pytest.mark.parametrize("instance", range(10))
    def test_matches_quadrature_oracle_at_n10(self, instance):
        # the instances of acceptance criterion 2
        rng = np.random.default_rng(derive_seed(9010, instance))
        if instance % 2 == 0:
            data = rng.standard_normal((10, 2))
        else:
            data = (np.outer(rng.standard_normal(10), rng.standard_normal(2))
                    + 0.5 * rng.standard_normal((10, 2)))
        V = JointVector(data)
        got = confounded_evidence_k1(data.T @ data, 10, CSPEC)
        assert got == pytest.approx(confounded_evidence_quadrature(V, CSPEC), abs=1e-6)

    def test_needs_k1(self):
        with pytest.raises(ValueError):
            confounded_evidence_k1(np.eye(3), 5, ConfoundedModelSpec(k=2))

    def test_non_finite_bingham_constant_raises(self, monkeypatch):
        V = _grid_instance(1)
        monkeypatch.setattr(models, "log_bingham_constant",
                            lambda a: np.full(np.shape(a)[:-1], np.nan))
        with pytest.raises(QuadratureError):
            confounded_evidence_k1(V.values.T @ V.values, V.n, CSPEC)

    def test_exact_code_length_record(self):
        V = _grid_instance(3)
        got = confounded_code_length(V, CSPEC, method="closed_form")
        assert got.nats == -confounded_evidence_k1(V.values.T @ V.values, V.n, CSPEC)
        assert (got.method, got.elbo_se, got.iterations) == ("closed_form", 0.0, 0)
        with pytest.raises(ValueError):
            confounded_code_length(V, CSPEC, method="mcmc")
