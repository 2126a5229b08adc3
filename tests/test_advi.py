import tracemalloc

import numpy as np
import pytest

from biasaudit.advi import (FULL_RANK, MEAN_FIELD, FitConfig, FitTrace,
                            VariationalPosterior, estimate_elbo, fit)
from biasaudit.errors import DivergenceError, EstimationError
from biasaudit.models import (CausalModelSpec, ConfoundedModelSpec, JointVector,
                              _ppca_start, make_causal_target, make_collapsed_target)

from conftest import LOG_2PI, gaussian_target, quick_fit_config


def conjugate_target(theta):
    # prior N(theta; 0, 1) times likelihood N(0; theta, 1):
    # posterior N(0, 1/2), evidence N(0; 0, 2) = exp(-1.2655121)
    th = theta[:, 0]
    values = -LOG_2PI - th ** 2
    grads = (-2.0 * th)[:, None]
    return values, grads


CONJUGATE_EVIDENCE = -0.5 * np.log(4.0 * np.pi)


def sd(q):
    """Marginal standard deviations of a posterior."""
    return np.sqrt(np.sum(q.scale_tril ** 2, axis=1))


def covariance(q):
    L = q.scale_tril
    return L @ L.T


def log_prob(q, theta):
    """Log density of a posterior at each row of ``theta``."""
    L = q.scale_tril
    u = np.linalg.solve(L, (np.atleast_2d(theta) - q.mean).T)
    quad = np.sum(u * u, axis=0)
    return -0.5 * (q.dim * LOG_2PI + quad) - float(np.sum(np.log(np.diag(L))))


def gaussian_kl(mean_q, cov_q, mean_p, cov_p) -> float:
    """KL(q || p) between two multivariate Gaussians, in nats."""
    mean_q, mean_p = np.atleast_1d(mean_q), np.atleast_1d(mean_p)
    cov_q, cov_p = np.atleast_2d(cov_q), np.atleast_2d(cov_p)
    d = mean_q.size
    chol_p = np.linalg.cholesky(cov_p)
    solve = np.linalg.solve
    trace = float(np.trace(solve(chol_p.T, solve(chol_p, cov_q))))
    diff = mean_p - mean_q
    u = solve(chol_p, diff)
    quad = float(u @ u)
    logdet_p = 2.0 * float(np.sum(np.log(np.diag(chol_p))))
    logdet_q = float(np.linalg.slogdet(cov_q)[1])
    return 0.5 * (trace + quad - d + logdet_p - logdet_q)


class TestFit:
    def test_recovers_gaussian_target(self):
        target = gaussian_target([3.0], [[1.0]])
        posterior, _ = fit(target, 1,
                           quick_fit_config(seed=1, mc_samples=32))
        assert posterior.mean[0] == pytest.approx(3.0, abs=0.05)
        assert sd(posterior)[0] == pytest.approx(1.0, abs=0.05)

    def test_conjugate_posterior_and_evidence(self):
        posterior, _ = fit(conjugate_target, 1, quick_fit_config(seed=2))
        assert posterior.mean[0] == pytest.approx(0.0, abs=0.1)
        assert sd(posterior)[0] == pytest.approx(np.sqrt(0.5), abs=0.05)
        elbo, _ = estimate_elbo(posterior, conjugate_target, 4000, seed=5)
        assert elbo == pytest.approx(CONJUGATE_EVIDENCE, abs=0.05)

    def test_mean_field_loses_correlation_nats(self):
        rho = 0.9
        cov = np.array([[1.0, rho], [rho, 1.0]])
        target = gaussian_target([0.0, 0.0], cov)
        config = quick_fit_config(seed=3, max_iterations=8000)
        post_full, _ = fit(target, 2, config, family=FULL_RANK)
        post_mf, _ = fit(target, 2, config, family=MEAN_FIELD)
        elbo_full, se_f = estimate_elbo(post_full, target, 4000, seed=6)
        elbo_mf, se_m = estimate_elbo(post_mf, target, 4000, seed=6)
        assert elbo_mf < elbo_full
        gap = elbo_full - elbo_mf
        analytic = -0.5 * np.log(1 - rho ** 2)
        assert gap == pytest.approx(analytic, abs=0.1)

    @pytest.mark.parametrize("config", [
        FitConfig(seed=1, max_iterations=10 ** 6),
        FitConfig(seed=1, max_iterations=300, convergence_window=10 ** 9),
    ], ids=["large_budget", "window_beyond_budget"])
    def test_memory_does_not_grow_with_budget(self, config):
        # the stop rule keeps two windows of ELBO estimates, not the whole budget
        normalized = gaussian_target([1.0, -2.0, 0.5], np.eye(3))

        def target(theta):
            values, grads = normalized(theta)
            return values - 30.0, grads

        tracemalloc.start()
        try:
            _, trace = fit(target, 3, config, family=MEAN_FIELD)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.iterations_run < 2_000
        assert peak < 1e6

    def test_bit_reproducible(self):
        target = gaussian_target([1.0, -2.0], np.diag([1.0, 4.0]))
        config = quick_fit_config(seed=11, max_iterations=500)
        a, trace_a = fit(target, 2, config)
        b, trace_b = fit(target, 2, config)
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.scale_tril, b.scale_tril)
        assert trace_a == trace_b

    def test_full_rank_kl_to_gaussian_target(self):
        rho = 0.9
        cov = np.array([[1.0, rho], [rho, 1.0]])
        target = gaussian_target([0.5, -0.5], cov)
        posterior, _ = fit(target, 2, FitConfig(seed=4), family=FULL_RANK)
        kl = gaussian_kl(posterior.mean, covariance(posterior),
                         np.array([0.5, -0.5]), cov)
        assert kl < 1e-2

    def test_spent_budget_reports_every_iteration(self):
        # 300 steps end before the first two-window convergence check
        target = gaussian_target([0.0], [[1.0]])
        _, trace = fit(target, 1, quick_fit_config(seed=7, max_iterations=300))
        assert trace == FitTrace(converged=False, iterations_run=300)

    def test_converges_with_loose_tolerance(self):
        target = gaussian_target([0.0], [[1.0]])
        _, trace = fit(target, 1, quick_fit_config(seed=8, relative_tolerance=0.5))
        assert trace.converged
        assert trace.iterations_run < 6000

    def test_nonfinite_at_zero_rejected(self):
        def bad(theta):
            return np.full(theta.shape[0], np.nan), np.zeros_like(theta)
        with pytest.raises(ValueError):
            fit(bad, 1, quick_fit_config())

    def test_divergence_error(self):
        calls = {"n": 0}

        def explodes(theta):
            calls["n"] += 1
            if calls["n"] == 1:  # finite at the zero-vector precheck
                return np.zeros(theta.shape[0]), np.zeros_like(theta)
            return np.full(theta.shape[0], np.inf), np.zeros_like(theta)

        # every step after the precheck is non-finite, so the 50th stops the fit
        with pytest.raises(DivergenceError, match="steps, the last at iteration 50$"):
            fit(explodes, 1, quick_fit_config(seed=9))

    @pytest.mark.parametrize("family", [MEAN_FIELD, FULL_RANK])
    def test_overflowing_gradient_is_an_estimation_error(self, family):
        # a gradient of 1e200 squares to inf: Adam then freezes the posterior,
        # which would otherwise pass for converged; numpy stays silent
        def steep(theta):
            return np.zeros(theta.shape[0]), np.full_like(theta, 1e200)

        with pytest.raises(EstimationError, match="overflowed Adam's second moment"):
            fit(steep, 2, quick_fit_config(seed=9), family=family)


class TestEstimateElbo:
    def test_zero_kl_gives_zero_elbo(self, rng):
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        mean = np.array([1.0, -1.0])
        target = gaussian_target(mean, cov)
        q = VariationalPosterior(FULL_RANK, mean,
                                 scale_tril=np.linalg.cholesky(cov))
        elbo, se = estimate_elbo(q, target, 2000, seed=13)
        assert abs(elbo) <= 3 * se

    def test_se_shrinks_with_samples(self):
        target = gaussian_target([0.0], [[1.0]])
        q = VariationalPosterior(MEAN_FIELD, np.array([0.3]), np.exp([[0.2]]))
        ses = []
        for n in (1000, 4000):
            se_draws = [estimate_elbo(q, target, n_samples=n, seed=s)[1]
                        for s in range(8)]
            ses.append(np.mean(se_draws))
        assert ses[1] == pytest.approx(ses[0] / 2.0, rel=0.15)

    def test_requires_min_samples(self):
        target = gaussian_target([0.0], [[1.0]])
        q = VariationalPosterior(MEAN_FIELD, np.zeros(1), np.eye(1))
        with pytest.raises(ValueError):
            estimate_elbo(q, target, 50, seed=0)

    def test_too_many_nonfinite_samples(self):
        def patchy(theta):
            values = np.where(theta[:, 0] > 0, np.nan, -1.0)
            return values, np.zeros_like(theta)
        q = VariationalPosterior(MEAN_FIELD, np.zeros(1), np.eye(1))
        with pytest.raises(EstimationError):
            estimate_elbo(q, patchy, 1000, seed=1)

    def test_overflowing_spread_gives_an_infinite_se_silently(self):
        def huge(theta):
            return np.where(theta[:, 0] > 0, 1e300, -1e300), np.zeros_like(theta)
        q = VariationalPosterior(MEAN_FIELD, np.zeros(1), np.eye(1))
        assert estimate_elbo(q, huge, 1000, seed=1)[1] == np.inf

    def test_entropy_matches_monte_carlo(self, rng):
        L = np.array([[1.0, 0.0], [0.7, 0.5]])
        q = VariationalPosterior(FULL_RANK, np.array([0.5, -2.0]), scale_tril=L)
        draws = q.sample(rng, 20_000)
        mc = -log_prob(q, draws)
        se = float(np.std(mc, ddof=1) / np.sqrt(mc.size))
        assert q.entropy() == pytest.approx(float(np.mean(mc)), abs=3 * se)


class TestPosterior:
    def test_covariance_roundtrip(self):
        L = np.array([[2.0, 0.0], [0.4, 1.0]])
        q = VariationalPosterior(FULL_RANK, np.zeros(2), scale_tril=L)
        np.testing.assert_allclose(covariance(q), L @ L.T)

    def test_mean_field_logprob_matches_full_rank(self, rng):
        mean = np.array([0.5, -1.0])
        log_sd = np.array([0.1, -0.3])
        mf = VariationalPosterior(MEAN_FIELD, mean, np.diag(np.exp(log_sd)))
        fr = VariationalPosterior(FULL_RANK, mean,
                                  scale_tril=np.diag(np.exp(log_sd)))
        theta = rng.standard_normal((6, 2))
        np.testing.assert_allclose(log_prob(mf, theta), log_prob(fr, theta), atol=1e-12)

    def test_mean_field_samples_match_full_rank_bit_for_bit(self):
        mean = np.array([0.5, -1.0, 2.0])
        log_sd = np.array([0.1, -0.3, 0.7])
        mf = VariationalPosterior(MEAN_FIELD, mean, np.diag(np.exp(log_sd)))
        fr = VariationalPosterior(FULL_RANK, mean,
                                  scale_tril=np.diag(np.exp(log_sd)))
        got = mf.sample(np.random.default_rng(5), 500)
        want = fr.sample(np.random.default_rng(5), 500)
        assert got.tobytes() == want.tobytes()
        # and both equal the diagonal draw mean + sd * eps
        eps = np.random.default_rng(5).standard_normal((500, 3))
        assert got.tobytes() == (mean + np.exp(log_sd) * eps).tobytes()

    def test_rejects_bad_family(self):
        with pytest.raises(ValueError):
            VariationalPosterior("cauchy", np.zeros(1), np.eye(1))

    @pytest.mark.parametrize("family, factor, shape", [
        (MEAN_FIELD, [[1.0, 0.0], [0.5, 1.0]], "diagonal"),
        (MEAN_FIELD, [[1.0, 0.5], [0.0, 1.0]], "diagonal"),
        (FULL_RANK, [[1.0, 0.5], [0.0, 1.0]], "lower-triangular"),
        (MEAN_FIELD, [[1.0, 0.0], [0.0, 0.0]], "diagonal"),
        (FULL_RANK, [[-1.0, 0.0], [0.5, 1.0]], "lower-triangular"),
        (FULL_RANK, [[1.0, 0.0], [np.nan, 1.0]], None),
        (MEAN_FIELD, [1.0, 1.0], "diagonal"),
        (FULL_RANK, np.eye(3), "lower-triangular")])
    def test_factor_outside_its_family_rejected_naming_the_family(self, family, factor, shape):
        message = (f"a {family} posterior needs a 2 x 2 {shape} factor with a positive diagonal"
                   if shape else "posterior parameters must be finite")
        with pytest.raises(ValueError, match=f"^{message}$"):
            VariationalPosterior(family, np.zeros(2), np.array(factor))

    @pytest.mark.parametrize("d", [1, 3, 4, 8, 12])
    def test_isotropic_log_scales_are_the_log_of_sd_bit_for_bit(self, d):
        for n in (1, 2, 3, 200, 1500, 20_000):
            sd_n = 1.0 / np.sqrt(n)
            for family in (MEAN_FIELD, FULL_RANK):
                q = VariationalPosterior.isotropic(family, np.zeros(d), sd_n)
                assert q.log_scale.tobytes() == np.full(d, np.log(sd_n)).tobytes()


class TestGaussianKl:
    def test_zero_for_identical(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert gaussian_kl([0, 0], cov, [0, 0], cov) == pytest.approx(0.0, abs=1e-12)

    def test_known_univariate_value(self):
        # KL(N(1,1) || N(0,2)) = 0.5*(1/2 + 1/2 - 1 + log 2)
        want = 0.5 * (0.5 + 0.5 - 1.0 + np.log(2.0))
        assert gaussian_kl([1.0], [[1.0]], [0.0], [[2.0]]) == pytest.approx(want)


def test_fit_optimises_the_given_start_and_checks_it():
    target = gaussian_target([3.0, -1.0], np.diag([0.01, 0.01]))
    config = quick_fit_config(seed=12, max_iterations=300)
    start = VariationalPosterior(MEAN_FIELD, np.array([3.0, -1.0]), 0.1 * np.eye(2))
    posterior, _ = fit(target, 2, config, family=MEAN_FIELD, start=start)
    assert posterior is start
    np.testing.assert_allclose(posterior.mean, [3.0, -1.0], atol=0.05)
    np.testing.assert_allclose(sd(posterior), [0.1, 0.1], rtol=0.2)
    for family, d in ((FULL_RANK, 2), (MEAN_FIELD, 3)):
        with pytest.raises(ValueError, match="start"):
            fit(target, d, config, family=family, start=start)


# ---------------------------------------------------------------------------
# The fit loop as it stood before its steps were done in place, kept as the
# reference the production loop must match bit for bit.  The loop is
# verbatim, less the smoothed ELBO trace it used to fill; the posterior's old
# push/elbo_grad methods and the Adam class it called are written out as
# helpers.
# ---------------------------------------------------------------------------

class _ReferenceAdam:
    def __init__(self, size: int, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def ascent_step(self, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad ** 2
        m_hat = self.m / (1 - self.beta1 ** self.t)
        v_hat = self.v / (1 - self.beta2 ** self.t)
        return self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _reference_push(q, eps):
    if q.family == MEAN_FIELD:
        return q.mean + np.exp(q.log_scale) * eps
    return q.mean + eps @ q.scale_tril.T


def _reference_elbo_grad(q, eps, grads):
    d = q.dim
    out = np.empty_like(q.flat)
    out[:d] = grads.mean(axis=0)
    if q.family == MEAN_FIELD:
        out[d:2 * d] = (grads * eps).mean(axis=0) * np.exp(q.log_scale) + 1.0
    else:
        cross = grads.T @ eps / eps.shape[0]  # E[g_i eps_j]
        out[d:2 * d] = np.diag(cross) * np.exp(q.log_scale) + 1.0
        out[2 * d:] = cross[np.tril_indices(d, k=-1)]
    return out


def _reference_fit(log_joint, d, config, family=FULL_RANK, start=None):
    if start is None:
        start = VariationalPosterior.isotropic(family, np.zeros(d), 1.0)
    q = start
    value0, grad0 = log_joint(q.mean[None, :])
    if not (np.all(np.isfinite(value0)) and np.all(np.isfinite(grad0))):
        raise ValueError("log_joint is not finite at the starting mean")

    rng = np.random.default_rng(config.seed)
    adam = _ReferenceAdam(q.flat.size, config.learning_rate)
    window = config.convergence_window

    raw = np.full(config.max_iterations, np.nan)
    converged = False
    nonfinite_streak = 0

    t = 0
    for t in range(config.max_iterations):
        eps = rng.standard_normal((config.mc_samples, d))
        theta = _reference_push(q, eps)
        values, grads = log_joint(theta)
        elbo_t = float(np.mean(values)) + q.entropy()
        step_ok = np.isfinite(elbo_t) and np.all(np.isfinite(grads))

        if step_ok:
            nonfinite_streak = 0
            q.flat += adam.ascent_step(_reference_elbo_grad(q, eps, grads))
            raw[t] = elbo_t
        else:
            nonfinite_streak += 1

        if nonfinite_streak >= 50:
            raise DivergenceError(
                f"{50} consecutive non-finite ELBO steps, the last at iteration {t + 1}")

        done = t + 1
        if done >= 2 * window and done % window == 0:
            prev_window = raw[done - 2 * window:done - window]
            recent_window = raw[done - window:done]
            if np.any(np.isfinite(prev_window)) and np.any(np.isfinite(recent_window)):
                prev = float(np.nanmean(prev_window))
                recent = float(np.nanmean(recent_window))
                change = abs(recent - prev)
                if change / max(abs(prev), 1e-12) < config.relative_tolerance:
                    converged = True
                    break

    iterations_run = t + 1
    trace = FitTrace(converged, iterations_run)
    return q, trace


def _patchy(target):
    """``target``, but with a NaN value on calls 2-6 and every 7th call after,
    and a NaN gradient entry (values finite) on every 11th call."""
    calls = {"n": 0}

    def patched(theta):
        calls["n"] += 1
        values, grads = target(theta)
        if 2 <= calls["n"] <= 6 or calls["n"] % 7 == 0:
            values = np.where(np.arange(values.size) == 0, np.nan, values)
        if calls["n"] % 11 == 0:
            grads = np.where(np.arange(grads.size).reshape(grads.shape) == 1, np.nan, grads)
        return values, grads

    return patched


def _loop_cases():
    """(name, target factory, dimension, start factory or None) per case."""
    rng = np.random.default_rng(71)
    X = rng.standard_normal((60, 3))
    y = X @ np.array([0.7, -0.4, 0.2]) + rng.standard_normal(60)
    causal, _ = make_causal_target(X, y, CausalModelSpec(sigma_w=0.8, sigma_y=1.3))
    V = JointVector(np.outer(rng.standard_normal(40), [1.0, -0.5, 0.8])
                    + 0.5 * rng.standard_normal((40, 3)))
    S = V.values.T @ V.values
    collapsed, d_co = make_collapsed_target(S, V.n, ConfoundedModelSpec(k=2))
    collapsed_k1, d_k1 = make_collapsed_target(S, V.n, ConfoundedModelSpec(k=1))
    collapsed_k3, d_k3 = make_collapsed_target(S, V.n, ConfoundedModelSpec(k=3))
    normalized = gaussian_target([1.0, -2.0, 0.5],
                                 [[1.0, 0.6, 0.1], [0.6, 2.0, -0.3], [0.1, -0.3, 0.5]])

    def gauss(theta):
        # an ELBO away from 0, so the default relative tolerance can stop it
        values, grads = normalized(theta)
        return values - 30.0, grads

    normalized_1d = gaussian_target([0.0], [[1.0]])

    def gauss_1d(theta):
        values, grads = normalized_1d(theta)
        return values - 30.0, grads

    return [
        ("gaussian", lambda: gauss, 3, None),
        ("patchy", lambda: _patchy(gauss), 3, None),
        ("causal", lambda: causal, 3, None),
        ("collapsed_ppca_start", lambda: collapsed, d_co,
         lambda family: VariationalPosterior.isotropic(
             family, _ppca_start(S, V.n, ConfoundedModelSpec(k=2)).mean, 1.0 / np.sqrt(V.n))),
        ("collapsed_k1_ppca_start", lambda: collapsed_k1, d_k1,
         lambda family: VariationalPosterior.isotropic(
             family, _ppca_start(S, V.n, ConfoundedModelSpec(k=1)).mean, 1.0 / np.sqrt(V.n))),
        ("gaussian_start", lambda: gauss, 3,
         lambda family: VariationalPosterior.isotropic(family, np.array([0.5, 0.0, -1.0]), 0.3)),
        # numpy sums one column of draws pairwise, several columns in row order;
        # a posterior mean and log-SD near 0 keep a last-bit change visible
        ("gaussian_1d", lambda: gauss_1d, 1, None),
        # d = 9: each sum over the entries passes numpy's 8-wide pairwise block
        ("collapsed_k3_ppca_start", lambda: collapsed_k3, d_k3,
         lambda family: VariationalPosterior.isotropic(
             family, _ppca_start(S, V.n, ConfoundedModelSpec(k=3)).mean, 1.0 / np.sqrt(V.n))),
    ]


LOOP_CASES = _loop_cases()


class TestLoopMatchesReference:
    @pytest.mark.parametrize("case", LOOP_CASES, ids=[c[0] for c in LOOP_CASES])
    @pytest.mark.parametrize("family", [FULL_RANK, MEAN_FIELD])
    @pytest.mark.parametrize("config", [
        # 6 draws a step: a division by it is inexact, unlike one by 8
        FitConfig(seed=31, max_iterations=700, relative_tolerance=1e-12, mc_samples=6),
        FitConfig(seed=32),
        # one draw a step, and a learning rate with no exact binary form
        FitConfig(seed=34, max_iterations=1000, mc_samples=1, learning_rate=0.03),
    ], ids=["fixed_budget", "default_tolerance", "one_draw_inexact_rate"])
    def test_bit_identical_to_reference_loop(self, case, family, config):
        _, make_target, d, make_start = case
        start = (lambda: make_start(family)) if make_start else (lambda: None)
        want, want_trace = _reference_fit(make_target(), d, config, family, start())
        got, got_trace = fit(make_target(), d, config, family, start())
        assert got.flat.tobytes() == want.flat.tobytes()
        assert got_trace.iterations_run == want_trace.iterations_run
        assert got_trace.converged == want_trace.converged

    @pytest.mark.parametrize("family", [FULL_RANK, MEAN_FIELD])
    def test_same_divergence_as_reference_loop(self, family):
        def exploding():
            calls = {"n": 0}
            gauss = gaussian_target([0.0, 0.0], np.eye(2))

            def target(theta):
                calls["n"] += 1
                values, grads = gauss(theta)
                if calls["n"] > 120 or calls["n"] % 5 == 0:
                    values = np.full_like(values, np.inf)
                return values, grads

            return target

        config = FitConfig(seed=33, convergence_window=20)
        with pytest.raises(DivergenceError) as want:
            _reference_fit(exploding(), 2, config, family)
        with pytest.raises(DivergenceError) as got:
            fit(exploding(), 2, config, family)
        assert str(got.value) == str(want.value) == (
            "50 consecutive non-finite ELBO steps, the last at iteration 168")
