import numpy as np
import pytest

from biasaudit.advi import (FULL_RANK, MEAN_FIELD, FitConfig,
                            VariationalPosterior, estimate_elbo, fit,
                            gaussian_kl)
from biasaudit.errors import DivergenceError, EstimationError

from conftest import LOG_2PI, gaussian_target, quick_fit_config


def conjugate_target(theta):
    # prior N(theta; 0, 1) times likelihood N(0; theta, 1):
    # posterior N(0, 1/2), evidence N(0; 0, 2) = exp(-1.2655121)
    th = theta[:, 0]
    values = -LOG_2PI - th ** 2
    grads = (-2.0 * th)[:, None]
    return values, grads


CONJUGATE_EVIDENCE = -0.5 * np.log(4.0 * np.pi)


class TestFit:
    def test_recovers_gaussian_target(self):
        target = gaussian_target([3.0], [[1.0]])
        posterior, _ = fit(target, 1,
                           quick_fit_config(seed=1, mc_samples_per_step=32))
        assert posterior.mean[0] == pytest.approx(3.0, abs=0.05)
        assert posterior.sd()[0] == pytest.approx(1.0, abs=0.05)

    def test_conjugate_posterior_and_evidence(self):
        posterior, _ = fit(conjugate_target, 1, quick_fit_config(seed=2))
        assert posterior.mean[0] == pytest.approx(0.0, abs=0.1)
        assert posterior.sd()[0] == pytest.approx(np.sqrt(0.5), abs=0.05)
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

    def test_bit_reproducible(self):
        target = gaussian_target([1.0, -2.0], np.diag([1.0, 4.0]))
        config = quick_fit_config(seed=11, max_iterations=500)
        a, trace_a = fit(target, 2, config)
        b, trace_b = fit(target, 2, config)
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.scale_tril, b.scale_tril)
        np.testing.assert_array_equal(trace_a.elbo_history, trace_b.elbo_history)

    def test_full_rank_kl_to_gaussian_target(self):
        rho = 0.9
        cov = np.array([[1.0, rho], [rho, 1.0]])
        target = gaussian_target([0.5, -0.5], cov)
        posterior, _ = fit(target, 2, FitConfig(seed=4), family=FULL_RANK)
        kl = gaussian_kl(posterior.mean, posterior.covariance(),
                         np.array([0.5, -0.5]), cov)
        assert kl < 1e-2

    def test_trace_length_matches_iterations(self):
        target = gaussian_target([0.0], [[1.0]])
        _, trace = fit(target, 1, quick_fit_config(seed=7, max_iterations=300))
        assert len(trace.elbo_history) == trace.iterations_run

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

        with pytest.raises(DivergenceError) as err:
            fit(explodes, 1, quick_fit_config(seed=9))
        assert err.value.trace is not None


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
        q = VariationalPosterior(MEAN_FIELD, np.array([0.3]),
                                 log_sd=np.array([0.2]))
        ses = []
        for n in (1000, 4000):
            se_draws = [estimate_elbo(q, target, n_samples=n, seed=s)[1]
                        for s in range(8)]
            ses.append(np.mean(se_draws))
        assert ses[1] == pytest.approx(ses[0] / 2.0, rel=0.15)

    def test_requires_min_samples(self):
        target = gaussian_target([0.0], [[1.0]])
        q = VariationalPosterior(MEAN_FIELD, np.zeros(1), log_sd=np.zeros(1))
        with pytest.raises(ValueError):
            estimate_elbo(q, target, 50, seed=0)

    def test_too_many_nonfinite_samples(self):
        def patchy(theta):
            values = np.where(theta[:, 0] > 0, np.nan, -1.0)
            return values, np.zeros_like(theta)
        q = VariationalPosterior(MEAN_FIELD, np.zeros(1), log_sd=np.zeros(1))
        with pytest.raises(EstimationError):
            estimate_elbo(q, patchy, 1000, seed=1)

    def test_entropy_matches_monte_carlo(self, rng):
        L = np.array([[1.0, 0.0], [0.7, 0.5]])
        q = VariationalPosterior(FULL_RANK, np.array([0.5, -2.0]), scale_tril=L)
        draws = q.sample(rng, 20_000)
        mc = -q.log_prob(draws)
        se = float(np.std(mc, ddof=1) / np.sqrt(mc.size))
        assert q.entropy() == pytest.approx(float(np.mean(mc)), abs=3 * se)


class TestPosterior:
    def test_covariance_roundtrip(self):
        L = np.array([[2.0, 0.0], [0.4, 1.0]])
        q = VariationalPosterior(FULL_RANK, np.zeros(2), scale_tril=L)
        np.testing.assert_allclose(q.covariance(), L @ L.T)

    def test_mean_field_logprob_matches_full_rank(self, rng):
        mean = np.array([0.5, -1.0])
        log_sd = np.array([0.1, -0.3])
        mf = VariationalPosterior(MEAN_FIELD, mean, log_sd=log_sd)
        fr = VariationalPosterior(FULL_RANK, mean,
                                  scale_tril=np.diag(np.exp(log_sd)))
        theta = rng.standard_normal((6, 2))
        np.testing.assert_allclose(mf.log_prob(theta), fr.log_prob(theta), atol=1e-12)

    def test_rejects_bad_family(self):
        with pytest.raises(ValueError):
            VariationalPosterior("cauchy", np.zeros(1), log_sd=np.zeros(1))


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
    start = VariationalPosterior(MEAN_FIELD, np.array([3.0, -1.0]),
                                 log_sd=np.full(2, np.log(0.1)))
    posterior, _ = fit(target, 2, config, family=MEAN_FIELD, start=start)
    assert posterior is start
    np.testing.assert_allclose(posterior.mean, [3.0, -1.0], atol=0.05)
    np.testing.assert_allclose(posterior.sd(), [0.1, 0.1], rtol=0.2)
    for family, d in ((FULL_RANK, 2), (MEAN_FIELD, 3)):
        with pytest.raises(ValueError, match="start"):
            fit(target, d, config, family=family, start=start)
