import numpy as np
import pytest

from biasaudit.advi import FitConfig

LOG_2PI = float(np.log(2.0 * np.pi))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def bounded_growth(monkeypatch):
    """Make tree growth fail, rather than run on, past 200 depths in a test."""
    from biasaudit import forest

    real, depths = forest._choose_splits, []

    def counted(*args):
        depths.append(None)
        if len(depths) > 200:
            raise AssertionError("tree growth passed 200 depths")
        return real(*args)

    monkeypatch.setattr(forest, "_choose_splits", counted)


def quick_fit_config(seed=0, **overrides) -> FitConfig:
    """A fit budget sized for unit tests rather than production runs."""
    defaults = dict(max_iterations=6_000, final_elbo_samples=2_000, seed=seed)
    defaults.update(overrides)
    return FitConfig(**defaults)


def gaussian_target(mean, cov):
    """Batched log-density target for a normalized multivariate Gaussian."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    d = mean.size
    prec = np.linalg.inv(cov)
    logdet = float(np.linalg.slogdet(cov)[1])

    def target(theta):
        theta = np.atleast_2d(theta)
        r = theta - mean
        quad = np.einsum("si,ij,sj->s", r, prec, r)
        values = -0.5 * (d * LOG_2PI + logdet + quad)
        grads = -r @ prec
        return values, grads

    return target
