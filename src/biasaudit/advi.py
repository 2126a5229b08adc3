"""Gaussian variational inference over targets with analytic gradients.

A *target* is a callable ``f(theta)`` taking an (S, d) batch of points
and returning ``(values, grads)`` with shapes (S,) and (S, d): the
unnormalized log joint and its gradient at each point.  No automatic
differentiation is involved; model code supplies exact gradients, and
the tests check them against finite differences.

The evidence lower bound is maximized by stochastic gradient ascent on
reparameterized samples ``theta = mu + L @ eps`` with Adam-style
adaptive step sizes.  The entropy of the Gaussian family is always
computed in closed form, so the Monte-Carlo noise comes from the log
joint term alone.

A step works on vectors of a few to a dozen entries, so its cost is its
numpy calls.  Constants are 0-d arrays, which a ufunc takes as they are
(a Python number is converted on every call), and Adam's two moments
share one (2, p) array, so one call updates both.  Every other operand
has the shape of the call's output: a broadcast operand makes a ufunc
cost two to three times its same-shape call, so Adam's decays, gains
and bias corrections are held at the full (2, p) width, and only the
draws take the mean and scale across their rows.  A step calls ufuncs, their
methods and array methods, never a numpy function such as ``np.take``,
which dispatches through Python first.  With a trivial 3-d target and 8
draws a step costs about 16 us (full-rank) and 15 us (mean-field) on a
2-core x86-64 host.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, EstimationError
from .gaussmath import LOG_2PI

MEAN_FIELD = "mean_field"
FULL_RANK = "full_rank"

_FACTOR_SHAPE = {MEAN_FIELD: "diagonal", FULL_RANK: "lower-triangular"}
_DIVERGENCE_PATIENCE = 50
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


def require_positive_finite(config, *names: str) -> None:
    """Raise ``ValueError``, naming the field, unless each named field is positive and finite."""
    for name in names:
        value = getattr(config, name)
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value}")


def ufunc_constants(*values: float) -> tuple[np.ndarray, ...]:
    """Each value as a 0-d float64 array: a Python number operand costs a conversion per call."""
    return tuple(np.array(float(v)) for v in values)


@dataclass(frozen=True)
class FitConfig:
    """Optimization knobs for a variational fit."""

    mc_samples: int = 8
    learning_rate: float = 0.01
    max_iterations: int = 20_000
    convergence_window: int = 200
    relative_tolerance: float = 1e-4
    final_elbo_samples: int = 2_000
    seed: int = 0

    def __post_init__(self):
        for name in ("mc_samples", "max_iterations", "convergence_window"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.final_elbo_samples < 100:
            raise ValueError(
                f"final_elbo_samples must be >= 100, got {self.final_elbo_samples}")
        require_positive_finite(self, "learning_rate")
        if not 0.0 < self.relative_tolerance < 1.0:
            raise ValueError(
                f"relative_tolerance must lie in (0, 1), got {self.relative_tolerance}")


@dataclass
class FitTrace:
    converged: bool
    iterations_run: int


class VariationalPosterior:
    """Gaussian variational distribution ``N(mean, L L^T)``, mean-field or full-rank.

    ``scale_tril`` is the d x d factor L with a positive diagonal:
    diagonal for mean-field, lower-triangular for full-rank.  Held as the
    flat vector :func:`fit` optimises: the mean, then the log of L's
    diagonal, then, for full-rank only, L's strict lower triangle.
    """

    def __init__(self, family: str, mean: np.ndarray, scale_tril: np.ndarray):
        if family not in _FACTOR_SHAPE:
            raise ValueError(f"unknown family {family!r}")
        mean, scale_tril = np.asarray(mean, dtype=float), np.asarray(scale_tril, dtype=float)
        d = mean.size
        free = np.tri(d, dtype=bool) if family == FULL_RANK else np.eye(d, dtype=bool)
        if (scale_tril.shape != (d, d) or not np.all(np.diag(scale_tril) > 0)
                or np.any(scale_tril[~free])):
            raise ValueError(f"a {family} posterior needs a {d} x {d} "
                             f"{_FACTOR_SHAPE[family]} factor with a positive diagonal")
        # flat positions of the free entries below the diagonal, row by row
        self._tril = np.flatnonzero(np.tril(free, -1))
        self.family, self.dim = family, d
        self.flat = np.concatenate([mean, np.log(np.diag(scale_tril)),
                                    scale_tril.take(self._tril)])
        if not np.all(np.isfinite(self.flat)):
            raise ValueError("posterior parameters must be finite")

    @classmethod
    def isotropic(cls, family: str, mean: np.ndarray, sd: float) -> "VariationalPosterior":
        """``N(mean, sd^2 I)``: the factor ``sd I`` suits both families."""
        return cls(family, mean, sd * np.eye(np.size(mean)))

    @property
    def mean(self) -> np.ndarray:
        return self.flat[:self.dim]

    @property
    def log_scale(self) -> np.ndarray:
        return self.flat[self.dim:2 * self.dim]

    @property
    def scale_tril(self) -> np.ndarray:
        """Lower-triangular covariance factor (diagonal for mean-field)."""
        L = np.zeros((self.dim, self.dim))
        L.flat[self._tril] = self.flat[2 * self.dim:]
        L.flat[::self.dim + 1] = np.exp(self.log_scale)
        return L

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        eps = rng.standard_normal((size, self.dim))
        return self.mean + eps @ self.scale_tril.T

    def entropy(self) -> float:
        """Closed-form differential entropy in nats."""
        return 0.5 * self.dim * (1.0 + LOG_2PI) + float(np.add.reduce(self.log_scale))


def fit(log_joint, d: int, config: FitConfig,
        family: str = FULL_RANK,
        start: VariationalPosterior | None = None) -> tuple[VariationalPosterior, FitTrace]:
    """Maximize the ELBO of a Gaussian family against ``log_joint``.

    The fit starts from ``start``, which it optimises in place and
    returns, or by default from the standard normal of ``family``.
    Deterministic given ``config.seed``.  Convergence is declared when
    two consecutive non-overlapping windows of per-step ELBO estimates
    have averages within ``config.relative_tolerance`` (relative) of
    each other; the check runs once per window.  A fit that spends its
    budget reports ``converged=False``, leaving the decision to the
    caller.  Fifty consecutive non-finite steps raise :class:`DivergenceError`.
    The 0-d constants, the stacked moments and the full-width Adam
    constants only cut the cost of calls: a step makes the IEEE operations
    of a plain Adam loop (``tests/test_advi.py`` keeps one) on the same
    values, and its results match that loop bit for bit.
    """
    if start is None:
        start = VariationalPosterior.isotropic(family, np.zeros(d), 1.0)
    elif start.family != family or start.dim != d:
        raise ValueError(f"start is a {start.dim}-dim {start.family} posterior, "
                         f"expected a {d}-dim {family} one")
    q = start
    # views into q.flat, which every step updates in place
    flat = q.flat
    mean, log_scale, off_diagonal = flat[:d], flat[d:2 * d], flat[2 * d:]
    with np.errstate(all="ignore"):  # a non-finite start is refused just below
        value0, grad0 = log_joint(mean[None, :])
    if not (np.all(np.isfinite(value0)) and np.all(np.isfinite(grad0))):
        raise ValueError("log_joint is not finite at the starting mean")

    rng = np.random.default_rng(config.seed)
    S, window, full_rank = config.mc_samples, config.convergence_window, family == FULL_RANK
    draws, lr, adam_eps, one = ufunc_constants(S, config.learning_rate, _ADAM_EPS, 1.0)
    decays = np.repeat([[_ADAM_BETA1], [_ADAM_BETA2]], flat.size, 1)
    gains, corrections = 1 - decays, np.empty_like(decays)
    correction1, correction2 = corrections
    entropy0 = 0.5 * d * (1.0 + LOG_2PI)  # q.entropy() less the log-scales' sum
    # every per-step temporary lives in a buffer allocated here; row 0 of each
    # (2, p) pair serves Adam's first moment, row 1 its second
    moments, grad_pair, corrected = (np.zeros((2, flat.size)) for _ in range(3))
    (grad, grad_sq), (step, denom) = grad_pair, corrected
    grad_mean, grad_scale, grad_rest = grad[:d], grad[d:2 * d], grad[d:]
    eps, theta, finite = np.empty((S, d)), np.empty((S, d)), np.empty((S, d), bool)
    if full_rank:
        factor, cross = np.zeros((d, d)), np.empty((d, d))
        factor_flat, factor_t, cross_flat = factor.reshape(-1), factor.T, cross.reshape(-1)
        scale = factor_flat[::d + 1]  # exp(log_scale) lands on the factor's diagonal
        tril = q._tril
        scale_then_off = np.concatenate([np.arange(0, d * d, d + 1), tril])
    else:
        scale = np.empty(d)
        # one sum for both halves; order F at d=1 keeps numpy's pairwise sum of an (S, 1) column
        draw_terms = np.empty((S, 2 * d), order="F" if d == 1 else "C")
        draw_grads, draw_weighted = draw_terms[:, :d], draw_terms[:, d:]

    # the stop rule reads the last two windows only: row j % 2 holds window j,
    # with NaN for a skipped step
    windows = np.full((2, min(window, config.max_iterations)), np.nan)
    converged = False
    nonfinite_streak = adam_steps = 0

    t = 0
    with np.errstate(all="ignore"):  # the loop judges each step's finiteness itself
        for t in range(config.max_iterations):
            row, col = divmod(t, window)
            row %= 2
            rng.standard_normal(out=eps)
            np.exp(log_scale, scale)
            # a diagonal factor skips the matmul, which costs more at these sizes
            if full_rank:
                factor_flat[tril] = off_diagonal
                np.matmul(eps, factor_t, theta)
            else:
                np.multiply(scale, eps, theta)
            np.add(theta, mean, theta)
            values, grads = log_joint(theta)
            elbo_t = float(np.add.reduce(values)) / S + (entropy0 + float(np.add.reduce(log_scale)))

            if math.isfinite(elbo_t) and np.logical_and.reduce(np.isfinite(grads, finite), None):
                nonfinite_streak = 0
                # reparameterized gradient; the +1 is the entropy's, wrt the log-scales
                if full_rank:
                    np.add.reduce(grads, 0, out=grad_mean)
                    np.matmul(grads.T, eps, cross)  # S E[g_i eps_j]
                    cross_flat.take(scale_then_off, out=grad_rest)
                else:
                    draw_grads[...] = grads
                    np.multiply(grads, eps, draw_weighted)
                    np.add.reduce(draw_terms, 0, out=grad)
                np.divide(grad, draws, grad)
                np.multiply(grad_scale, scale, grad_scale)
                np.add(grad_scale, one, grad_scale)
                adam_steps += 1
                np.square(grad, grad_sq)
                np.multiply(moments, decays, moments)
                np.multiply(grad_pair, gains, grad_pair)
                np.add(moments, grad_pair, moments)
                # bias corrections as Python floats: numpy's ** can differ in the last bit
                correction1.fill(1 - _ADAM_BETA1 ** adam_steps)
                correction2.fill(1 - _ADAM_BETA2 ** adam_steps)
                np.divide(moments, corrections, corrected)
                np.sqrt(denom, denom)
                np.add(denom, adam_eps, denom)
                np.multiply(step, lr, step)
                np.divide(step, denom, step)
                np.add(flat, step, flat)
                windows[row, col] = elbo_t
            else:
                nonfinite_streak += 1
                windows[row, col] = np.nan

            if nonfinite_streak >= _DIVERGENCE_PATIENCE:
                raise DivergenceError(f"{_DIVERGENCE_PATIENCE} consecutive non-finite "
                                      f"ELBO steps, the last at iteration {t + 1}")

            done = t + 1
            if done >= 2 * window and done % window == 0:
                prev_window, recent_window = windows[1 - row], windows[row]
                if np.any(np.isfinite(prev_window)) and np.any(np.isfinite(recent_window)):
                    prev = float(np.nanmean(prev_window))
                    recent = float(np.nanmean(recent_window))
                    change = abs(recent - prev)
                    if change / max(abs(prev), 1e-12) < config.relative_tolerance:
                        converged = True
                        break

    # an overflowed moment stays infinite under decay, so one check covers every step
    if not np.all(np.isfinite(moments[1])):
        raise EstimationError(f"the gradient overflowed Adam's second moment by iteration {t + 1}")

    return q, FitTrace(converged, t + 1)


def estimate_elbo(posterior: VariationalPosterior, log_joint,
                  n_samples: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo ELBO of a fitted posterior, with its standard error.

    Fresh draws, closed-form entropy.  Non-finite log-joint samples are
    excluded and counted; more than 1% of them is an estimation error.
    """
    if n_samples < 100:
        raise ValueError("n_samples must be >= 100")
    rng = np.random.default_rng(seed)
    theta = posterior.sample(rng, n_samples)
    values, _ = log_joint(theta)
    values = np.asarray(values, dtype=float)
    finite = values[np.isfinite(values)]
    n_bad = n_samples - finite.size
    if n_bad > 0.01 * n_samples:
        raise EstimationError(
            f"{n_bad}/{n_samples} non-finite log-joint samples")
    with np.errstate(all="ignore"):  # an overflow is inf, which CodeLength refuses
        mean = float(np.mean(finite)) + posterior.entropy()
        se = float(np.std(finite, ddof=1) / np.sqrt(finite.size))
    return mean, se
