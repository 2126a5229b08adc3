"""Causal and confounded generative models and their code lengths.

Two descriptions of the same data compete.  The *causal* model codes
the cause matrix under an independent Gaussian prior and the target
through a Bayesian linear regression on the causes.  The *confounded*
model codes causes and target jointly through a low-rank latent factor
model (probabilistic PCA with the factor loadings marginalized too).
Each model's description length is the negative log marginal
likelihood in nats.  It is exact for the causal model (a closed form)
and, at k=1, for the confounded one (a radial quadrature over the
loadings, :func:`confounded_evidence_k1`).  The variational engine
estimates either as a negative ELBO, which upper-bounds the true value;
at k >= 2 that estimate is the only one for the confounded model.

The score path touches the n data rows only through sufficient
statistics: X^T X, X^T y and y^T y for the causal model, S = V^T V for
the confounded one, whose confounders are integrated out in closed
form (the PPCA marginal of Tipping & Bishop, 1999).  A log-joint
sample therefore costs the same at any n.

Log joints here return analytic gradients; tests hold them to central
finite differences.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import advi
from .advi import (FitConfig, FULL_RANK, MEAN_FIELD, VariationalPosterior,
                   require_positive_finite)
from .errors import EstimationError, QuadratureError
from .gaussmath import (LOG_2PI, SpdMatrix, gauss_legendre, grid_quadrature_2d,
                        log_bingham_constant, mvn_logpdf, normal_logpdf)
from .seeding import derive_seed


@dataclass(frozen=True)
class CausalModelSpec:
    """Prior and noise scales of the cause-to-target regression model."""

    sigma_x: float = 1.0  # prior SD of each cause entry
    sigma_w: float = 1.0  # prior SD of regression weights
    sigma_y: float = 1.0  # observation noise SD of the target

    def __post_init__(self):
        require_positive_finite(self, "sigma_x")  # never squared
        _require_scales(self, "sigma_w", "sigma_y")


@dataclass(frozen=True)
class ConfoundedModelSpec:
    """Latent dimension and scales of the joint factor model."""

    k: int = 1            # latent confounder dimension
    sigma_z: float = 1.0  # prior SD of confounder coordinates
    sigma_w: float = 1.0  # prior SD of loading entries
    sigma_obs: float = 1.0  # shared observation noise SD of all joint coordinates

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("latent dimension k must be >= 1")
        _require_scales(self, "sigma_z", "sigma_w", "sigma_obs")


def _require_scales(spec, *names: str) -> None:
    """Each named scale positive and finite, and so its square, which the models use."""
    require_positive_finite(spec, *names)
    for name in names:
        value = getattr(spec, name)
        if not math.isfinite(value * value):
            raise ValueError(f"{name} must have a finite square, got {value}")


class JointVector:
    """The n x (m+1) matrix stacking the causes and one target column."""

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[1] < 2:
            raise ValueError("joint matrix must be n x (m+1) with m >= 1")
        if not np.all(np.isfinite(values)):
            raise ValueError("joint matrix must be finite")
        self.values = values

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        # m + 1 joint coordinates
        return self.values.shape[1]


@dataclass(frozen=True)
class CodeLength:
    """A description length in nats plus the fit diagnostics behind it."""

    nats: float
    method: str
    family: str | None = None
    converged: bool = True
    elbo_se: float = 0.0
    iterations: int = 0

    def __post_init__(self):
        if not math.isfinite(self.nats):
            raise EstimationError(f"{self.method} code length is {self.nats}, not finite")


# ---------------------------------------------------------------------------
# causal model
# ---------------------------------------------------------------------------

def _regression_terms(X, y, spec: CausalModelSpec):
    """``P = I / sigma_w^2 + X^T X / sigma_y^2``, ``b = X^T y / sigma_y^2`` and ``y^T y``."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.shape != (X.shape[0],):
        raise ValueError("y length does not match design rows")
    var_w, var_y = spec.sigma_w ** 2, spec.sigma_y ** 2
    return (np.eye(X.shape[1]) / var_w + (X.T @ X) / var_y,
            (X.T @ y) / var_y, float(y @ y))


def make_causal_target(X, y, spec: CausalModelSpec):
    """Batched log joint over the regression weights, with gradients.

    Returns ``(target, d)`` where ``target`` maps an (S, m) batch of weight
    vectors to per-sample log joints and gradients.  With ``P`` and ``b`` of
    :func:`_regression_terms` the log joint is ``const + w^T b - w^T P w / 2``
    and its gradient ``b - P w``: O(m^2) per sample at any number of rows.
    """
    n, m = np.shape(X)
    P, b, yty = _regression_terms(X, y, spec)
    var_w, var_y = spec.sigma_w ** 2, spec.sigma_y ** 2
    const = (-0.5 * m * math.log(2.0 * math.pi * var_w)
             - 0.5 * n * math.log(2.0 * math.pi * var_y)
             - 0.5 * yty / var_y)

    def target(weights: np.ndarray):
        weights = weights if weights.ndim == 2 else np.atleast_2d(weights)
        Pw = weights @ P
        return const + weights @ b - 0.5 * np.add.reduce(weights * Pw, axis=1), b - Pw

    return target, m


def causal_log_joint(w, X, y, spec: CausalModelSpec):
    """log P(w) + log P(y | X, w) and its gradient at a single point."""
    target, _ = make_causal_target(X, y, spec)
    values, grads = target(np.atleast_2d(w))
    return float(values[0]), grads[0]


def causal_evidence_closed_form(X, y, spec: CausalModelSpec) -> float:
    """log of the weight-marginalized target likelihood.

    The regression weights integrate out of the Gaussian model exactly,
    leaving a zero-mean Gaussian over the n observed targets with
    covariance ``C = sigma_w^2 X X^T + sigma_y^2 I``.  C is never built:
    with the m x m ``P`` and ``b`` of :func:`_regression_terms`, the
    determinant lemma gives ``log|C| = n log sigma_y^2 + m log sigma_w^2 +
    log|P|`` and Woodbury gives ``y^T C^-1 y = y^T y / sigma_y^2 - b^T P^-1 b``.
    """
    n, m = np.shape(X)
    if n < 1:
        raise ValueError("need at least one row")
    P, b, yty = _regression_terms(X, y, spec)
    var_w, var_y = spec.sigma_w ** 2, spec.sigma_y ** 2
    P = SpdMatrix(P)
    log_det = n * math.log(var_y) + m * math.log(var_w) + P.log_det()
    quad = yty / var_y - P.mahalanobis_sq(b)
    return -0.5 * (n * LOG_2PI + log_det + quad)


def code_length_X(X, sigma_x: float) -> float:
    """Nats to code every cause entry under its independent prior.  A tiny
    ``sigma_x`` overflows to inf, which :class:`CodeLength` refuses."""
    with np.errstate(over="ignore"):
        return float(-np.sum(normal_logpdf(np.asarray(X, dtype=float), sigma_x)))


def causal_code_length(X, y, spec: CausalModelSpec,
                       method: str = "advi",
                       family: str = FULL_RANK,
                       fit_config: FitConfig | None = None) -> CodeLength:
    """Description length of the data under the causal model.

    ``method="closed_form"`` uses the exact marginal; ``"advi"`` fits a
    Gaussian posterior over the weights and returns the negative ELBO
    estimate (an upper bound, equal in the limit for this conjugate
    model under the full-rank family).
    """
    X = np.asarray(X, dtype=float)
    if X.shape[0] < 1:
        raise ValueError("need at least one row")
    prefix = code_length_X(X, spec.sigma_x)
    if method == "closed_form":
        return CodeLength(nats=prefix - causal_evidence_closed_form(X, y, spec),
                          method=method)
    if method != "advi":
        raise ValueError(f"unknown method {method!r}")
    target, d = make_causal_target(X, y, spec)
    return _fitted_code_length(target, d, prefix, family, fit_config)


def _fitted_code_length(target, d: int, prefix: float, family: str,
                        fit_config: FitConfig | None,
                        start: VariationalPosterior | None = None) -> CodeLength:
    """``prefix`` nats minus the final ELBO of a ``family`` fit to ``target``."""
    config = fit_config or FitConfig()
    posterior, trace = advi.fit(target, d, config, family=family, start=start)
    elbo, se = advi.estimate_elbo(posterior, target, config.final_elbo_samples,
                                  derive_seed(config.seed, "final-elbo"))
    return CodeLength(nats=prefix - elbo, method="advi", family=family,
                      converged=trace.converged, elbo_se=se,
                      iterations=trace.iterations_run)


# ---------------------------------------------------------------------------
# confounded model
# ---------------------------------------------------------------------------

def make_confounded_target(V: JointVector, spec: ConfoundedModelSpec):
    """Batched log joint over (confounders, loadings), with gradients.

    The flat parameter vector stacks the n x k confounder matrix first,
    then the k x (m+1) loading matrix.  Scoring uses
    :func:`make_collapsed_target`; this uncollapsed joint stays as the
    reference its gradient checks and batch tests run against.
    """
    data = V.values
    n, width = data.shape
    k = spec.k
    d = n * k + k * width
    var_z, var_w, var_obs = spec.sigma_z ** 2, spec.sigma_w ** 2, spec.sigma_obs ** 2
    const = (-0.5 * n * k * math.log(2.0 * math.pi * var_z)
             - 0.5 * k * width * math.log(2.0 * math.pi * var_w)
             - 0.5 * n * width * math.log(2.0 * math.pi * var_obs))

    def target(theta: np.ndarray):
        theta = np.atleast_2d(theta)
        s = theta.shape[0]
        Z = theta[:, :n * k].reshape(s, n, k)
        W = theta[:, n * k:].reshape(s, k, width)
        resid = data[None, :, :] - Z @ W
        values = (const
                  - 0.5 * np.sum(Z ** 2, axis=(1, 2)) / var_z
                  - 0.5 * np.sum(W ** 2, axis=(1, 2)) / var_w
                  - 0.5 * np.sum(resid ** 2, axis=(1, 2)) / var_obs)
        grad_z = -Z / var_z + (resid @ W.transpose(0, 2, 1)) / var_obs
        grad_w = -W / var_w + (Z.transpose(0, 2, 1) @ resid) / var_obs
        grads = np.concatenate(
            [grad_z.reshape(s, n * k), grad_w.reshape(s, k * width)], axis=1)
        return values, grads

    return target, d


def confounded_log_joint(latents: dict, V: JointVector, spec: ConfoundedModelSpec):
    """Joint log density at one (Z, W) point, with both gradients."""
    Z = np.asarray(latents["Z"], dtype=float)
    W = np.asarray(latents["W"], dtype=float)
    n, width = V.values.shape
    if Z.shape != (n, spec.k) or W.shape != (spec.k, width):
        raise ValueError("latent shapes do not match the joint matrix")
    target, _ = make_confounded_target(V, spec)
    theta = np.concatenate([Z.ravel(), W.ravel()])[None, :]
    values, grads = target(theta)
    flat = grads[0]
    return float(values[0]), {
        "grad_Z": flat[:n * spec.k].reshape(n, spec.k),
        "grad_W": flat[n * spec.k:].reshape(spec.k, width),
    }


def ppca_evidence_fixed_W(V: JointVector, W: np.ndarray,
                          spec: ConfoundedModelSpec) -> float:
    """Row-wise evidence with the confounders marginalized, loadings fixed.

    Each joint row is then a zero-mean Gaussian with covariance
    ``sigma_z^2 W^T W + sigma_obs^2 I``.
    """
    W = np.asarray(W, dtype=float)
    if not np.all(np.isfinite(W)):
        raise ValueError("loadings must be finite")
    width = V.width
    if W.shape != (spec.k, width):
        raise ValueError(f"expected loadings of shape ({spec.k}, {width})")
    cov = SpdMatrix(spec.sigma_z ** 2 * (W.T @ W) + spec.sigma_obs ** 2 * np.eye(width))
    return mvn_logpdf(V.values, np.zeros(width), cov)


def make_collapsed_target(S, n: int, spec: ConfoundedModelSpec):
    """Batched log joint over the loadings alone, confounders integrated out.

    It reads the n joint rows V only through ``S = V^T V``.  Each joint
    row is a zero-mean Gaussian with covariance ``C = sigma_z^2 W^T W +
    sigma_obs^2 I``, so

        log p(V, W) = log p(W) - n/2 ((m+1) log 2 pi + log|C|) - tr(C^-1 S) / 2

    and the gradient is ``-W / sigma_w^2 + sigma_z^2 W C^-1 (S - n C) C^-1``.
    Both go through the k x k ``M = sigma_obs^2 I + sigma_z^2 W W^T``: ``log|C| =
    (m+1-k) log sigma_obs^2 + log|M|`` (Sylvester), ``B = W C^-1 = M^-1 W``
    (push-through) and ``C^-1 = (I - sigma_z^2 W^T B) / sigma_obs^2`` (Woodbury).
    A sample costs O(k (m+1)^2 + k^3) at any n.  The flat parameter vector is
    the k x (m+1) loading matrix, row by row.  At k=1 the target works on plain
    (S, m+1) arrays, with M = sigma_z^2 |w|^2 + sigma_obs^2 and q = B S w^T one
    number per sample: the log joint is ``const - |w|^2 / 2 sigma_w^2 - (n/2) log M
    + sigma_z^2 q / 2 sigma_obs^2`` and its gradient ``(sigma_z^2 / sigma_obs^2)
    (B S - sigma_z^2 q B) - n sigma_z^2 B - w / sigma_w^2``.
    """
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

        return target, width

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

    return target, k * width


def _ppca_start(S, n: int, spec: ConfoundedModelSpec) -> VariationalPosterior:
    """A fit's start at the PPCA maximum-likelihood loadings, width 1/sqrt(n).

    It reads the n joint rows V only through ``S = V^T V``.

    The loading posterior is symmetric under W -> -W (rotations for
    k > 1), so a fit started at W = 0 sits on a saddle.  Row i is
    ``sqrt(max(lambda_i - sigma_obs^2, 0)) / sigma_z * u_i^T`` for the
    i-th largest eigenpair of S/n; rows beyond the m+1 eigenpairs stay
    zero.
    """
    width = S.shape[0]
    lam, U = np.linalg.eigh(S / n)
    r = min(spec.k, width)
    lam, U = lam[::-1][:r], U[:, ::-1][:, :r]
    # largest entry positive: the start does not hang on the LAPACK build
    U = U * np.sign(U[np.argmax(np.abs(U), axis=0), np.arange(r)])
    W = np.zeros((spec.k, width))
    W[:r] = (np.sqrt(np.maximum(lam - spec.sigma_obs ** 2, 0.0)) / spec.sigma_z)[:, None] * U.T
    return VariationalPosterior.isotropic(MEAN_FIELD, W.ravel(), 1.0 / math.sqrt(n))


def confounded_code_length(V: JointVector, spec: ConfoundedModelSpec,
                           fit_config: FitConfig | None = None,
                           method: str = "advi") -> CodeLength:
    """Description length of the joint data under the confounded model.

    ``"advi"`` returns the negative ELBO of a mean-field Gaussian fit over
    the loadings, with the confounders integrated out exactly
    (:func:`make_collapsed_target`); the fit starts at the PPCA
    maximum-likelihood loadings.  ``"closed_form"`` (k=1 only) integrates
    the loadings out too, by :func:`confounded_evidence_k1`.
    """
    m = V.width - 1
    if V.n < m + 2:
        raise ValueError(f"need at least m+2={m + 2} rows, have {V.n}")
    S = V.values.T @ V.values
    if method == "closed_form":
        return CodeLength(nats=-confounded_evidence_k1(S, V.n, spec), method=method)
    if method != "advi":
        raise ValueError(f"unknown method {method!r}")
    target, d = make_collapsed_target(S, V.n, spec)
    return _fitted_code_length(target, d, 0.0, MEAN_FIELD, fit_config,
                               start=_ppca_start(S, V.n, spec))


# The radial integral: a sweep in log r, three 8-fold zooms around its
# best point, then 64 Gauss-Legendre nodes per 24-width panel.  A window
# edge whose log integrand is within _TAIL_NATS of the peak moves out by
# another 12 widths (small n skews the radial posterior to the right).
_SWEEP_STEP = 0.1
_ZOOMS = 3
_WINDOW = 12.0
_TAIL_NATS = 40.0
_MAX_WIDENINGS = 8
_GL_NODES = 64


def _require_finite(values: np.ndarray, where: str) -> None:
    if not np.all(np.isfinite(values)):
        raise QuadratureError(f"non-finite radial integrand in the {where}")


def confounded_evidence_k1(S, n: int, spec: ConfoundedModelSpec) -> float:
    """Exact log evidence of the k=1 confounded model from ``S = V^T V``.

    With the confounders integrated out (:func:`make_collapsed_target`) the
    loadings w enter only through r = |w| and u^T S u, u = w / r.  With
    lambda_1 >= ... >= lambda_p the eigenvalues of S and
    kappa(r) = sigma_z^2 r^2 / (2 sigma_obs^2 (sigma_obs^2 + sigma_z^2 r^2)),

        log p(V) = c + log int_0^inf r^(p-1) exp(-r^2 / 2 sigma_w^2
                   - (n/2) log(1 + sigma_z^2 r^2 / sigma_obs^2) + kappa lambda_1)
                   B(kappa (lambda_1 - lambda)) dr,

    c = -(p/2) log 2 pi sigma_w^2 - (np/2) log 2 pi sigma_obs^2 - tr S / 2 sigma_obs^2,
    and B is :func:`gaussmath.log_bingham_constant`'s.  The cost depends only on the
    eigenvalues, so it is the same at any n.  Raises
    :class:`QuadratureError` when B or the radial integrand is not finite.
    """
    if spec.k != 1:
        raise ValueError("the exact evidence needs k=1")
    S = np.asarray(S, dtype=float)
    lam = np.linalg.eigvalsh(S)[::-1]
    p = lam.size
    var_z, var_w, var_obs = spec.sigma_z ** 2, spec.sigma_w ** 2, spec.sigma_obs ** 2
    gaps = lam[0] - lam
    const = (-0.5 * p * math.log(2.0 * math.pi * var_w)
             - 0.5 * n * p * math.log(2.0 * math.pi * var_obs)
             - 0.5 * float(np.trace(S)) / var_obs)

    def log_radial(r):
        r2 = r * r
        kappa = var_z * r2 / (2.0 * var_obs * (var_obs + var_z * r2))
        return ((p - 1) * np.log(r) - r2 / (2.0 * var_w)
                - 0.5 * n * np.log1p(var_z * r2 / var_obs) + kappa * lam[0]
                + log_bingham_constant(kappa[:, None] * gaps))

    # log_radial rises below e^t_lo and falls above e^t_hi (bound its
    # derivative with kappa' <= 1 / (4 sigma_obs^2 r) and lambda_p >= 0)
    t_lo = 0.5 * math.log((p - 1) / (1.0 / var_w + n * var_z / var_obs))
    t_hi = 0.5 * math.log(var_w * (p - 1 + max(lam[0], 0.0) / (4.0 * var_obs)))
    t = np.linspace(t_lo, t_hi, max(math.ceil((t_hi - t_lo) / _SWEEP_STEP) + 1, 3))
    for zoom in range(_ZOOMS + 1):
        values = log_radial(np.exp(t))
        _require_finite(values, "peak search")
        i = min(max(int(np.argmax(values)), 1), t.size - 2)
        if zoom < _ZOOMS:
            t = np.linspace(t[i - 1], t[i + 1], 17)
    # a parabola through the best point and its neighbours, in log r
    step = t[1] - t[0]
    below, peak, above = values[i - 1:i + 2]
    curvature = (2.0 * peak - below - above) / step ** 2
    if not curvature > 0.0:
        raise QuadratureError("radial integrand has no interior peak")
    r_peak = math.exp(t[i] + 0.5 * (above - below) / (step * curvature))
    width = r_peak / math.sqrt(curvature)  # d2/dr2 = d2/dt2 / r^2 at a peak

    left = right = _WINDOW
    for _ in range(_MAX_WIDENINGS):
        lo, hi = r_peak - left * width, r_peak + right * width
        open_ends = log_radial(np.array([max(lo, width), hi])) > peak - _TAIL_NATS
        open_ends[0] &= lo > 0.0
        if not open_ends.any():
            break
        left += _WINDOW * open_ends[0]
        right += _WINDOW * open_ends[1]
    else:
        raise QuadratureError("radial integrand spreads beyond its window")
    edges = np.linspace(max(lo, 0.0), hi, math.ceil((left + right) / (2.0 * _WINDOW)) + 1)
    half = 0.5 * np.diff(edges)[:, None]
    nodes, weights = gauss_legendre(_GL_NODES)
    r = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * nodes).ravel()
    values = log_radial(r)
    _require_finite(values, "radial quadrature")
    top = float(values.max())
    return const + top + math.log(float((half * weights).ravel() @ np.exp(values - top)))


def confounded_evidence_quadrature(V: JointVector, spec: ConfoundedModelSpec,
                                   nodes_per_axis: int = 128) -> float:
    """Brute-force log evidence of the confounded model for m=1, k=1.

    Marginalizes the confounders in closed form per loading value, then
    integrates the two loading coordinates on a Gauss-Legendre grid.
    Exists purely as an independent check of the variational estimate
    and of :func:`confounded_evidence_k1`.
    The grid is fixed at +-8 sigma_w, so it cannot resolve a posterior of
    width ~n^-1/2: on the factor instances of the n=500 oracle test in
    ``tests/test_models.py`` it was 0.23-0.34 nats off the dense grid
    around both modes (0.003-0.023 on the noise instances).  Use it for
    small n only.
    """
    if spec.k != 1 or V.width != 2:
        raise ValueError("quadrature oracle requires k=1 and m=1")
    half_width = 8.0 * spec.sigma_w

    def log_integrand(w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
        # every row's log density under N(0, C), C = sigma_z^2 w w^T + sigma_obs^2 I, summed
        w = np.stack([w1, w2], axis=-1)[..., None]
        C = spec.sigma_z ** 2 * (w @ np.swapaxes(w, -1, -2)) + spec.sigma_obs ** 2 * np.eye(2)
        quad = np.einsum("ri,...ij,rj->...", V.values, np.linalg.inv(C), V.values)
        return (normal_logpdf(w1, spec.sigma_w) + normal_logpdf(w2, spec.sigma_w)
                - 0.5 * (V.n * (2.0 * LOG_2PI + np.linalg.slogdet(C)[1]) + quad))

    # a coarse sweep locates the peak so the fine pass can renormalize
    coarse = np.linspace(-half_width, half_width, 33)
    shift = float(np.max(log_integrand(*np.meshgrid(coarse, coarse, indexing="ij"))))
    if not np.isfinite(shift):
        raise QuadratureError("non-finite integrand during coarse sweep")

    integral = grid_quadrature_2d(
        lambda a, b: np.exp(log_integrand(a, b) - shift),
        ((-half_width, half_width), (-half_width, half_width)),
        nodes_per_axis,
    )
    return shift + math.log(integral)
