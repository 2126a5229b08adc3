"""Dense Gaussian linear algebra and low-dimensional quadrature.

All log densities are in nats.  Matrices here are small, so everything
is plain dense numpy: scoring factors only the m x m precision ``P`` of
``models.causal_evidence_closed_form`` (m = cause columns), and the
fixed-loadings oracle ``models.ppca_evidence_fixed_W`` the (m+1) x
(m+1) row covariance.  No n x n matrix is formed.  The quadrature rules
(Gauss-Legendre, and the fixed Talbot contour behind the Bingham
normalising constant) serve ``models.confounded_evidence_k1`` and the
grid oracle.
"""

import functools
import math

import numpy as np

from .errors import FactorizationError, QuadratureError

LOG_2PI = float(np.log(2.0 * np.pi))

# One-shot jitter added when a nominally-SPD matrix fails to factor.  Both
# matrices factored here carry a scaled identity (I/sigma_w^2 in P,
# sigma_obs^2 I in the row covariance), so this guards against round-off
# under extreme scales rather than a routine loss of definiteness.
_JITTER_SCALE = 1e-8


class SpdMatrix:
    """Symmetric positive-definite matrix with a cached Cholesky factor.

    Construction validates symmetry and factors the matrix once.  If the
    factorization fails, a single jitter of ``1e-8 * mean(diag)`` is added
    to the diagonal and retried; a second failure raises
    :class:`FactorizationError`.
    """

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {values.shape}")
        if not np.allclose(values, values.T, rtol=1e-10, atol=1e-10):
            raise FactorizationError("matrix is not symmetric within 1e-10")
        try:
            chol = np.linalg.cholesky(values)
        except np.linalg.LinAlgError:
            jitter = _JITTER_SCALE * float(np.mean(np.diag(values)))
            jittered = values + jitter * np.eye(values.shape[0])
            try:
                chol = np.linalg.cholesky(jittered)
            except np.linalg.LinAlgError as exc:
                raise FactorizationError(
                    f"Cholesky failed even after jitter {jitter:.3e}"
                ) from exc
            values = jittered
        self.values = values
        self.chol = chol
        self.values.flags.writeable = False
        self.chol.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def log_det(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self.chol))))

    def mahalanobis_sq(self, residuals: np.ndarray) -> np.ndarray:
        """r^T A^{-1} r for one residual vector or a batch of rows."""
        r = np.atleast_2d(np.asarray(residuals, dtype=float))
        # a general LU solve against the lower factor, not a triangular one
        u = np.linalg.solve(self.chol, r.T)
        out = np.sum(u * u, axis=0)
        return out if np.asarray(residuals).ndim > 1 else float(out[0])


def mvn_logpdf(x: np.ndarray, mean: np.ndarray, cov: SpdMatrix) -> float:
    """log N(x; mean, cov) in nats.

    ``x`` may also be an (n, d) batch of rows, in which case the summed
    log density of the independent rows is returned.
    """
    x = np.asarray(x, dtype=float)
    mean = np.asarray(mean, dtype=float)
    batched = x.ndim > 1
    d = cov.dim
    if x.shape[-1] != d or mean.shape[-1] != d:
        raise ValueError("dimension mismatch between x, mean and cov")
    quad = cov.mahalanobis_sq(x - mean)
    per_row = -0.5 * (d * LOG_2PI + cov.log_det() + quad)
    return float(np.sum(per_row)) if batched else float(per_row)


def normal_logpdf(x, sd: float):
    """Elementwise log N(x; 0, sd^2); broadcasts over arrays."""
    x = np.asarray(x, dtype=float)
    return -0.5 * (LOG_2PI + 2.0 * np.log(sd) + (x / sd) ** 2)


def grid_quadrature_2d(f, bounds, nodes_per_axis: int) -> float:
    """Tensor-product Gauss-Legendre estimate of a 2-D integral.

    ``f`` must accept two broadcastable arrays (meshgrid evaluation) and
    return the integrand values.  ``bounds`` is ``((x_lo, x_hi), (y_lo,
    y_hi))``.  Used as the brute-force evidence oracle for the latent
    models, so it refuses non-finite integrand values outright.
    """
    if nodes_per_axis < 32:
        raise ValueError("nodes_per_axis must be >= 32")
    (x_lo, x_hi), (y_lo, y_hi) = bounds
    nodes, weights = gauss_legendre(nodes_per_axis)
    x_nodes = 0.5 * (x_hi - x_lo) * nodes + 0.5 * (x_hi + x_lo)
    y_nodes = 0.5 * (y_hi - y_lo) * nodes + 0.5 * (y_hi + y_lo)
    x_w = 0.5 * (x_hi - x_lo) * weights
    y_w = 0.5 * (y_hi - y_lo) * weights
    xx, yy = np.meshgrid(x_nodes, y_nodes, indexing="ij")
    values = np.asarray(f(xx, yy), dtype=float)
    if values.shape != xx.shape:
        raise ValueError("integrand did not broadcast over the grid")
    if not np.all(np.isfinite(values)):
        raise QuadratureError("non-finite integrand value on quadrature grid")
    return float(x_w @ values @ y_w)


# The quadrature rules below are built on first use and cached: computed at
# import, their complex and elementwise kernels raised every command's peak
# memory by ~0.7 MB, whether it scored anything exactly or not.
@functools.cache
def _talbot_contour(m: int):
    """Nodes s_j and weights w_j of the fixed Talbot rule at t = 1 (read-only).

    An inverse Laplace transform is then f(1) ~ sum_j Re(w_j exp(s_j) F(s_j))
    (Abate & Valko, 2004): the contour s(theta) = r theta (cot theta + i),
    r = 2m/5, sampled at theta_j = j pi / m.
    """
    theta = np.arange(1, m) * (math.pi / m)
    cot = 1.0 / np.tan(theta)
    r = 0.4 * m
    nodes = np.concatenate([[r], r * theta * (cot + 1j)])
    weights = (r / m) * np.concatenate([[0.5], 1.0 + 1j * (theta + (theta * cot - 1.0) * cot)])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


# 24 nodes held log B within 3e-11 of spherical grids and of the 1F1 series
# for arguments up to 1e13 (tests/test_gaussmath.py checks up to 1e7)
_TALBOT_NODES = 24


@functools.cache
def gauss_legendre(m: int):
    """Gauss-Legendre nodes and weights on [-1, 1] (read-only), by Newton on P_m.

    Elementwise numpy only: ``numpy.polynomial`` (0.75 MB) and a LAPACK
    eigensolver of the Jacobi matrix would each raise the score path's
    peak memory for a few dozen numbers.
    """
    x = np.cos(math.pi * (np.arange(m, 0, -1) - 0.25) / (m + 0.5))
    for _ in range(100):
        below, p_m = np.ones(m), x
        for k in range(2, m + 1):
            below, p_m = p_m, ((2 * k - 1) * x * p_m - (k - 1) * below) / k
        slope = m * (x * p_m - below) / (x * x - 1.0)
        step = p_m / slope
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    weights = 2.0 / ((1.0 - x * x) * slope * slope)
    x.flags.writeable = weights.flags.writeable = False
    return x, weights


def log_bingham_constant(a) -> np.ndarray:
    """log B(a), B(a) = the integral of exp(-sum_i a_i u_i^2) over the unit sphere.

    ``a`` is a nonnegative (..., p) array; the result has shape
    ``a.shape[:-1]``.  B is the Bingham normalising constant (Kume & Wood,
    2005).  In polar form the Gaussian integral over R^p of exp(-s|x|^2 -
    sum a_i x_i^2) = pi^(p/2) prod_i (s + a_i)^(-1/2) is the Laplace
    transform of t^(p/2-1) B(t a) / 2, so B(a) = 2 f(1) for f its inverse.
    Every singularity lies on (-inf, 0], which the Talbot contour encloses.
    A non-positive sum (lost precision) comes back as NaN or -inf.
    """
    a = np.asarray(a, dtype=float)
    p = a.shape[-1]
    nodes, weights = _talbot_contour(_TALBOT_NODES)
    exponent = nodes + (0.5 * p * math.log(math.pi)
                        - 0.5 * np.sum(np.log(nodes[:, None] + a[..., None, :]), axis=-1))
    shift = np.max(exponent.real, axis=-1)
    total = np.sum((np.exp(exponent - shift[..., None]) * weights).real, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return math.log(2.0) + shift + np.log(total)
