import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from biasaudit.errors import FactorizationError, QuadratureError
from biasaudit.gaussmath import (SpdMatrix, gauss_legendre, grid_quadrature_2d,
                                 log_bingham_constant, mvn_logpdf)


def random_spd(rng, d):
    a = rng.standard_normal((d, d))
    return a @ a.T + d * np.eye(d)


class TestSpdMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(FactorizationError):
            SpdMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_negative_definite(self):
        with pytest.raises(FactorizationError):
            SpdMatrix(-np.eye(2))

    def test_jitter_rescues_semidefinite(self):
        # rank-1 plus zero: singular but symmetric, fixed by one jitter
        v = np.array([1.0, 1.0])
        m = SpdMatrix(np.outer(v, v))
        assert m.log_det() < 0  # tiny but finite determinant

    def test_values_immutable(self):
        m = SpdMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.values[0, 0] = 5.0


class TestMvnLogpdf:
    def test_standard_1d(self):
        got = mvn_logpdf(np.array([0.0]), np.array([0.0]), SpdMatrix(np.eye(1)))
        assert got == pytest.approx(-0.9189385, abs=1e-6)

    def test_standard_2d(self):
        got = mvn_logpdf(np.zeros(2), np.zeros(2), SpdMatrix(np.eye(2)))
        assert got == pytest.approx(-1.8378771, abs=1e-6)

    def test_scaled_1d(self):
        got = mvn_logpdf(np.array([2.0]), np.array([0.0]),
                         SpdMatrix(np.array([[4.0]])))
        assert got == pytest.approx(-2.1120857, abs=1e-6)

    def test_diagonal_equals_sum_of_univariate(self, rng):
        d = 6
        sds = rng.uniform(0.5, 2.0, size=d)
        x = rng.standard_normal(d)
        mean = rng.standard_normal(d)
        got = mvn_logpdf(x, mean, SpdMatrix(np.diag(sds ** 2)))
        want = sum(
            mvn_logpdf(np.array([x[i]]), np.array([mean[i]]),
                       SpdMatrix(np.array([[sds[i] ** 2]])))
            for i in range(d))
        assert got == pytest.approx(want, abs=1e-10)

    def test_maximized_at_mean(self, rng):
        cov = SpdMatrix(random_spd(rng, 4))
        mean = rng.standard_normal(4)
        at_mean = mvn_logpdf(mean, mean, cov)
        for _ in range(20):
            assert mvn_logpdf(mean + 0.1 * rng.standard_normal(4), mean, cov) < at_mean

    def test_batch_rows_sum(self, rng):
        cov = SpdMatrix(random_spd(rng, 3))
        xs = rng.standard_normal((5, 3))
        mean = np.zeros(3)
        total = mvn_logpdf(xs, mean, cov)
        assert total == pytest.approx(sum(mvn_logpdf(x, mean, cov) for x in xs))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mvn_logpdf(np.zeros(3), np.zeros(2), SpdMatrix(np.eye(2)))


class TestCholLogdet:
    def test_identity(self):
        assert SpdMatrix(np.eye(3)).log_det() == pytest.approx(0.0, abs=1e-12)

    def test_diag(self):
        assert SpdMatrix(np.diag([2.0, 2.0])).log_det() == pytest.approx(
            1.3862944, abs=1e-6)

    @pytest.mark.parametrize("d", [2, 5, 20, 50])
    def test_matches_eigenvalue_oracle(self, rng, d):
        m = random_spd(rng, d)
        want = float(np.sum(np.log(np.linalg.eigvalsh(m))))
        assert SpdMatrix(m).log_det() == pytest.approx(want, abs=1e-8)


class TestGridQuadrature2d:
    def test_gaussian_mass(self):
        f = lambda x, y: np.exp(-0.5 * (x ** 2 + y ** 2)) / (2 * np.pi)
        got = grid_quadrature_2d(f, ((-8, 8), (-8, 8)), 64)
        assert got == pytest.approx(1.0, abs=1e-6)

    def test_second_moment(self):
        f = lambda x, y: x ** 2 * np.exp(-0.5 * (x ** 2 + y ** 2)) / (2 * np.pi)
        got = grid_quadrature_2d(f, ((-8, 8), (-8, 8)), 64)
        assert got == pytest.approx(1.0, abs=1e-6)

    def test_node_doubling_converges(self):
        f = lambda x, y: np.exp(-0.5 * (x ** 2 + y ** 2) + 0.3 * x * y * 0.5) / (2 * np.pi)
        a = grid_quadrature_2d(f, ((-8, 8), (-8, 8)), 64)
        b = grid_quadrature_2d(f, ((-8, 8), (-8, 8)), 128)
        assert abs(a - b) < 1e-8

    def test_rejects_few_nodes(self):
        with pytest.raises(ValueError):
            grid_quadrature_2d(lambda x, y: x * y, ((0, 1), (0, 1)), 8)

    def test_nonfinite_integrand(self):
        f = lambda x, y: np.where(x > 0, np.inf, 1.0)
        with pytest.raises(QuadratureError):
            grid_quadrature_2d(f, ((-1, 1), (-1, 1)), 32)


@pytest.mark.parametrize("m", [2, 5, 32, 64, 128])
def test_gauss_legendre_equals_numpy_rule(m):
    nodes, weights = gauss_legendre(m)
    want_nodes, want_weights = leggauss(m)
    np.testing.assert_allclose(nodes, want_nodes, rtol=0, atol=1e-14)
    np.testing.assert_allclose(weights, want_weights, rtol=0, atol=1e-14)


def _sphere_grid_bingham(a) -> float:
    """B(a) on a tensor grid over the unit sphere at p=3 or p=4.

    The polar angle enters through x = cos(theta) on Gauss-Legendre nodes
    (for p=4 after a first angle psi with weight sin(psi)^2), and the
    azimuth phi through the periodic trapezoid rule.
    """
    a = np.asarray(a, dtype=float)
    x, wx = leggauss(160)
    phi = np.linspace(0.0, 2.0 * np.pi, 320, endpoint=False)
    rest = 1.0 - x[:, None] ** 2
    # sum_i a_i u_i^2 over the (x, phi) grid for the last three coordinates
    tail = (a[-3] * x[:, None] ** 2
            + rest * (a[-2] * np.cos(phi) ** 2 + a[-1] * np.sin(phi) ** 2))
    weights = wx[:, None] * (2.0 * np.pi / phi.size)
    if a.size == 3:
        return float(np.sum(weights * np.exp(-tail)))
    psi, wpsi = leggauss(160)
    psi = 0.5 * np.pi * (psi + 1.0)
    wpsi = 0.5 * np.pi * wpsi * np.sin(psi) ** 2
    inner = np.exp(-(a[0] * np.cos(psi)[:, None, None] ** 2
                     + np.sin(psi)[:, None, None] ** 2 * tail))
    return float(np.sum(wpsi[:, None, None] * weights * inner))


def _log_equal_tail_bingham(p: int, A: float) -> float:
    """log B(0, A, ..., A) from the large-A series of 1F1(1/2; p/2; A).

    B(0, A, ..., A) = |S^(p-1)| e^-A 1F1(1/2; p/2; A), and for large A
    1F1(1/2; p/2; A) ~ Gamma(p/2) / Gamma(1/2) e^A A^((1-p)/2)
    sum_k (1/2)_k ((p-1)/2)_k / (k! A^k), up to a term of relative size e^-A.
    """
    total, term = 0.0, 1.0
    for k in range(20):
        total += term
        term *= (0.5 + k) * (0.5 * (p - 1) + k) / ((k + 1) * A)
    return math.log(2.0) + 0.5 * (p - 1) * math.log(math.pi / A) + math.log(total)


class TestBinghamConstant:
    @pytest.mark.parametrize("a", [
        (0.0, 0.0, 0.0), (0.0, 3.5, 50.0), (2.0, 9.0, 41.0), (0.0, 20.0, 20.0),
        (0.0, 0.0, 0.0, 0.0), (0.0, 1.0, 5.0, 50.0), (3.0, 7.0, 11.0, 13.0),
        (0.0, 30.0, 30.0, 30.0),
    ])
    def test_matches_spherical_grid(self, a):
        want = math.log(_sphere_grid_bingham(a))
        assert float(log_bingham_constant(np.array(a))) == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("p", [2, 3, 4])
    @pytest.mark.parametrize("A", [1e3, 1e5, 1e7])
    def test_equal_tail_matches_confluent_series(self, p, A):
        a = np.array([0.0] + [A] * (p - 1))
        assert float(log_bingham_constant(a)) == pytest.approx(
            _log_equal_tail_bingham(p, A), abs=1e-10)

    def test_batches_over_leading_axes(self, rng):
        a = rng.uniform(0.0, 40.0, size=(3, 5, 4))
        batch = log_bingham_constant(a)
        assert batch.shape == (3, 5)
        assert batch[2, 1] == float(log_bingham_constant(a[2, 1]))
