"""Exception types shared across the package."""


class BiasAuditError(Exception):
    """Base class for all package errors."""


class SchemaError(BiasAuditError):
    """The input file does not match the declared schema."""


class EmptyTableError(BiasAuditError):
    """Ingestion produced zero valid rows."""


class DegenerateColumnError(BiasAuditError):
    """A column is (numerically) constant and cannot be standardized."""


class SplitError(BiasAuditError):
    """A train/test split request cannot be satisfied."""


class FactorizationError(BiasAuditError):
    """A matrix that must be SPD failed its Cholesky factorization."""


class QuadratureError(BiasAuditError):
    """The k=1 evidence's radial quadrature, or a brute-force quadrature oracle,
    met a non-finite value or an integrand it could not bracket."""


class DivergenceError(BiasAuditError):
    """A variational fit produced non-finite objectives for too many
    consecutive steps; the message names the iteration it stopped at."""


class EstimationError(BiasAuditError):
    """An estimate is not usable: a Monte-Carlo estimate had too many
    non-finite samples, or a code length came out non-finite."""
