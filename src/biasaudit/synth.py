"""Synthetic tables with known causal ground truth.

Two generators: a single-dataset mixer that interpolates between a
pure-causal and a pure-confounded structural model via a weight
``alpha``, and a multi-dataset generator with controllable per-dataset
shifts for the membership classifier.  Everything is deterministic
given the seed, and the mixer's ground-truth record carries enough to
recompute the target column bit-for-bit.
"""

from dataclasses import dataclass

import numpy as np

from .tabular import SchemaConfig, Table, concat_tables, write_csv


@dataclass(frozen=True)
class GenSpec:
    """Parameters of the mixed causal/confounded generator.

    ``alpha`` = 1 is pure causality (causes drive the target), 0 is
    pure confounding (a shared latent drives causes and target).
    The causal weights and latent loadings are unit-norm vectors drawn
    from the seed.
    """

    n: int = 500
    m: int = 3
    k: int = 1
    alpha: float = 1.0
    noise_sd: float = 0.5
    seed: int = 0
    dataset: str = "synthetic"

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.n < 10:
            raise ValueError("need n >= 10")
        if self.m < 1 or self.k < 1:
            raise ValueError("need m >= 1 and k >= 1")
        if not 0.0 < self.noise_sd < np.inf:
            raise ValueError(f"noise_sd must be finite and positive, got {self.noise_sd}")


@dataclass
class GroundTruth:
    """Everything needed to replay the generated target column exactly."""

    alpha: float
    weights: np.ndarray          # (m,) causal weights
    cause_loadings: np.ndarray   # (m, k) latent-to-cause loadings, unit-norm rows
    latent_loadings: np.ndarray  # (k,) latent-to-target weights
    noise_sd: float
    seed: int
    latents: np.ndarray          # (n, k) confounder draws
    noise: np.ndarray            # (n,) target noise draws

    def replay_target(self, causes: np.ndarray) -> np.ndarray:
        """Recompute the target from the cause matrix and stored draws."""
        return (self.alpha * (causes @ self.weights)
                + (1.0 - self.alpha) * (self.latents @ self.latent_loadings)
                + self.noise)


def _unit_rows(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    a = rng.standard_normal((rows, cols))
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def gen_mixed(spec: GenSpec) -> tuple[Table, GroundTruth]:
    """Draw one dataset from the mixed structural model.

    Each cause column is ``sqrt(alpha)`` parts independent noise and
    ``sqrt(1-alpha)`` parts latent-driven, so it has unit variance for
    every alpha.  The target mixes the causal and latent channels with
    weights alpha and 1-alpha plus observation noise.  Cause columns
    are written as features ``vol_x1..vol_xm``, the target as
    ``vol_y``; age and sex are schema filler, not part of the
    structure.
    """
    rng = np.random.default_rng(spec.seed)
    z = rng.standard_normal((spec.n, spec.k))
    eps_x = rng.standard_normal((spec.n, spec.m))
    cause_loadings = _unit_rows(rng, spec.m, spec.k)
    weights = _unit_rows(rng, 1, spec.m)[0]
    latent_loadings = _unit_rows(rng, 1, spec.k)[0]
    noise = spec.noise_sd * rng.standard_normal(spec.n)

    x = np.sqrt(spec.alpha) * eps_x + np.sqrt(1.0 - spec.alpha) * (z @ cause_loadings.T)
    truth = GroundTruth(
        alpha=spec.alpha, weights=weights, cause_loadings=cause_loadings,
        latent_loadings=latent_loadings, noise_sd=spec.noise_sd,
        seed=spec.seed, latents=z, noise=noise,
    )
    y = truth.replay_target(x)

    ages = rng.uniform(20.0, 80.0, size=spec.n)
    sexes = rng.integers(0, 2, size=spec.n)
    feature_names = [f"vol_x{j + 1}" for j in range(spec.m)] + ["vol_y"]
    table = Table(
        ids=[f"{spec.dataset}_{i:05d}" for i in range(spec.n)],
        dataset_labels=[spec.dataset] * spec.n,
        ages=ages,
        sexes=sexes,
        features=np.column_stack([x, y]),
        feature_names=feature_names,
        diagnosis_labels=["control"] * spec.n,
    )
    return table, truth


MULTIDATASET_FEATURES = ("vol_f1", "vol_f2", "thick_f1", "thick_f2")


@dataclass(frozen=True)
class MultiDatasetSpec:
    """Shifted unit-SD Gaussian features for several named datasets."""

    n_per_dataset: int = 200
    shifts: tuple[float, ...] = (0.0, 0.0)
    seed: int = 0

    def __post_init__(self):
        if len(self.shifts) < 2:
            raise ValueError("need at least 2 datasets")
        if self.n_per_dataset < 1:
            raise ValueError(f"n_per_dataset must be >= 1, got {self.n_per_dataset}")
        if not np.isfinite(self.shifts).all():
            raise ValueError(f"shifts must be finite, got {self.shifts}")

    @property
    def n_datasets(self) -> int:
        return len(self.shifts)


def gen_multidataset(spec: MultiDatasetSpec) -> Table:
    """Draw one table of several datasets with per-dataset feature shifts.

    All-zero shifts make the datasets exchangeable, so a membership
    classifier can do no better than chance.  Age and sex are drawn
    identically for every dataset.
    """
    parts = []
    for d in range(spec.n_datasets):
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, d]))
        n = spec.n_per_dataset
        features = spec.shifts[d] + rng.standard_normal((n, len(MULTIDATASET_FEATURES)))
        parts.append(Table(
            ids=[f"ds{d:02d}_{i:05d}" for i in range(n)],
            dataset_labels=[f"ds{d:02d}"] * n,
            ages=rng.uniform(20.0, 80.0, size=n),
            sexes=rng.integers(0, 2, size=n),
            features=features,
            feature_names=MULTIDATASET_FEATURES,
            diagnosis_labels=["control"] * n,
        ))
    return concat_tables(parts)


def write_table_csv(table: Table, path) -> None:
    """Write a table under :class:`SchemaConfig`'s default column names.

    Floats are written with full round-trip precision so a reloaded
    table is bit-identical.
    """
    schema = SchemaConfig()
    header = [schema.id_column, schema.dataset_column, schema.age_column, schema.sex_column,
              schema.diagnosis_column]
    columns = [table.ids, table.dataset_labels, map(float, table.ages), map(int, table.sexes),
               table.diagnosis_labels]
    # one row at a time, in Python numbers: a numpy float's repr names its type
    rows = ([*fields, *values] for fields, values
            in zip(zip(*columns), map(np.ndarray.tolist, table.features)))
    write_csv(path, header + list(table.feature_names), rows)
