"""Tabular ingestion, validation, standardization and splitting.

The CSV surface: UTF-8 with a header row; required columns
``subject_id``, ``dataset``, ``age``, ``sex`` (``M``/``F`` or ``1``/``0``),
an optional diagnosis column, and numeric feature columns selected by
prefix (``vol_``, ``thick_`` by default).  Rows failing validation are
rejected and reported, never imputed.
"""

import csv
import logging
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateColumnError, EmptyTableError, SchemaError, SplitError

log = logging.getLogger(__name__)

SEX_CODES = {"M": 1, "F": 0, "1": 1, "0": 0, "male": 1, "female": 0}


@dataclass(frozen=True)
class SchemaConfig:
    """Names the columns a CSV file must provide."""

    id_column: str = "subject_id"
    dataset_column: str = "dataset"
    age_column: str = "age"
    sex_column: str = "sex"
    diagnosis_column: str = "diagnosis"
    feature_prefixes: tuple[str, ...] = ("vol_", "thick_")
    healthy_label: str = "control"


@dataclass(frozen=True)
class RejectionReport:
    n_rejected: int
    reasons: tuple[str, ...]


class Table:
    """Immutable column-oriented table of validated subjects.

    Numeric payloads are stored as read-only numpy arrays so tables can
    be shared across threads.
    """

    def __init__(self, ids, dataset_labels, ages, sexes, features,
                 feature_names, diagnosis_labels=None, healthy_label="control"):
        self.ids = tuple(str(i) for i in ids)
        self.dataset_labels = np.asarray(dataset_labels, dtype=object)
        self.ages = np.asarray(ages, dtype=float)
        self.sexes = np.asarray(sexes, dtype=int)
        self.features = np.asarray(features, dtype=float).reshape(len(self.ids), -1)
        self.feature_names = tuple(feature_names)
        self.diagnosis_labels = (
            None if diagnosis_labels is None
            else np.asarray(diagnosis_labels, dtype=object)
        )
        self.healthy_label = healthy_label
        self._validate()
        for arr in (self.dataset_labels, self.ages, self.sexes, self.features):
            arr.flags.writeable = False

    def _validate(self):
        n = len(self.ids)
        if n == 0:
            raise EmptyTableError("table has no rows")
        if len(set(self.ids)) != n:
            raise ValueError("subject ids are not unique")
        if self.features.shape != (n, len(self.feature_names)):
            raise ValueError("feature matrix shape does not match declared columns")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("non-finite feature values")
        if not np.all(np.isfinite(self.ages)) or np.any(self.ages <= 0):
            raise ValueError("ages must be finite and > 0")
        if not np.all(np.isin(self.sexes, (0, 1))):
            raise ValueError("sex codes must be 0 or 1")

    @property
    def n_rows(self) -> int:
        return len(self.ids)

    def labels(self) -> list[str]:
        """Distinct dataset labels in sorted order."""
        return sorted(set(self.dataset_labels))

    def diseased_mask(self) -> np.ndarray:
        """True for rows carrying a diagnosis other than the healthy label."""
        if self.diagnosis_labels is None:
            return np.zeros(self.n_rows, dtype=bool)
        return np.array([
            bool(d) and str(d) != self.healthy_label for d in self.diagnosis_labels
        ])

    def column(self, name: str) -> np.ndarray:
        """Look up a numeric column: a feature by name, or age / sex."""
        if name in self.feature_names:
            return self.features[:, self.feature_names.index(name)]
        if name == "age":
            return self.ages
        if name == "sex":
            return self.sexes.astype(float)
        raise KeyError(f"no such column: {name!r}")

    def take(self, indices) -> "Table":
        """New table with the given rows, in the given order."""
        idx = np.asarray(indices, dtype=int)
        return Table(
            ids=[self.ids[i] for i in idx],
            dataset_labels=self.dataset_labels[idx],
            ages=self.ages[idx],
            sexes=self.sexes[idx],
            features=self.features[idx],
            feature_names=self.feature_names,
            diagnosis_labels=None if self.diagnosis_labels is None
            else self.diagnosis_labels[idx],
            healthy_label=self.healthy_label,
        )

    def filter_controls(self) -> "Table":
        keep = ~self.diseased_mask()
        if not np.any(keep):
            raise EmptyTableError("no control rows after filtering")
        return self.take(np.flatnonzero(keep))


def concat_tables(tables) -> Table:
    """Stack tables that share the same feature columns."""
    tables = list(tables)
    names = tables[0].feature_names
    if any(t.feature_names != names for t in tables):
        raise ValueError("tables have mismatched feature columns")
    has_diag = all(t.diagnosis_labels is not None for t in tables)
    return Table(
        ids=[i for t in tables for i in t.ids],
        dataset_labels=np.concatenate([t.dataset_labels for t in tables]),
        ages=np.concatenate([t.ages for t in tables]),
        sexes=np.concatenate([t.sexes for t in tables]),
        features=np.vstack([t.features for t in tables]),
        feature_names=names,
        diagnosis_labels=np.concatenate([t.diagnosis_labels for t in tables])
        if has_diag else None,
        healthy_label=tables[0].healthy_label,
    )


def load_csv(path, schema: SchemaConfig | None = None) -> tuple[Table, RejectionReport]:
    """Ingest a CSV file, validating every row.

    Returns the table of accepted rows plus a report of rejected ones.
    Raises :class:`SchemaError` when a required column is missing and
    :class:`EmptyTableError` when no row survives validation.
    """
    schema = schema or SchemaConfig()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames
        if header is None:
            raise SchemaError(f"{path}: empty file, no header row")
        required = (schema.id_column, schema.dataset_column,
                    schema.age_column, schema.sex_column)
        for col in required:
            if col not in header:
                raise SchemaError(f"{path}: missing required column {col!r}")
        feature_cols = [c for c in header
                        if any(c.startswith(p) for p in schema.feature_prefixes)]
        has_diagnosis = schema.diagnosis_column in header

        ids, labels, ages, sexes, feats, diags = [], [], [], [], [], []
        reasons = []
        for line_no, row in enumerate(reader, start=2):
            reason = _validate_row(row, schema, feature_cols)
            if reason is not None:
                reasons.append(f"line {line_no}: {reason}")
                continue
            ids.append(row[schema.id_column].strip())
            labels.append(row[schema.dataset_column].strip())
            ages.append(float(row[schema.age_column]))
            sexes.append(SEX_CODES[row[schema.sex_column].strip()])
            feats.append([float(row[c]) for c in feature_cols])
            if has_diagnosis:
                diags.append(row[schema.diagnosis_column].strip())

    if not ids:
        raise EmptyTableError(f"{path}: no valid rows after ingestion")
    report = RejectionReport(n_rejected=len(reasons), reasons=tuple(reasons))
    if report.n_rejected:
        log.info("%s: rejected %d row(s)", path, report.n_rejected)
    table = Table(
        ids=ids, dataset_labels=labels, ages=ages, sexes=sexes,
        features=np.array(feats, dtype=float).reshape(len(ids), len(feature_cols)),
        feature_names=feature_cols,
        diagnosis_labels=diags if has_diagnosis else None,
        healthy_label=schema.healthy_label,
    )
    return table, report


def _validate_row(row, schema, feature_cols) -> str | None:
    rid = (row.get(schema.id_column) or "").strip()
    if not rid:
        return "missing subject id"
    if not (row.get(schema.dataset_column) or "").strip():
        return "missing dataset label"
    try:
        age = float(row[schema.age_column])
    except (TypeError, ValueError):
        return f"non-numeric age {row.get(schema.age_column)!r}"
    if not np.isfinite(age) or age <= 0:
        return f"invalid age {age!r}"
    sex_raw = (row.get(schema.sex_column) or "").strip()
    if sex_raw not in SEX_CODES:
        return f"unrecognized sex code {sex_raw!r}"
    for col in feature_cols:
        try:
            value = float(row[col])
        except (TypeError, ValueError):
            return f"non-numeric value in {col!r}"
        if not np.isfinite(value):
            return f"non-finite value in {col!r}"
    return None


@dataclass(frozen=True)
class DatasetSummary:
    dataset: str
    n: int
    age_mean: float
    age_sd: float
    pct_male: float
    n_diseased: int


def summarize(table: Table) -> list[DatasetSummary]:
    """Per-dataset roster: N, age mean/SD (population), % male, N diseased."""
    diseased = table.diseased_mask()
    out = []
    for label in table.labels():
        mask = table.dataset_labels == label
        ages = table.ages[mask]
        out.append(DatasetSummary(
            dataset=label,
            n=int(np.sum(mask)),
            age_mean=float(np.mean(ages)),
            age_sd=float(np.std(ages)),
            pct_male=float(100.0 * np.mean(table.sexes[mask])),
            n_diseased=int(np.sum(diseased[mask])),
        ))
    return out


def standardize_column(values) -> tuple[np.ndarray, float, float]:
    """Center and scale to population SD 1; returns (vector, mean, sd).

    Population SD (divide by n) keeps a standardized column's sum of
    squares exactly n, which is what the unit-scale priors downstream
    assume.  Constant columns cannot be standardized.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise ValueError("need a 1-D vector of length >= 2")
    mean = float(np.mean(values))
    sd = float(np.std(values))
    if sd <= 1e-12:
        raise DegenerateColumnError(f"column is constant (sd={sd:.3e})")
    return (values - mean) / sd, mean, sd


@dataclass(frozen=True)
class CauseTerm:
    column: str
    transform: str = "identity"  # identity | square

    def __post_init__(self):
        if self.transform not in ("identity", "square"):
            raise ValueError(f"unknown transform {self.transform!r}")


@dataclass(frozen=True)
class CauseSpec:
    """Ordered presumed-cause terms, e.g. age, age squared, sex."""

    terms: tuple[CauseTerm, ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("cause spec needs at least one term")
        keys = [(t.column, t.transform) for t in self.terms]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate (column, transform) pairs in cause spec")

    @classmethod
    def parse(cls, text: str) -> "CauseSpec":
        """Parse ``"age,age:square,sex"`` style term lists."""
        terms = []
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            column, _, transform = item.partition(":")
            terms.append(CauseTerm(column, transform or "identity"))
        return cls(terms=tuple(terms))

    @property
    def n_terms(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class DesignMatrix:
    """n x m cause matrix, each column standardized."""

    values: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]


def build_design(table: Table, spec: CauseSpec) -> DesignMatrix:
    """Construct the cause matrix.

    Transforms are applied to the raw column first (so "square" squares
    raw ages, not standardized ones), then each derived column is
    standardized independently.
    """
    n = table.n_rows
    if n < spec.n_terms + 2:
        raise ValueError(f"need at least m+2={spec.n_terms + 2} rows, have {n}")
    cols = []
    for term in spec.terms:
        raw = np.asarray(table.column(term.column), dtype=float)
        if term.transform == "square":
            raw = raw ** 2
        cols.append(standardize_column(raw)[0])
    values = np.column_stack(cols)
    values.flags.writeable = False
    return DesignMatrix(values=values)


def stratified_split(table: Table, train_fraction: float, seed: int) -> tuple[Table, Table]:
    """Split into train/test preserving per-dataset proportions.

    Per-dataset train count is round(fraction * N_d), floored at 1 row.
    Deterministic given the seed; train and test are disjoint and their
    union is a permutation of the input.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for label in table.labels():
        idx = np.flatnonzero(table.dataset_labels == label)
        if idx.size < 2:
            raise SplitError(f"dataset {label!r} has fewer than 2 rows")
        n_train = int(np.rint(train_fraction * idx.size))
        n_train = min(max(n_train, 1), idx.size)
        perm = rng.permutation(idx)
        train_idx.extend(perm[:n_train])
        test_idx.extend(perm[n_train:])
    if not train_idx or not test_idx:
        raise SplitError(
            f"train_fraction={train_fraction} leaves an empty train or test set")
    return table.take(train_idx), table.take(test_idx)
