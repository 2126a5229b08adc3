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
        self.ids = tuple(map(str, ids))
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
            ids=np.array(self.ids, dtype=object)[idx],
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


# records per parse block.  A block's strings are what the parse holds at
# once, so peak RSS grows with the block: 2,048-record blocks raised it by
# ~1 MB over 256 on a 3,000-row file (and a whole-file parse by ~10% on a
# 15,000-row one), while the parse took the same time from 256 to 2,048.
BLOCK_RECORDS = 256


def load_csv(path, schema: SchemaConfig | None = None) -> tuple[Table, RejectionReport]:
    """Ingest a CSV file, validating every row.

    Returns the table of accepted rows plus a report of rejected ones;
    each rejection names the file line its record starts on.  Records
    are parsed by columns, a block at a time; a block holding a ragged
    or invalid record is validated record by record, so that each
    rejection gets its reason, and its accepted records are then parsed
    by columns.  Raises :class:`SchemaError` when a required column is
    missing and :class:`EmptyTableError` when no row survives validation.
    """
    schema = schema or SchemaConfig()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
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

        parts, reasons = [], []
        for starts, records in _record_blocks(reader):
            part = _parse_columns(records, header, schema, feature_cols, has_diagnosis)
            if part is None:
                records = _valid_records(records, starts, header, schema, feature_cols,
                                         reasons)
                part = _parse_columns(records, header, schema, feature_cols, has_diagnosis)
            parts.append(part)

    if not sum(part[0].size for part in parts):
        raise EmptyTableError(f"{path}: no valid rows after ingestion")
    ids, labels, ages, sexes, feats, diags = (np.concatenate(field) for field in zip(*parts))
    report = RejectionReport(n_rejected=len(reasons), reasons=tuple(reasons))
    if report.n_rejected:
        log.info("%s: rejected %d row(s)", path, report.n_rejected)
    table = Table(
        ids=ids, dataset_labels=labels, ages=ages, sexes=sexes, features=feats,
        feature_names=feature_cols,
        diagnosis_labels=diags if has_diagnosis else None,
        healthy_label=schema.healthy_label,
    )
    return table, report


def _record_blocks(reader):
    """Non-blank records in blocks of :data:`BLOCK_RECORDS`, with the line each starts on."""
    starts, records = [], []
    line = reader.line_num
    for record in reader:
        if record:  # a blank line reads as []
            starts.append(line + 1)
            records.append(record)
            if len(records) == BLOCK_RECORDS:
                yield starts, records
                starts, records = [], []
        line = reader.line_num
    if records:
        yield starts, records


def _parse_columns(records, header, schema, feature_cols, has_diagnosis):
    """A block's columns when every record is complete and valid, else None.

    Accepts exactly the records :func:`_validate_row` accepts and reads
    the same values: ``np.array(..., dtype=float)`` parses strings as
    ``float`` does.
    """
    if any(len(record) != len(header) for record in records):
        return None
    at = {name: i for i, name in enumerate(header)}  # a repeated name: its last column
    columns = list(zip(*records)) or [()] * len(header)
    try:
        ages = np.array(columns[at[schema.age_column]], dtype=float)
        feats = np.array([columns[at[c]] for c in feature_cols], dtype=float)
    except ValueError:
        return None
    ids = [v.strip() for v in columns[at[schema.id_column]]]
    labels = [v.strip() for v in columns[at[schema.dataset_column]]]
    sexes = [SEX_CODES.get(v.strip()) for v in columns[at[schema.sex_column]]]
    if (not all(ids) or not all(labels) or None in sexes
            or not np.all(np.isfinite(ages) & (ages > 0)) or not np.all(np.isfinite(feats))):
        return None
    diags = ([v.strip() for v in columns[at[schema.diagnosis_column]]]
             if has_diagnosis else [])
    return (np.array(ids, dtype=object), np.array(labels, dtype=object), ages,
            np.array(sexes, dtype=int), feats.reshape(len(feature_cols), len(records)).T,
            np.array(diags, dtype=object))


def _valid_records(records, starts, header, schema, feature_cols, reasons):
    """A block's accepted records, cut or padded with "" to the header width.

    Each record is validated as a ``csv.DictReader`` row: fields beyond
    the header are ignored and a short record's missing fields are None.
    Rejections go to ``reasons``.
    """
    kept = []
    for line, record in zip(starts, records):
        row = dict(zip(header, record))
        row.update(dict.fromkeys(header[len(record):]))
        reason = _validate_row(row, schema, feature_cols)
        if reason is None:
            kept.append((record + [""] * len(header))[:len(header)])
        else:
            reasons.append(f"line {line}: {reason}")
    return kept


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


def build_design(table: Table, spec: CauseSpec) -> np.ndarray:
    """The read-only n x m cause matrix, each column standardized.

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
    return values


def label_codes(values, labels) -> np.ndarray:
    """Each value's index in ``labels``."""
    code_of = {label: i for i, label in enumerate(labels)}
    return np.array([code_of[v] for v in values.tolist()], dtype=int)


def stratify(table: Table, train_fraction: float) -> tuple[list[np.ndarray], np.ndarray]:
    """Each dataset's rows, in sorted label order, and its train row count.

    The train count is round(fraction * N_d), floored at 1 row.  Raises
    :class:`SplitError` when a dataset has fewer than 2 rows or no row
    is left to test; that depends only on the per-dataset counts and the
    fraction, never on a seed.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie in (0, 1)")
    labels = table.labels()
    codes = label_codes(table.dataset_labels, labels)
    sizes = np.bincount(codes, minlength=len(labels))
    small = np.flatnonzero(sizes < 2)
    if small.size:
        raise SplitError(f"dataset {labels[small[0]]!r} has fewer than 2 rows")
    n_train = np.minimum(np.maximum(np.rint(train_fraction * sizes).astype(int), 1), sizes)
    if np.array_equal(n_train, sizes):
        raise SplitError(
            f"train_fraction={train_fraction} leaves an empty train or test set")
    groups = np.split(np.argsort(codes, kind="stable"), np.cumsum(sizes)[:-1])
    return groups, n_train


def stratified_split(table: Table, train_fraction: float, seed: int) -> tuple[Table, Table]:
    """Split into train/test preserving per-dataset proportions.

    Per-dataset train counts come from :func:`stratify`.  Deterministic
    given the seed; train and test are disjoint and their union is a
    permutation of the input.
    """
    groups, n_train = stratify(table, train_fraction)
    rng = np.random.default_rng(seed)
    train_parts, test_parts = [], []
    for rows, k in zip(groups, n_train):
        perm = rng.permutation(rows)
        train_parts.append(perm[:k])
        test_parts.append(perm[k:])
    return table.take(np.concatenate(train_parts)), table.take(np.concatenate(test_parts))
