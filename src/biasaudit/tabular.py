"""Tabular ingestion, validation, standardization and splitting.

The CSV surface: UTF-8 with a header row; required columns
``subject_id``, ``dataset``, ``age``, ``sex`` (``M``/``F``,
``male``/``female`` or ``1``/``0``), an optional diagnosis column, and
numeric feature columns selected by prefix (``vol_``, ``thick_`` by
default).  Rows failing validation are rejected and reported, never
imputed.
"""

import copy
import csv
import hashlib
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateColumnError, EmptyTableError, SchemaError, SplitError

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
    sha256: str = field(default="", compare=False)  # hex digest of the file's bytes


class _HashingReader(io.RawIOBase):
    """A binary file that feeds every byte read from it to a SHA-256."""

    def __init__(self, raw):
        self.raw, self.hash = raw, hashlib.sha256()

    def readable(self):
        return True

    def readinto(self, buffer):
        n = self.raw.readinto(buffer)
        self.hash.update(memoryview(buffer)[:n])
        return n


class Table:
    """Immutable column-oriented table of validated subjects.

    Numeric payloads are stored as read-only numpy arrays so tables can
    be shared across threads.  Without diagnosis labels every row's
    label is ``""``, which reads as healthy.  The dataset labels are
    held once, coded when a table is built: the sorted distinct labels,
    and ``dataset_codes``, one small integer per row giving its label's
    place among them; ``dataset_labels`` reads them back as labels.
    :meth:`take` gathers the codes with the rows and never codes again,
    so a taken table may keep a label that none of its rows carries;
    :meth:`labels` lists only the labels present.
    """

    # each array with one entry per row, by the argument it is built from:
    # take gathers them, _freeze locks them and _validate checks their length
    _PER_ROW = {"_id_array": "ids", "dataset_codes": "dataset_labels", "ages": "ages",
                "sexes": "sexes", "features": "features",
                "diagnosis_labels": "diagnosis_labels"}

    def __init__(self, ids, dataset_labels, ages, sexes, features,
                 feature_names, diagnosis_labels=(), healthy_label="control"):
        self._id_array = np.array(list(map(str, ids)), dtype=object)
        labels = np.asarray(dataset_labels, dtype=object)
        self._dataset_names = tuple(sorted(set(labels.ravel().tolist())))
        self.dataset_codes = label_codes(labels.ravel(), self._dataset_names).astype(
            np.min_scalar_type(len(self._dataset_names))).reshape(labels.shape)
        self.ages = np.asarray(ages, dtype=float)
        self.sexes = np.asarray(sexes, dtype=int)
        self.features = np.asarray(features, dtype=float).reshape(self.n_rows, -1)
        self.feature_names = tuple(feature_names)
        self.diagnosis_labels = np.asarray(diagnosis_labels, dtype=object)
        if self.diagnosis_labels.size == 0:
            self.diagnosis_labels = np.full(self.n_rows, "", dtype=object)
        self.healthy_label = healthy_label
        self._validate()
        self._freeze()

    def _freeze(self):
        for name in self._PER_ROW:
            getattr(self, name).flags.writeable = False

    def _validate(self):
        n = self.n_rows
        if n == 0:
            raise EmptyTableError("table has no rows")
        if len(set(self._id_array.tolist())) != n:
            raise ValueError("subject ids are not unique")
        if self.features.shape != (n, len(self.feature_names)):
            raise ValueError("feature matrix shape does not match declared columns")
        for name, argument in self._PER_ROW.items():
            shape = getattr(self, name).shape  # (n,), or (n, columns) for the features
            if shape[:1] != (n,) or len(shape) != 1 + (name == "features"):
                raise ValueError(f"{argument} must hold one value per row")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("non-finite feature values")
        if not np.all(np.isfinite(self.ages)) or np.any(self.ages <= 0):
            raise ValueError("ages must be finite and > 0")
        if not np.all(np.isin(self.sexes, (0, 1))):
            raise ValueError("sex codes must be 0 or 1")

    @property
    def n_rows(self) -> int:
        return self._id_array.size

    @property
    def ids(self) -> tuple[str, ...]:
        """Subject ids in row order."""
        return tuple(self._id_array.tolist())

    @property
    def dataset_labels(self) -> np.ndarray:
        """Each row's dataset label, as a read-only array read from the codes."""
        labels = np.array(self._dataset_names, dtype=object)[self.dataset_codes]
        labels.flags.writeable = False
        return labels

    def labels(self) -> list[str]:
        """Distinct dataset labels in sorted order."""
        present = np.bincount(self.dataset_codes, minlength=len(self._dataset_names))
        return [self._dataset_names[i] for i in np.flatnonzero(present)]

    def rows_by_dataset(self) -> dict[str, np.ndarray]:
        """Each dataset label, in sorted order, with its row numbers, ascending."""
        codes = self.dataset_codes
        sizes = np.bincount(codes, minlength=len(self._dataset_names))
        groups = np.split(np.argsort(codes, kind="stable"), np.cumsum(sizes)[:-1])
        return {name: rows for name, rows in zip(self._dataset_names, groups) if rows.size}

    def diseased_mask(self) -> np.ndarray:
        """True for rows carrying a diagnosis other than the healthy label."""
        labels = self.diagnosis_labels
        return (labels != "") & (labels != self.healthy_label)

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
        """New table with the given rows, in the given order.

        ``indices`` are integer row numbers; negative ones count from
        the end, and one out of range raises IndexError.  Any other
        dtype, a boolean mask among them, raises TypeError.  The rows
        were validated when this table was built, so only the selection
        is checked: it must name at least one row and no row twice,
        which keeps the subject ids unique.
        """
        indices = np.asarray(indices)
        if indices.size == 0:
            raise EmptyTableError("table has no rows")
        if indices.dtype.kind not in "iu":
            raise TypeError(f"take needs integer row numbers, got dtype {indices.dtype}")
        idx = np.arange(self.n_rows)[indices]
        if np.bincount(idx).max() > 1:
            raise ValueError("subject ids are not unique")
        sub = copy.copy(self)
        for name in self._PER_ROW:
            setattr(sub, name, getattr(self, name)[idx])
        sub._freeze()
        return sub

    def filter_controls(self) -> "Table":
        keep = ~self.diseased_mask()
        if not np.any(keep):
            raise EmptyTableError("no control rows after filtering")
        return self.take(np.flatnonzero(keep))


def concat_tables(tables) -> Table:
    """Stack tables that share the same feature columns and healthy label."""
    tables = list(tables)
    if not tables:
        raise ValueError("need at least one table to stack")
    names = tables[0].feature_names
    if any(t.feature_names != names for t in tables):
        raise ValueError("tables have mismatched feature columns")
    healthy = tables[0].healthy_label
    for t in tables:
        if t.healthy_label != healthy:
            raise ValueError(f"tables have mismatched healthy labels {healthy!r} "
                             f"and {t.healthy_label!r}")
    return Table(
        ids=[i for t in tables for i in t.ids],
        dataset_labels=np.concatenate([t.dataset_labels for t in tables]),
        ages=np.concatenate([t.ages for t in tables]),
        sexes=np.concatenate([t.sexes for t in tables]),
        features=np.vstack([t.features for t in tables]),
        feature_names=names,
        diagnosis_labels=np.concatenate([t.diagnosis_labels for t in tables]),
        healthy_label=healthy,
    )


# records per parse block.  A block's strings are what the parse holds at
# once, so peak RSS grows with the block: 2,048-record blocks raised it by
# ~1 MB over 256 on a 3,000-row file (and a whole-file parse by ~10% on a
# 15,000-row one), while the parse took the same time from 256 to 2,048.
BLOCK_RECORDS = 256


def load_csv(path, schema: SchemaConfig | None = None) -> tuple[Table, RejectionReport]:
    """Ingest a CSV file, validating every row.

    Returns the table of accepted rows plus a report of rejected ones;
    each rejection names the file line its record starts on and the
    first rule the record breaks.  Records are read by columns, a block
    at a time, by :func:`_parse_block`.  A UTF-8 byte-order mark is
    skipped.  The report carries the SHA-256 of the file's bytes, hashed
    as they are read; the caller reports the rejections, as nothing here
    logs.  Raises :class:`SchemaError` when a required column is missing,
    a column it reads is named twice or the csv module cannot parse a
    record (a field past ``csv.field_size_limit()``, say), naming the
    line it stopped on, and :class:`EmptyTableError` when no row survives
    validation, with the rejected count and the first rejection when
    there were rows to reject.
    """
    schema = schema or SchemaConfig()
    with open(path, "rb", buffering=0) as raw:
        hashing = _HashingReader(raw)
        fh = io.TextIOWrapper(io.BufferedReader(hashing, 1 << 16), encoding="utf-8-sig",
                              newline="")
        reader = csv.reader(fh)
        header = next(_records(reader, path), None)
        if header is None:
            raise SchemaError(f"{path}: empty file, no header row")
        required = (schema.id_column, schema.dataset_column,
                    schema.age_column, schema.sex_column)
        for col in required:
            if col not in header:
                raise SchemaError(f"{path}: missing required column {col!r}")
        read = set()  # a column the parse reads must be named once
        for col in header:
            if col in read:
                raise SchemaError(f"{path}: repeated column name {col!r}")
            if (col in required or col == schema.diagnosis_column
                    or col.startswith(schema.feature_prefixes)):
                read.add(col)
        feature_cols = [c for c in header
                        if any(c.startswith(p) for p in schema.feature_prefixes)]
        has_diagnosis = schema.diagnosis_column in header

        reasons = []
        parts = [_parse_block(records, starts, header, schema, feature_cols, has_diagnosis,
                              reasons)
                 for starts, records in _record_blocks(reader, path)]

    if not sum(part[0].size for part in parts):
        detail = f" ({len(reasons)} rejected; {reasons[0]})" if reasons else ""
        raise EmptyTableError(f"{path}: no valid rows after ingestion{detail}")
    ids, labels, ages, sexes, feats, diags = (np.concatenate(column) for column in zip(*parts))
    report = RejectionReport(n_rejected=len(reasons), reasons=tuple(reasons),
                             sha256=hashing.hash.hexdigest())
    table = Table(
        ids=ids, dataset_labels=labels, ages=ages, sexes=sexes, features=feats,
        feature_names=feature_cols, diagnosis_labels=diags,
        healthy_label=schema.healthy_label,
    )
    return table, report


def _records(reader, path):
    """``reader``'s records; one it cannot parse is a SchemaError naming its line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise SchemaError(f"{path}: line {reader.line_num}: {exc}") from None


def _record_blocks(reader, path):
    """Non-blank records in blocks of :data:`BLOCK_RECORDS`, with the line each starts on."""
    starts, records = [], []
    line = reader.line_num
    for record in _records(reader, path):
        if record:  # a blank line reads as []
            starts.append(line + 1)
            records.append(record)
            if len(records) == BLOCK_RECORDS:
                yield starts, records
                starts, records = [], []
        line = reader.line_num
    if records:
        yield starts, records


def _parse_block(records, starts, header, schema, feature_cols, has_diagnosis, reasons):
    """A block's accepted rows, by columns; each rejection goes to ``reasons``.

    Records read as ``csv.DictReader`` rows: fields beyond the header
    are ignored and a short record's missing fields are None.  Each
    column is read once into one mask per rule, and a record is
    rejected for the first rule it breaks, in the order listed below.
    """
    width = len(header)
    padded = set(map(len, records)) != {width}
    if padded:
        records = [(record + [None] * width)[:width] for record in records]
    column = dict(zip(header, zip(*records)))
    ids = np.array(_stripped(column[schema.id_column], padded), dtype=object)
    labels = np.array(_stripped(column[schema.dataset_column], padded), dtype=object)
    raw_ages = column[schema.age_column]
    numbers, refused = _floats([raw_ages] + [column[c] for c in feature_cols], padded)
    ages, feats = numbers[0], numbers[1:]
    nonfinite = ~np.isfinite(numbers)
    sex_texts = _stripped(column[schema.sex_column], padded)
    sexes = np.array([SEX_CODES.get(v, -1) for v in sex_texts], dtype=int)
    rules = [(ids == "", lambda i: "missing subject id"),
             (labels == "", lambda i: "missing dataset label"),
             (refused[0], lambda i: f"non-numeric age {raw_ages[i]!r}"),
             (nonfinite[0] | (ages <= 0), lambda i: f"invalid age {float(ages[i])!r}"),
             (sexes < 0, lambda i: f"unrecognized sex code {sex_texts[i]!r}")]
    for col, col_refused, col_nonfinite in zip(feature_cols, refused[1:], nonfinite[1:]):
        rules += [(col_refused, lambda i, col=col: f"non-numeric value in {col!r}"),
                  (col_nonfinite, lambda i, col=col: f"non-finite value in {col!r}")]
    diags = np.array(_stripped(column[schema.diagnosis_column], padded) if has_diagnosis
                     else [""] * len(records), dtype=object)

    broken = np.array([mask for mask, _ in rules])
    rejected = np.flatnonzero(broken.any(axis=0))
    keep = slice(None)
    if rejected.size:
        for i, rule in zip(rejected, broken[:, rejected].argmax(axis=0)):
            reasons.append(f"line {starts[i]}: {rules[rule][1](i)}")
        keep = np.delete(np.arange(len(records)), rejected)
    return ids[keep], labels[keep], ages[keep], sexes[keep], feats.T[keep], diags[keep]


def _stripped(column, padded) -> list[str]:
    """A text column's values, stripped; a padded None reads as ""."""
    if padded:
        return [(v or "").strip() for v in column]
    return list(map(str.strip, column))


def _floats(columns, padded) -> tuple[np.ndarray, np.ndarray]:
    """Columns read by ``float`` into rows, NaN where it refuses, and the mask of refusals.

    One numpy call reads every column; it parses strings as ``float``
    does, but reads a padded None as NaN, so padded columns, or columns
    that numpy refuses, are read value by value.
    """
    if not padded:
        try:
            values = np.array(columns, dtype=float)
            return values, np.zeros(values.shape, dtype=bool)
        except ValueError:
            pass
    cells = np.array(columns, dtype=object)
    values, refused = np.full(cells.shape, np.nan), np.zeros(cells.shape, dtype=bool)
    for at, v in np.ndenumerate(cells):
        try:
            values[at] = float(v)
        except (TypeError, ValueError):
            refused[at] = True
    return values, refused


def write_csv(path, header, rows) -> None:
    """Write a header and rows; floats by ``repr``, so they read back exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(v) if isinstance(v, float) else str(v) for v in row]
                         for row in rows)


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
    for label, rows in table.rows_by_dataset().items():
        ages = table.ages[rows]
        with np.errstate(over="ignore"):  # ages near a float's limit summarize as inf
            age_mean, age_sd = float(np.mean(ages)), float(np.std(ages))
        out.append(DatasetSummary(
            dataset=label,
            n=rows.size,
            age_mean=age_mean,
            age_sd=age_sd,
            pct_male=float(100.0 * np.mean(table.sexes[rows])),
            n_diseased=int(np.sum(diseased[rows])),
        ))
    return out


def standardize_column(values) -> tuple[np.ndarray, float, float]:
    """Center and scale to population SD 1; returns (vector, mean, sd).

    Population SD (divide by n) keeps a standardized column's sum of
    squares exactly n, which is what the unit-scale priors downstream
    assume.  Constant or overflowing columns cannot be standardized.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise ValueError("need a 1-D vector of length >= 2")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(values))
        sd = float(np.std(values))
    if not (np.isfinite(mean) and np.isfinite(sd)):
        raise DegenerateColumnError(f"non-finite mean or SD (mean={mean:.3e}, sd={sd:.3e})")
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
            with np.errstate(over="ignore"):  # an inf square is refused as degenerate below
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
    :class:`SplitError`, naming the first such dataset, when a dataset
    has fewer than 2 rows or no row left to test; that depends only on
    the per-dataset counts and the fraction, never on a seed.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie in (0, 1)")
    by_dataset = table.rows_by_dataset()
    labels, groups = list(by_dataset), list(by_dataset.values())
    sizes = np.array([rows.size for rows in groups])
    small = np.flatnonzero(sizes < 2)
    if small.size:
        raise SplitError(f"dataset {labels[small[0]]!r} has fewer than 2 rows")
    n_train = np.minimum(np.maximum(np.rint(train_fraction * sizes).astype(int), 1), sizes)
    all_train = np.flatnonzero(n_train == sizes)
    if all_train.size:
        raise SplitError(f"train_fraction={train_fraction} leaves dataset "
                         f"{labels[all_train[0]]!r} no row to test")
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
