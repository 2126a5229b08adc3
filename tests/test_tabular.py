import csv
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biasaudit import tabular
from biasaudit.errors import (DegenerateColumnError, EmptyTableError,
                              SchemaError, SplitError)
from biasaudit.tabular import (BLOCK_RECORDS, SEX_CODES, CauseSpec, CauseTerm,
                               RejectionReport, SchemaConfig, Table,
                               build_design, concat_tables, label_codes, load_csv,
                               standardize_column, stratified_split, stratify, summarize)

HEADER = "subject_id,dataset,age,sex,diagnosis,vol_a,thick_b\n"


def write_csv(tmp_path, body, header=HEADER, name="data.csv"):
    path = tmp_path / name
    path.write_text(header + body, encoding="utf-8")
    return path


def make_table(n=20, n_datasets=2, seed=0, feature_names=("vol_a", "thick_b")):
    rng = np.random.default_rng(seed)
    labels = [f"d{i % n_datasets}" for i in range(n)]
    return Table(
        ids=[f"s{i}" for i in range(n)],
        dataset_labels=labels,
        ages=rng.uniform(20, 70, size=n),
        sexes=rng.integers(0, 2, size=n),
        features=rng.standard_normal((n, len(feature_names))),
        feature_names=feature_names,
        diagnosis_labels=["control"] * n,
    )


class TestLoadCsv:
    def test_well_formed(self, tmp_path):
        path = write_csv(tmp_path,
                         "s1,A,30,M,control,1.0,2.0\n"
                         "s2,A,40,F,control,1.5,2.5\n"
                         "s3,B,50,1,scz,2.0,3.0\n")
        table, report = load_csv(path)
        assert table.n_rows == 3
        assert report.n_rejected == 0
        assert table.feature_names == ("vol_a", "thick_b")
        assert table.sexes.tolist() == [1, 0, 1]
        assert table.diseased_mask().tolist() == [False, False, True]

    def test_spelled_out_sex_codes(self, tmp_path):
        path = write_csv(tmp_path,
                         "s1,A,30,male,control,1.0,2.0\n"
                         "s2,A,40,female,control,1.5,2.5\n"
                         "s3,A,50,Male,control,2.0,3.0\n"
                         "s4,A,60,m,control,2.5,3.5\n")
        table, report = load_csv(path)
        assert table.ids == ("s1", "s2")
        assert table.sexes.tolist() == [1, 0]
        assert report.reasons == ("line 4: unrecognized sex code 'Male'",
                                  "line 5: unrecognized sex code 'm'")

    def test_na_age_rejected(self, tmp_path):
        path = write_csv(tmp_path,
                         "s1,A,30,M,control,1.0,2.0\n"
                         "s2,A,NA,F,control,1.5,2.5\n")
        table, report = load_csv(path)
        assert table.n_rows == 1
        assert report.n_rejected == 1
        assert "age" in report.reasons[0]

    def test_non_numeric_feature_rejected(self, tmp_path):
        path = write_csv(tmp_path,
                         "s1,A,30,M,control,oops,2.0\n"
                         "s2,A,40,F,control,1.5,2.5\n")
        table, report = load_csv(path)
        assert table.n_rows == 1
        assert report.n_rejected == 1

    def test_missing_required_column(self, tmp_path):
        path = write_csv(tmp_path, "s1,A,30,control,1.0,2.0\n",
                         header="subject_id,dataset,age,diagnosis,vol_a,thick_b\n")
        with pytest.raises(SchemaError, match="sex"):
            load_csv(path)

    def test_zero_valid_rows(self, tmp_path):
        # the message names the rejected count and the first reason
        path = write_csv(tmp_path, "s1,A,notanage,M,control,1.0,2.0\ns2,A,40,X,control,1,2\n")
        with pytest.raises(EmptyTableError, match=r"rows after ingestion \(2 rejected; "
                                                  r"line 2: non-numeric age 'notanage'\)$"):
            load_csv(path)

    def test_header_only_file_names_no_rejection(self, tmp_path):
        with pytest.raises(EmptyTableError, match="no valid rows after ingestion$"):
            load_csv(write_csv(tmp_path, ""))

    def test_rejections_name_the_file_line_a_record_starts_on(self, tmp_path):
        path = write_csv(tmp_path,
                         "s1,A,30,M,control,1.0,2.0\n"        # line 2
                         "\n"                                 # line 3: blank
                         "s2,A,NA,F,control,1.5,2.5\n"        # line 4
                         "s3,A,40,F,control,1.5,2.5\n"        # line 5
                         's4,A,50,F,"two\nlines",oops,2.0\n'  # lines 6-7
                         "s5,A,45,F\n")                       # line 8: short
        table, report = load_csv(path)
        assert table.ids == ("s1", "s3")
        assert report.reasons == ("line 4: non-numeric age 'NA'",
                                  "line 6: non-numeric value in 'vol_a'",
                                  "line 8: non-numeric value in 'vol_a'")

    def test_repeated_column_name_rejected(self, tmp_path):
        path = write_csv(tmp_path, "s1,A,30,M,1,100,5\n",
                         header="subject_id,dataset,age,sex,vol_a,vol_a,vol_b\n")
        with pytest.raises(SchemaError, match="repeated column name 'vol_a'"):
            load_csv(path)

    @pytest.mark.parametrize("header, record", [
        # a spreadsheet export's trailing commas: two empty names
        ("subject_id,dataset,age,sex,vol_a,,\n", "s1,A,30,M,1.5,,\n"),
        ("subject_id,dataset,age,sex,note,vol_a,note\n", "s1,A,30,M,x,1.5,y\n"),
    ])
    def test_repeated_unread_column_name_loads(self, tmp_path, header, record):
        table, report = load_csv(write_csv(tmp_path, record, header=header))
        assert report.n_rejected == 0
        assert table.feature_names == ("vol_a",)

    def test_byte_order_mark_skipped(self, tmp_path):
        body = "s1,A,30,M,control,1.0,2.0\ns2,B,40,F,control,1.5,2.5\n"
        table, report = load_csv(write_csv(tmp_path, body, header="\ufeff" + HEADER))
        want_table, want_report = load_csv(write_csv(tmp_path, body, name="plain.csv"))
        assert report == want_report
        assert table.ids == want_table.ids == ("s1", "s2")
        assert table.features.tobytes() == want_table.features.tobytes()

    def test_custom_schema_columns(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text("pid,study,years,gender,feat_x\n"
                        "p1,S,33,F,0.5\n", encoding="utf-8")
        schema = SchemaConfig(id_column="pid", dataset_column="study",
                              age_column="years", sex_column="gender",
                              feature_prefixes=("feat_",))
        table, _ = load_csv(path, schema)
        assert table.feature_names == ("feat_x",)


def _messy_csv(tmp_path, block_records, n_blocks):
    """``n_blocks`` parse blocks of ``block_records`` and a part; every other block is clean.

    Clean blocks hold blank lines, multi-line quoted fields and numbers
    with padding or ``_``.  Each of the others holds special records:
    rejected ones (ragged, non-numeric, ``inf`` or ``nan``) and accepted
    ragged ones, one per block when blocks are small.
    """
    header = "subject_id,dataset,age,sex,vol_a,thick_b,diagnosis\n"
    clean = ["s{i},D{d},{age},M,1.5,-2,control\n",
             "s{i},D{d}, {age} ,F, 1_000.5 ,\t3e-2 ,control\n",
             '" s{i} ",D{d},{age},1,0.25,7,"multi\nline"\n',
             "\ns{i},D{d},{age},0,-0.5,1_2,scz\n"]  # after a blank line
    bad = ["s{i},D{d},{age},M,inf,1,control\n",
           "s{i},D{d},{age},F,1,nan,control\n",
           "s{i},D{d},{age}\n",
           "s{i},D{d},{age},M,1.5\n",                  # short: stops after vol_a
           "s{i},D{d},-{age},M,1,1,control\n",
           "s{i},D{d},{age},X,1,1,control\n",
           ",D{d},{age},M,1,1,control\n",
           "s{i}, ,{age},M,1,1,control\n",
           's{i},D{d},{age},F,"1\n2",1,control\n']
    ragged_ok = ["s{i},D{d},{age},M,2.5,1\n",             # no diagnosis field
                 "s{i},D{d},{age},F,2.5,1,control,extra,more\n"]
    special = bad + ragged_ok
    lines, i, n_special = [], 0, 0
    for block in range(n_blocks + 1):
        n_records = block_records if block < n_blocks else block_records // 3
        special_at = ({n_records // 2} if block_records < 16
                      else {5, n_records // 2, n_records - 1})
        for r in range(n_records):
            if block % 2 == 0 and r in special_at:
                template = special[n_special % len(special)]
                n_special += 1
            else:
                template = clean[r % len(clean)]
            lines.append(template.format(i=i, d=i % 3, age=20 + i % 50))
            i += 1
    assert n_special >= len(special)
    n_bad = sum(k % len(special) < len(bad) for k in range(n_special))
    path = tmp_path / "messy.csv"
    path.write_text(header + "".join(lines), encoding="utf-8")
    return path, n_bad


# A record-by-record parser that reads each accepted value with float()
# and DictReader semantics, apart from load_csv's column parser: the
# oracle of the load_csv tests below.
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


def _parse_records(records, starts, header, schema, feature_cols, has_diagnosis, reasons):
    """A block's accepted records, validated one at a time; rejections go to ``reasons``.

    Each record reads as a ``csv.DictReader`` row: fields beyond the
    header are ignored and a short record's missing fields are None.
    """
    ids, labels, ages, sexes, feats, diags = [], [], [], [], [], []
    for line, record in zip(starts, records):
        row = dict(zip(header, record))
        row.update(dict.fromkeys(header[len(record):]))
        reason = _validate_row(row, schema, feature_cols)
        if reason is not None:
            reasons.append(f"line {line}: {reason}")
            continue
        ids.append(row[schema.id_column].strip())
        labels.append(row[schema.dataset_column].strip())
        ages.append(float(row[schema.age_column]))
        sexes.append(SEX_CODES[row[schema.sex_column].strip()])
        feats.append([float(row[c]) for c in feature_cols])
        if has_diagnosis:
            diags.append((row[schema.diagnosis_column] or "").strip())
    return (np.array(ids, dtype=object), np.array(labels, dtype=object),
            np.array(ages, dtype=float), np.array(sexes, dtype=int),
            np.array(feats, dtype=float).reshape(len(ids), len(feature_cols)),
            np.array(diags, dtype=object))


def _reference_load_csv(path):
    """:func:`load_csv` with every block parsed by :func:`_parse_records`."""
    schema = SchemaConfig()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        feature_cols = [c for c in header
                        if any(c.startswith(p) for p in schema.feature_prefixes)]
        has_diagnosis = schema.diagnosis_column in header
        reasons = []
        parts = [_parse_records(records, starts, header, schema, feature_cols,
                                has_diagnosis, reasons)
                 for starts, records in tabular._record_blocks(reader)]
    ids, labels, ages, sexes, feats, diags = (np.concatenate(field) for field in zip(*parts))
    table = Table(ids=ids, dataset_labels=labels, ages=ages, sexes=sexes, features=feats,
                  feature_names=feature_cols, diagnosis_labels=diags,
                  healthy_label=schema.healthy_label)
    return table, RejectionReport(n_rejected=len(reasons), reasons=tuple(reasons))


def _assert_same_load(path):
    """load_csv and the record-by-record reference agree on ``path``, byte for byte."""
    table, report = load_csv(path)
    want_table, want_report = _reference_load_csv(path)
    assert report == want_report
    assert table.ids == want_table.ids
    assert table.feature_names == want_table.feature_names == ("vol_a", "thick_b")
    assert table.healthy_label == want_table.healthy_label
    for name in ("dataset_labels", "sexes", "diagnosis_labels"):
        got, want = getattr(table, name), getattr(want_table, name)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
    for name in ("ages", "features"):
        got, want = getattr(table, name), getattr(want_table, name)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    return table, report


@pytest.mark.parametrize("block_records, n_blocks", [(BLOCK_RECORDS, 6), (8, 21)])
def test_block_parse_equals_record_by_record_parse(tmp_path, monkeypatch,
                                                   block_records, n_blocks):
    monkeypatch.setattr(tabular, "BLOCK_RECORDS", block_records)
    path, n_bad = _messy_csv(tmp_path, block_records, n_blocks)
    table, report = _assert_same_load(path)
    assert report.n_rejected == n_bad
    assert "" in table.diagnosis_labels.tolist()  # a short record's missing field
    assert 1000.5 in table.features[:, 0]


def test_block_with_every_record_rejected(tmp_path, monkeypatch):
    monkeypatch.setattr(tabular, "BLOCK_RECORDS", 3)
    path = write_csv(tmp_path,
                     "s1,A,30,M,control,1,2\n"
                     "s2,A,31,F,control,1,2\n"
                     "s3,B,32,M,control,1,2\n"
                     "s4,A,-1,M,control,1,2\n"       # line 5
                     "s5,A,30,X,control,1,2\n"       # line 6
                     "s6,B,30,M,control,inf,2\n"     # line 7
                     "s7,A,33,M,control,1,2\n"
                     "s8,B,34,F,scz,1,2\n")
    table, report = _assert_same_load(path)
    assert table.ids == ("s1", "s2", "s3", "s7", "s8")
    assert report.reasons == ("line 5: invalid age -1.0",
                              "line 6: unrecognized sex code 'X'",
                              "line 7: non-finite value in 'vol_a'")


class TestSummarize:
    def test_single_subject(self):
        table = Table(ids=["s1"], dataset_labels=["A"], ages=[40.0], sexes=[1],
                      features=np.zeros((1, 1)), feature_names=("vol_a",))
        (row,) = summarize(table)
        assert (row.n, row.age_mean, row.age_sd, row.pct_male) == (1, 40.0, 0.0, 100.0)

    def test_counts_partition_rows(self):
        table = make_table(n=4, n_datasets=2)
        rows = summarize(table)
        assert len(rows) == 2
        assert sum(r.n for r in rows) == 4

    def test_matches_generator_moments(self):
        rng = np.random.default_rng(7)
        n = 4000
        mean, sd = 45.0, 12.0
        ages = np.clip(rng.normal(mean, sd, size=n), 1.0, None)
        table = Table(ids=[f"s{i}" for i in range(n)], dataset_labels=["A"] * n,
                      ages=ages, sexes=rng.integers(0, 2, size=n),
                      features=np.zeros((n, 1)), feature_names=("vol_a",))
        (row,) = summarize(table)
        se_mean = sd / np.sqrt(n)
        assert abs(row.age_mean - mean) < 3 * se_mean
        assert abs(row.age_sd - sd) < 3 * sd / np.sqrt(2 * n)
        assert abs(row.pct_male - 50.0) < 3 * 100 * 0.5 / np.sqrt(n)


class TestStandardizeColumn:
    def test_analytic_three_points(self):
        std, mean, sd = standardize_column([1.0, 2.0, 3.0])
        assert mean == pytest.approx(2.0)
        assert sd == pytest.approx(0.8164966, abs=1e-6)
        np.testing.assert_allclose(std, [-1.2247449, 0.0, 1.2247449], atol=1e-6)

    def test_idempotent(self, rng):
        values = rng.standard_normal(50)
        once, _, _ = standardize_column(values)
        twice, mean, sd = standardize_column(once)
        assert abs(mean) < 1e-12
        assert abs(sd - 1.0) < 1e-12
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_constant_column_error(self):
        with pytest.raises(DegenerateColumnError):
            standardize_column([5.0, 5.0, 5.0])

    def test_overflowing_sd_is_degenerate_and_silent(self, rng):
        # the squares overflow, so np.std reads inf and every value would standardize to 0
        values = 1e200 * rng.standard_normal(60)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateColumnError, match=r"non-finite mean or SD .*sd=inf"):
                standardize_column(values)

    def test_too_short(self):
        with pytest.raises(ValueError):
            standardize_column([1.0])

    @settings(deadline=None, max_examples=50)
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=60))
    def test_round_trip(self, values):
        arr = np.asarray(values)
        if np.std(arr) <= 1e-6:
            return
        std, mean, sd = standardize_column(arr)
        back = std * sd + mean
        np.testing.assert_allclose(back, arr, rtol=1e-9, atol=1e-9 * max(1.0, np.max(np.abs(arr))))
        assert abs(float(np.mean(std))) < 1e-9
        assert abs(float(np.std(std)) - 1.0) < 1e-9


class TestBuildDesign:
    def test_square_applied_to_raw_values(self):
        table = Table(ids=["a", "b", "c", "d"], dataset_labels=["A"] * 4,
                      ages=[20.0, 30.0, 40.0, 50.0], sexes=[0, 1, 0, 1],
                      features=np.zeros((4, 1)), feature_names=("vol_a",))
        design = build_design(table, CauseSpec(terms=(CauseTerm("age", "square"),)))
        raw_sq = np.array([400.0, 900.0, 1600.0, 2500.0])
        want, _, _ = standardize_column(raw_sq)
        np.testing.assert_allclose(design[:, 0], want, atol=1e-12)

    def test_all_male_degenerate(self):
        table = Table(ids=["a", "b", "c"], dataset_labels=["A"] * 3,
                      ages=[20.0, 30.0, 40.0], sexes=[1, 1, 1],
                      features=np.zeros((3, 1)), feature_names=("vol_a",))
        with pytest.raises(DegenerateColumnError):
            build_design(table, CauseSpec(terms=(CauseTerm("sex"),)))

    def test_standardized_moments(self):
        table = make_table(n=100, seed=3)
        spec = CauseSpec(terms=(CauseTerm("age"), CauseTerm("age", "square"),
                                CauseTerm("sex")))
        design = build_design(table, spec)
        assert design.shape == (100, 3)
        np.testing.assert_allclose(np.mean(design, axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(np.std(design, axis=0), 1.0, atol=1e-9)

    def test_row_order_invariance(self, rng):
        table = make_table(n=30, seed=4)
        spec = CauseSpec(terms=(CauseTerm("age"), CauseTerm("vol_a")))
        base = build_design(table, spec)
        perm = rng.permutation(30)
        permuted = build_design(table.take(perm), spec)
        np.testing.assert_allclose(permuted, base[perm], atol=1e-12)

    def test_duplicate_terms_rejected(self):
        with pytest.raises(ValueError):
            CauseSpec(terms=(CauseTerm("age"), CauseTerm("age")))

    def test_parse(self):
        spec = CauseSpec.parse("age,age:square,sex")
        assert [(t.column, t.transform) for t in spec.terms] == [
            ("age", "identity"), ("age", "square"), ("sex", "identity")]


def _reference_split_indices(table, train_fraction, seed):
    """The per-label split: one ``==`` pass over the labels per dataset."""
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for label in table.labels():
        idx = np.flatnonzero(table.dataset_labels == label)
        n_train = int(np.rint(train_fraction * idx.size))
        n_train = min(max(n_train, 1), idx.size)
        perm = rng.permutation(idx)
        train_idx.extend(perm[:n_train])
        test_idx.extend(perm[n_train:])
    return train_idx, test_idx


class TestStratifiedSplit:
    @pytest.mark.parametrize("fraction", [0.002, 0.3, 0.75])
    def test_equals_per_label_reference(self, fraction):
        rng = np.random.default_rng(4)
        labels = rng.choice([f"d{i:02d}" for i in range(15)], size=3000)
        table = Table(ids=[f"s{i}" for i in range(3000)], dataset_labels=labels,
                      ages=np.full(3000, 40.0), sexes=np.zeros(3000, dtype=int),
                      features=rng.standard_normal((3000, 1)), feature_names=("vol_a",))
        for seed in (0, 1):
            train, test = stratified_split(table, fraction, seed)
            want_train, want_test = _reference_split_indices(table, fraction, seed)
            assert train.ids == table.take(want_train).ids
            assert test.ids == table.take(want_test).ids

    def test_per_dataset_counts(self):
        table = make_table(n=20, n_datasets=2)
        train, test = stratified_split(table, 0.7, seed=1)
        for label in ("d0", "d1"):
            assert int(np.sum(train.dataset_labels == label)) == 7
            assert int(np.sum(test.dataset_labels == label)) == 3

    def test_deterministic(self):
        table = make_table(n=40, n_datasets=3)
        a = stratified_split(table, 0.5, seed=9)
        b = stratified_split(table, 0.5, seed=9)
        assert a[0].ids == b[0].ids and a[1].ids == b[1].ids

    def test_minimum_one_train_row(self):
        # 15 datasets x 800 rows at a fraction that rounds to zero
        table = make_table(n=15 * 800, n_datasets=15, seed=5)
        train, _ = stratified_split(table, 0.001, seed=2)
        for label in table.labels():
            n_label = int(np.sum(train.dataset_labels == label))
            assert n_label == max(1, round(0.001 * 800))
            assert n_label >= 1

    def test_union_is_permutation(self):
        table = make_table(n=25, n_datasets=2, seed=6)
        train, test = stratified_split(table, 0.6, seed=3)
        assert sorted(train.ids + test.ids) == sorted(table.ids)
        assert set(train.ids).isdisjoint(test.ids)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(min_value=4, max_value=60),
           st.floats(min_value=0.1, max_value=0.9),
           st.integers(min_value=0, max_value=10_000))
    def test_proportions_property(self, n, fraction, seed):
        table = make_table(n=2 * n, n_datasets=2, seed=11)
        try:
            train, test = stratified_split(table, fraction, seed)
        except SplitError:
            return
        for label in table.labels():
            n_label = int(np.sum(table.dataset_labels == label))
            got = int(np.sum(train.dataset_labels == label))
            assert got == min(max(int(np.rint(fraction * n_label)), 1), n_label)
        assert sorted(train.ids + test.ids) == sorted(table.ids)

    def test_tiny_dataset_rejected(self):
        table = make_table(n=3, n_datasets=3)
        with pytest.raises(SplitError):
            stratified_split(table, 0.5, seed=0)

    def test_dataset_left_without_a_test_row_rejected(self):
        # datasets of 2 and 100 rows: at 0.8 both ds00 rows would train
        table = Table(ids=[f"s{i}" for i in range(102)],
                      dataset_labels=["ds00"] * 2 + ["ds01"] * 100, ages=np.full(102, 40.0),
                      sexes=np.zeros(102, dtype=int), features=np.arange(102.0)[:, None],
                      feature_names=("vol_a",))
        with pytest.raises(SplitError, match="'ds00' no row to test"):
            stratified_split(table, 0.8, seed=0)
        train, test = stratified_split(table, 0.7, seed=0)
        assert train.labels() == test.labels() == ["ds00", "ds01"]

    def test_bad_fraction(self):
        table = make_table(n=10)
        with pytest.raises(ValueError):
            stratified_split(table, 1.5, seed=0)


class TestTableBasics:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            Table(ids=["a", "a"], dataset_labels=["A", "A"], ages=[30, 40],
                  sexes=[0, 1], features=np.zeros((2, 1)), feature_names=("vol_a",))

    def test_nonfinite_feature_rejected(self):
        with pytest.raises(ValueError):
            Table(ids=["a", "b"], dataset_labels=["A", "A"], ages=[30, 40],
                  sexes=[0, 1], features=np.array([[np.nan], [1.0]]),
                  feature_names=("vol_a",))

    @pytest.mark.parametrize("column, values", [
        ("diagnosis_labels", ["control"]), ("diagnosis_labels", ["control"] * 3),
        ("dataset_labels", ["A"]), ("ages", [30, 40, 50]), ("sexes", [[0, 1]])])
    def test_column_of_wrong_length_rejected(self, column, values):
        columns = {"dataset_labels": ["A", "A"], "ages": [30, 40], "sexes": [0, 1],
                   "diagnosis_labels": ["control", "control"]} | {column: values}
        with pytest.raises(ValueError, match=f"{column} must hold one value per row"):
            Table(ids=["a", "b"], features=[[1.0], [2.0]], feature_names=("vol_a",),
                  **columns)

    def test_missing_diagnosis_labels_read_as_healthy(self):
        table = Table(ids=["a", "b"], dataset_labels=["A", "A"], ages=[30, 40],
                      sexes=[0, 1], features=[[1.0], [2.0]], feature_names=("vol_a",))
        assert table.diagnosis_labels.tolist() == ["", ""]
        assert table.diseased_mask().tolist() == [False, False]
        assert table.take([1]).diagnosis_labels.tolist() == [""]
        assert not table.diagnosis_labels.flags.writeable

    def test_take_equals_constructor_on_the_same_rows(self):
        table = make_table(n=12)
        idx = np.random.default_rng(3).permutation(12)[:7]
        sub = table.take(idx)
        want = Table(ids=np.array(table.ids)[idx], dataset_labels=table.dataset_labels[idx],
                     ages=table.ages[idx], sexes=table.sexes[idx],
                     features=table.features[idx], feature_names=table.feature_names,
                     diagnosis_labels=table.diagnosis_labels[idx])
        assert sub.ids == want.ids
        for name in ("dataset_labels", "ages", "sexes", "features", "diagnosis_labels"):
            np.testing.assert_array_equal(getattr(sub, name), getattr(want, name))
        assert not sub.features.flags.writeable and not sub.ages.flags.writeable
        assert table.take([0, -1]).ids == ("s0", "s11")

    @pytest.mark.parametrize("rows", [
        [3, 0, -1], np.array([3, 0, -1], dtype=np.int32), np.array([3, 0, -1]),
        np.array([3, 0, 9], dtype=np.uint8)])
    def test_take_accepts_integer_rows(self, rows):
        assert make_table(n=10).take(rows).ids == ("s3", "s0", "s9")

    @pytest.mark.parametrize("rows, dtype", [
        ([True, False], "bool"), (np.ones(10, dtype=bool), "bool"), ([1.7], "float64"),
        (np.array([0.0, 2.0]), "float64"), (["1"], "<U1")])
    def test_take_rejects_rows_that_are_not_integers(self, rows, dtype):
        with pytest.raises(TypeError, match=f"dtype {dtype}"):
            make_table(n=10).take(rows)

    def test_take_rejects_empty_selection(self):
        with pytest.raises(EmptyTableError):
            make_table(n=5).take(np.array([], dtype=int))

    @pytest.mark.parametrize("rows", [[1, 3, 1], [0, 4, -1]])
    def test_take_rejects_repeated_rows(self, rows):
        with pytest.raises(ValueError, match="not unique"):
            make_table(n=5).take(rows)

    def test_concat(self):
        t1, t2 = make_table(n=4, seed=1), make_table(n=6, seed=2)
        t2 = Table(ids=[f"x{i}" for i in range(6)], dataset_labels=t2.dataset_labels,
                   ages=t2.ages, sexes=t2.sexes, features=t2.features,
                   feature_names=t2.feature_names, diagnosis_labels=t2.diagnosis_labels)
        combined = concat_tables([t1, t2])
        assert combined.n_rows == 10

    @pytest.mark.parametrize("hc_first", [True, False])
    def test_concat_of_different_healthy_labels_rejected(self, hc_first):
        # stacked under either label, one table's healthy rows would count as diseased
        base = make_table(n=2)
        hc = Table(ids=["h0", "h1"], dataset_labels=base.dataset_labels, ages=base.ages,
                   sexes=base.sexes, features=base.features, feature_names=base.feature_names,
                   diagnosis_labels=["HC", "AD"], healthy_label="HC")
        tables = [hc, base] if hc_first else [base, hc]
        want = "'HC' and 'control'" if hc_first else "'control' and 'HC'"
        with pytest.raises(ValueError, match=f"mismatched healthy labels {want}"):
            concat_tables(tables)

    def test_concat_of_no_tables_rejected(self):
        with pytest.raises(ValueError, match="at least one table"):
            concat_tables([])

    def test_column_lookup(self):
        table = make_table(n=5)
        assert table.column("age").shape == (5,)
        assert table.column("vol_a").shape == (5,)
        with pytest.raises(KeyError):
            table.column("nope")


class TestDatasetCodes:
    """The codes a table builds once, read after takes, against :func:`label_codes`."""

    @staticmethod
    def assert_codes_match_labels(table):
        labels = table.labels()
        assert labels == sorted(set(table.dataset_labels.tolist()))
        want = label_codes(table.dataset_labels, labels)
        present = np.flatnonzero(np.bincount(table.dataset_codes))
        np.testing.assert_array_equal(np.searchsorted(present, table.dataset_codes), want)
        rows = table.rows_by_dataset()
        assert list(rows) == labels
        for code, label in enumerate(labels):
            np.testing.assert_array_equal(rows[label], np.flatnonzero(want == code))

    def test_take_of_a_take(self):
        table = make_table(n=60, n_datasets=5, seed=2)
        rng = np.random.default_rng(5)
        outer, inner = rng.permutation(60)[:40], rng.permutation(40)[:25]
        first = table.take(outer)
        second = first.take(inner)
        for sub in (table, first, second):
            self.assert_codes_match_labels(sub)
        once = table.take(outer[inner])
        assert second.ids == once.ids
        np.testing.assert_array_equal(second.dataset_codes, once.dataset_codes)
        assert not second.dataset_codes.flags.writeable
        assert not second.dataset_labels.flags.writeable

    def test_labels_after_a_dataset_vanishes(self):
        table = make_table(n=30, n_datasets=3, seed=1)
        sub = table.take(np.flatnonzero(table.dataset_labels != "d1"))
        assert sub.labels() == ["d0", "d2"]
        self.assert_codes_match_labels(sub)
        np.testing.assert_array_equal(sub.dataset_codes,
                                      label_codes(sub.dataset_labels, ["d0", "d1", "d2"]))

    @pytest.mark.parametrize("fraction", [0.2, 0.5])
    def test_stratify_groups_follow_label_codes(self, fraction):
        rng = np.random.default_rng(8)
        labels = rng.choice(["a", "b", "c", "d"], size=200, p=[0.1, 0.2, 0.3, 0.4])
        table = Table(ids=[f"s{i}" for i in range(200)], dataset_labels=labels,
                      ages=np.full(200, 40.0), sexes=np.zeros(200, dtype=int),
                      features=rng.standard_normal((200, 1)), feature_names=("vol_a",),
                      diagnosis_labels=np.where(labels == "b", "scz", "control"))
        for sub in (table, table.filter_controls(), table.take(rng.permutation(200)[:150])):
            codes = label_codes(sub.dataset_labels, sub.labels())
            groups, n_train = stratify(sub, fraction)
            assert len(groups) == len(sub.labels())
            for code, rows in enumerate(groups):
                np.testing.assert_array_equal(rows, np.flatnonzero(codes == code))
            np.testing.assert_array_equal(
                n_train, np.maximum(np.rint(fraction * np.bincount(codes)), 1))

    def test_codes_take_the_smallest_dtype(self):
        table = make_table(n=300, n_datasets=260)
        assert table.dataset_codes.dtype == np.uint16
        assert make_table(n=20).dataset_codes.dtype == np.uint8
        self.assert_codes_match_labels(table.take(np.arange(255, 5, -1)))

    def test_diseased_mask_equals_per_row_rule(self):
        labels = ["control", "", "scz", "Control", "control ", "ad", ""]
        table = Table(ids=[f"s{i}" for i in range(7)], dataset_labels=["A"] * 7,
                      ages=np.full(7, 40.0), sexes=np.zeros(7, dtype=int),
                      features=np.zeros((7, 1)), feature_names=("vol_a",),
                      diagnosis_labels=labels)
        want = [bool(d) and d != "control" for d in labels]
        assert table.diseased_mask().tolist() == want
        assert table.diseased_mask().dtype == bool
