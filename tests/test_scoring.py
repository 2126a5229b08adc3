from dataclasses import replace

import numpy as np
import pytest

from biasaudit.models import (CausalModelSpec, ConfoundedModelSpec, JointVector,
                              confounded_code_length, confounded_evidence_k1)
from biasaudit.scoring import (FailedScore, ScoreRecord, ScoringConfig,
                               aggregate_by_dataset, score_all, score_target)
from biasaudit.seeding import derive_seed
from biasaudit.synth import GenSpec, gen_mixed
from biasaudit.tabular import (CauseSpec, CauseTerm, build_design, concat_tables,
                               standardize_column)

from conftest import quick_fit_config

CAUSES = CauseSpec(terms=tuple(CauseTerm(f"vol_x{j + 1}") for j in range(3)))


def score_synthetic(alpha, seed=0, n=300, score_seed=77):
    table, _ = gen_mixed(GenSpec(n=n, m=3, k=1, alpha=alpha, seed=seed))
    return score_target(table, CAUSES, "vol_y", CausalModelSpec(),
                        ConfoundedModelSpec(), quick_fit_config(),
                        seed=score_seed)


class TestScoreTarget:
    def test_pure_causal_scores_positive(self):
        record = score_synthetic(alpha=1.0, seed=5)
        assert record.delta > 0

    def test_pure_confounded_scores_negative(self):
        record = score_synthetic(alpha=0.0, seed=6)
        assert record.delta < 0

    def test_delta_identity_and_diagnostics(self):
        record = score_synthetic(alpha=0.5, seed=7)
        assert record.delta == record.confounded_nats - record.causal_nats
        assert record.n == 300
        assert record.diagnostics["causal"]["family"] == "full_rank"
        assert record.diagnostics["confounded"]["family"] == "mean_field"

    def test_swapping_roles_negates_delta(self):
        record = score_synthetic(alpha=0.5, seed=8)
        swapped = record.causal_nats - record.confounded_nats
        assert swapped == -record.delta

    def test_too_few_rows_rejected(self):
        table, _ = gen_mixed(GenSpec(n=10, m=3, alpha=1.0, seed=1))
        small = table.take(np.arange(4))  # n = m + 1
        with pytest.raises(ValueError):
            score_target(small, CAUSES, "vol_y", CausalModelSpec(),
                         ConfoundedModelSpec(), quick_fit_config(), seed=0)

    def test_multi_dataset_table_rejected(self):
        a, _ = gen_mixed(GenSpec(n=20, alpha=1.0, seed=1, dataset="A"))
        b, _ = gen_mixed(GenSpec(n=20, alpha=1.0, seed=2, dataset="B"))
        with pytest.raises(ValueError):
            score_target(concat_tables([a, b]), CAUSES, "vol_y",
                         CausalModelSpec(), ConfoundedModelSpec(),
                         quick_fit_config(), seed=0)

    def test_cause_column_as_target_rejected(self):
        table, _ = gen_mixed(GenSpec(n=20, alpha=1.0, seed=1))
        with pytest.raises(ValueError, match="must not be cause columns, got vol_x2"):
            score_target(table, CAUSES, "vol_x2", CausalModelSpec(),
                         ConfoundedModelSpec(), quick_fit_config(), seed=0)

    def test_closed_form_method_row_permutation_exact(self):
        table, _ = gen_mixed(GenSpec(n=60, alpha=0.7, seed=9))
        kwargs = dict(causal_model=CausalModelSpec(),
                      confounded_model=ConfoundedModelSpec(),
                      fit_config=quick_fit_config(), seed=3,
                      causal_method="closed_form")
        base = score_target(table, CAUSES, "vol_y", **kwargs)
        perm = np.random.default_rng(0).permutation(60)
        shuffled = score_target(table.take(perm), CAUSES, "vol_y", **kwargs)
        assert shuffled.causal_nats == pytest.approx(base.causal_nats, abs=1e-7)

    def test_row_permutation_within_monte_carlo_noise(self):
        table, _ = gen_mixed(GenSpec(n=200, m=3, k=1, alpha=0.5, seed=42))
        kwargs = dict(causal_model=CausalModelSpec(),
                      confounded_model=ConfoundedModelSpec(),
                      fit_config=quick_fit_config(), seed=99)
        base = score_target(table, CAUSES, "vol_y", **kwargs)
        perm = np.random.default_rng(1).permutation(200)
        shuffled = score_target(table.take(perm), CAUSES, "vol_y", **kwargs)
        slack = 3 * (base.diagnostics["causal"]["elbo_se"]
                     + base.diagnostics["confounded"]["elbo_se"])
        assert abs(shuffled.delta - base.delta) <= slack

    def test_sign_rate_non_decreasing_in_sample_size(self):
        # pure-causal data: larger samples should only firm up the sign
        fractions = []
        for n in (50, 200, 500):
            hits = 0
            for s in range(20):
                record = score_synthetic(alpha=1.0, seed=1000 + s, n=n,
                                         score_seed=2000 + s)
                hits += record.delta > 0
            fractions.append(hits / 20)
        assert fractions[0] <= fractions[1] <= fractions[2]
        assert fractions[2] >= 0.9


def scored_joint(table, target="vol_y") -> JointVector:
    """The joint matrix score_target builds: control rows, standardized columns."""
    table = table.filter_controls()
    y, _, _ = standardize_column(table.column(target))
    return JointVector(np.column_stack([build_design(table, CAUSES), y]))


class TestMethodRouting:
    """``closed_form`` is exact on both sides at k=1; ``advi`` fits both."""

    def score(self, table, method, k=1):
        return score_target(table, CAUSES, "vol_y", CausalModelSpec(),
                            ConfoundedModelSpec(k=k), quick_fit_config(max_iterations=1000),
                            seed=31, causal_method=method)

    def test_closed_form_at_k1_is_exact(self):
        table, _ = gen_mixed(GenSpec(n=120, alpha=0.5, seed=12))
        record = self.score(table, "closed_form")
        assert record.diagnostics["confounded"] == {
            "method": "closed_form", "family": None, "converged": True, "elbo_se": 0.0,
            "iterations": 0}
        V = scored_joint(table)
        assert record.confounded_nats == -confounded_evidence_k1(
            V.values.T @ V.values, V.n, ConfoundedModelSpec())

    def test_closed_form_at_k2_fits_the_confounded_side(self):
        table, _ = gen_mixed(GenSpec(n=120, alpha=0.5, seed=12))
        record = self.score(table, "closed_form", k=2)
        assert record.diagnostics["causal"]["method"] == "closed_form"
        assert record.diagnostics["confounded"]["method"] == "advi"
        assert record.diagnostics["confounded"]["iterations"] > 0

    def test_advi_equals_confounded_code_length(self):
        table, _ = gen_mixed(GenSpec(n=120, alpha=0.5, seed=12))
        record = self.score(table, "advi")
        want = confounded_code_length(
            scored_joint(table), ConfoundedModelSpec(),
            fit_config=replace(quick_fit_config(max_iterations=1000),
                               seed=derive_seed(31, "confounded")))
        assert record.diagnostics["confounded"]["method"] == "advi"
        assert record.confounded_nats == want.nats


def two_dataset_table(seed=0, n=60):
    causal, _ = gen_mixed(GenSpec(n=n, alpha=1.0, seed=seed, dataset="causal_ds"))
    confounded, _ = gen_mixed(GenSpec(n=n, alpha=0.0, seed=seed + 1,
                                      dataset="confounded_ds"))
    return concat_tables([causal, confounded])


class TestScoreAll:
    def test_cardinality(self):
        table = two_dataset_table()
        config = ScoringConfig(
            cause_spec=CauseSpec(terms=(CauseTerm("vol_x1"),)),
            targets=("vol_x2", "vol_x3", "vol_y"),
            fit_config=quick_fit_config(max_iterations=1500),
            master_seed=1)
        records = score_all(table, config)
        assert len(records) == 6
        keys = [(r.dataset, r.target) for r in records]
        assert keys == sorted(keys)

    def test_serial_equals_parallel(self):
        table = two_dataset_table(seed=4, n=40)
        base = dict(cause_spec=CauseSpec(terms=(CauseTerm("vol_x1"),)),
                    targets=("vol_y",),
                    fit_config=quick_fit_config(max_iterations=1000),
                    master_seed=5)
        serial = score_all(table, ScoringConfig(**base, jobs=1))
        parallel = score_all(table, ScoringConfig(**base, jobs=2))
        assert serial == parallel

    def test_failures_are_recorded_not_raised(self):
        table = two_dataset_table(seed=6, n=40)
        config = ScoringConfig(
            cause_spec=CauseSpec(terms=(CauseTerm("vol_x1"),)),
            targets=("vol_y", "no_such_column"),
            fit_config=quick_fit_config(max_iterations=1000),
            master_seed=7)
        records = score_all(table, config)
        failed = [r for r in records if isinstance(r, FailedScore)]
        ok = [r for r in records if isinstance(r, ScoreRecord)]
        assert len(failed) == 2 and len(ok) == 2
        assert all(f.target == "no_such_column" for f in failed)


@pytest.mark.parametrize("field, value", [
    ("causal_method", "closed-form"), ("causal_method", "exact"),
    ("causal_family", "full-rank"),
])
def test_unknown_method_or_family_rejected_naming_the_field(field, value):
    """A misspelt estimator fails at construction, not as one failure per pair."""
    with pytest.raises(ValueError, match=field):
        ScoringConfig(cause_spec=CauseSpec(terms=(CauseTerm("vol_x1"),)),
                      targets=("vol_y",), **{field: value})


def make_record(dataset, target, delta, n=100):
    return ScoreRecord(dataset=dataset, target=target, causal_nats=1000.0,
                       confounded_nats=1000.0 + delta, delta=delta, n=n,
                       diagnostics={"seed": 0})


class TestAggregate:
    def test_single_record(self):
        (agg,) = aggregate_by_dataset([make_record("A", "t", 2.5)])
        assert agg.mean_delta == 2.5
        assert agg.sd_delta == 0.0
        assert agg.n_targets == 1

    def test_symmetric_records_average_to_zero(self):
        aggs = aggregate_by_dataset([make_record("A", "t1", 2.0),
                                     make_record("A", "t2", -2.0)])
        assert aggs[0].mean_delta == 0.0

    def test_failed_records_not_averaged(self):
        records = [make_record("A", "t1", 1.0),
                   FailedScore("A", "t2", "boom"),
                   FailedScore("B", "t1", "boom")]
        aggs = aggregate_by_dataset(records)
        assert len(aggs) == 1  # B excluded entirely
        assert aggs[0].n_targets == 1 and aggs[0].mean_delta == 1.0

    def test_causal_dataset_ranks_above_confounded(self):
        table = two_dataset_table(seed=10, n=200)
        config = ScoringConfig(cause_spec=CAUSES, targets=("vol_y",),
                               fit_config=quick_fit_config(), master_seed=11)
        aggs = {a.dataset: a for a in aggregate_by_dataset(score_all(table, config))}
        assert aggs["causal_ds"].mean_delta > 0 > aggs["confounded_ds"].mean_delta
