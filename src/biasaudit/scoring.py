"""Per-(dataset, target) description-length scoring and aggregation.

For every target column the causal and confounded code lengths are
computed on identical standardized rows and their difference is the
score: positive favors the causal reading (causes drive the target),
negative the confounded one (a shared latent drives both).  Failures
are first-class records, never silent zeros.  Nothing here writes to
the user: the records say what happened, and the CLI reports them.
"""

from dataclasses import asdict, dataclass, replace

import numpy as np

from .advi import FitConfig, FULL_RANK, MEAN_FIELD
from .errors import BiasAuditError
from .models import (CausalModelSpec, ConfoundedModelSpec, JointVector,
                     causal_code_length, confounded_code_length)
from .seeding import derive_seed, map_tasks
from .tabular import CauseSpec, Table, build_design, standardize_column


@dataclass(frozen=True)
class ScoreRecord:
    """Code lengths (nats) of both models for one dataset and target."""

    dataset: str
    target: str
    causal_nats: float       # reported as L_ca
    confounded_nats: float   # reported as L_co
    delta: float             # L_co - L_ca; positive favors the causal model
    n: int
    diagnostics: dict

    @property
    def delta_per_sample(self) -> float:
        return self.delta / self.n


@dataclass(frozen=True)
class FailedScore:
    """A (dataset, target) pair whose fit could not be completed."""

    dataset: str
    target: str
    error: str


@dataclass(frozen=True)
class ScoringConfig:
    """Everything score_all needs besides the table itself."""

    cause_spec: CauseSpec
    targets: tuple[str, ...]
    causal_model: CausalModelSpec = CausalModelSpec()
    confounded_model: ConfoundedModelSpec = ConfoundedModelSpec()
    fit_config: FitConfig = FitConfig()
    master_seed: int = 0
    controls_only: bool = True
    causal_method: str = "advi"          # advi | closed_form (exact on both sides at k=1)
    causal_family: str = FULL_RANK
    jobs: int = 1

    def __post_init__(self):
        if not self.targets:
            raise ValueError("targets must name at least one column")
        if len(set(self.targets)) < len(self.targets):
            raise ValueError(f"targets must be distinct, got {','.join(self.targets)}")
        _require_no_cause_targets(self.cause_spec, self.targets)
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.causal_method not in ("advi", "closed_form"):
            raise ValueError("causal_method must be advi or closed_form, "
                             f"got {self.causal_method!r}")
        if self.causal_family not in (MEAN_FIELD, FULL_RANK):
            raise ValueError(f"causal_family must be {MEAN_FIELD} or {FULL_RANK}, "
                             f"got {self.causal_family!r}")


def _require_no_cause_targets(cause_spec: CauseSpec, targets) -> None:
    """Refuse targets that are cause columns: a column regressed on itself."""
    causes = [t for t in targets if t in {term.column for term in cause_spec.terms}]
    if causes:
        raise ValueError(f"targets must not be cause columns, got {','.join(causes)}")


def score_target(table: Table, cause_spec: CauseSpec, target: str,
                 causal_model: CausalModelSpec,
                 confounded_model: ConfoundedModelSpec,
                 fit_config: FitConfig, seed: int,
                 controls_only: bool = True,
                 causal_method: str = "advi",
                 causal_family: str = FULL_RANK) -> ScoreRecord:
    """Score one target column of a single-dataset table.

    Both code lengths see exactly the same standardized rows.
    ``causal_method="closed_form"`` makes both code lengths exact at k=1:
    the confounded side then integrates its loadings out too.  Otherwise
    the confounded side is a mean-field fit over the loadings.  The
    table must carry a single dataset label; multi-dataset tables go
    through :func:`score_all`.
    """
    labels = table.labels()
    if len(labels) != 1:
        raise ValueError("score_target expects a single-dataset table; "
                         "use score_all for multi-dataset tables")
    _require_no_cause_targets(cause_spec, (target,))
    if controls_only:
        table = table.filter_controls()
    m = cause_spec.n_terms
    if table.n_rows < m + 5:
        raise ValueError(
            f"need at least m+5={m + 5} rows after filtering, have {table.n_rows}")

    X = build_design(table, cause_spec)
    y, _, _ = standardize_column(table.column(target))
    joint = JointVector(np.column_stack([X, y]))

    causal = causal_code_length(
        X, y, causal_model, method=causal_method, family=causal_family,
        fit_config=replace(fit_config, seed=derive_seed(seed, "causal")))
    confounded = confounded_code_length(
        joint, confounded_model,
        fit_config=replace(fit_config, seed=derive_seed(seed, "confounded")),
        method=causal_method if confounded_model.k == 1 else "advi")

    return ScoreRecord(
        dataset=labels[0],
        target=target,
        causal_nats=causal.nats,
        confounded_nats=confounded.nats,
        delta=confounded.nats - causal.nats,
        n=table.n_rows,
        diagnostics={
            "causal": _fit_diag(causal),
            "confounded": _fit_diag(confounded),
            "seed": seed,
            "controls_only": controls_only,
        },
    )


def _fit_diag(code_length) -> dict:
    return {k: v for k, v in asdict(code_length).items() if k != "nats"}


def _score_one(args):
    table, target, config, seed = args
    try:
        return score_target(
            table, config.cause_spec, target,
            config.causal_model, config.confounded_model,
            config.fit_config, seed,
            controls_only=config.controls_only,
            causal_method=config.causal_method,
            causal_family=config.causal_family)
    except (BiasAuditError, ValueError, KeyError) as exc:
        return FailedScore(dataset=table.labels()[0], target=target,
                           error=f"{type(exc).__name__}: {exc}")


def score_all(table: Table, config: ScoringConfig) -> list[ScoreRecord | FailedScore]:
    """Score every (dataset label, target) pair.

    Each pair's seed derives from (master seed, dataset, target), so
    parallel and serial execution produce identical records; results
    come back in deterministic (dataset, target) order either way.
    Individual failures become :class:`FailedScore` entries and the
    run continues.
    """
    tasks = []
    for label, rows in table.rows_by_dataset().items():
        sub = table.take(rows)
        for target in config.targets:
            seed = derive_seed(config.master_seed, label, target)
            tasks.append((sub, target, config, seed))

    return map_tasks(_score_one, tasks, config.jobs)


@dataclass(frozen=True)
class DatasetAggregate:
    dataset: str
    mean_delta: float
    sd_delta: float
    n_targets: int


def aggregate_by_dataset(records) -> list[DatasetAggregate]:
    """Mean and SD of the score across targets, per dataset, in dataset order.

    Failed records are left out, so a dataset with no scored record has
    no aggregate.
    """
    by_dataset: dict[str, list[float]] = {}
    for rec in records:
        if not isinstance(rec, FailedScore):
            by_dataset.setdefault(rec.dataset, []).append(rec.delta)
    return [DatasetAggregate(dataset=dataset, mean_delta=float(np.mean(deltas)),
                             sd_delta=float(np.std(deltas)), n_targets=len(deltas))
            for dataset, deltas in sorted(by_dataset.items())]
