"""Per-(dataset, target) description-length scoring and aggregation.

For every target column the causal and confounded code lengths are
computed on identical standardized rows and their difference is the
score: positive favors the causal reading (causes drive the target),
negative the confounded one (a shared latent drives both).  Failures
are first-class records, never silent zeros.
"""

import hashlib
import json
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .advi import FitConfig, FULL_RANK, MEAN_FIELD
from .errors import BiasAuditError
from .models import (CausalModelSpec, ConfoundedModelSpec, JointVector,
                     causal_code_length, confounded_code_length)
from .seeding import derive_seed
from .tabular import CauseSpec, Table, build_design, standardize_column

log = logging.getLogger(__name__)


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
    causal_method: str = "advi"          # advi | closed_form
    causal_family: str = FULL_RANK
    confounded_family: str = MEAN_FIELD
    jobs: int = 1

    def __post_init__(self):
        if not self.targets:
            raise ValueError("need at least one target column")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")


def score_target(table: Table, cause_spec: CauseSpec, target: str,
                 causal_model: CausalModelSpec,
                 confounded_model: ConfoundedModelSpec,
                 fit_config: FitConfig, seed: int,
                 controls_only: bool = True,
                 causal_method: str = "advi",
                 causal_family: str = FULL_RANK,
                 confounded_family: str = MEAN_FIELD) -> ScoreRecord:
    """Score one target column of a single-dataset table.

    Both code lengths see exactly the same standardized rows.  The
    table must carry a single dataset label; multi-dataset tables go
    through :func:`score_all`.
    """
    labels = table.labels()
    if len(labels) != 1:
        raise ValueError("score_target expects a single-dataset table; "
                         "use score_all for multi-dataset tables")
    if controls_only:
        table = table.filter_controls()
    m = cause_spec.n_terms
    if table.n_rows < m + 5:
        raise ValueError(
            f"need at least m+5={m + 5} rows after filtering, have {table.n_rows}")

    X = build_design(table, cause_spec)
    y, _, _ = standardize_column(table.column(target))
    joint = JointVector.from_design(X, y)

    causal = causal_code_length(
        X, y, causal_model, method=causal_method, family=causal_family,
        fit_config=replace(fit_config, seed=derive_seed(seed, "causal")))
    confounded = confounded_code_length(
        joint, confounded_model, family=confounded_family,
        fit_config=replace(fit_config, seed=derive_seed(seed, "confounded")))

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
            "config_fingerprint": _config_fingerprint(fit_config),
        },
    )


def _config_fingerprint(fit_config: FitConfig) -> str:
    # per-record seeds are recorded separately; hash the shared knobs
    fields = {k: v for k, v in asdict(fit_config).items() if k != "seed"}
    canon = json.dumps(fields, sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def _fit_diag(code_length) -> dict:
    return {
        "method": code_length.method,
        "family": code_length.family,
        "converged": code_length.converged,
        "elbo_se": code_length.elbo_se,
        "iterations": code_length.iterations,
    }


def _score_one(args):
    table, target, config, seed = args
    try:
        return score_target(
            table, config.cause_spec, target,
            config.causal_model, config.confounded_model,
            config.fit_config, seed,
            controls_only=config.controls_only,
            causal_method=config.causal_method,
            causal_family=config.causal_family,
            confounded_family=config.confounded_family)
    except (BiasAuditError, ValueError, KeyError) as exc:
        dataset = table.labels()[0]
        log.warning("scoring failed for (%s, %s): %s", dataset, target, exc)
        return FailedScore(dataset=dataset, target=target,
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
    for label in table.labels():
        sub = table.take(np.flatnonzero(table.dataset_labels == label))
        for target in config.targets:
            seed = derive_seed(config.master_seed, label, target)
            tasks.append((sub, target, config, seed))

    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            results = list(pool.map(_score_one, tasks))
    else:
        results = [_score_one(t) for t in tasks]
    return results


@dataclass(frozen=True)
class DatasetAggregate:
    dataset: str
    mean_delta: float
    sd_delta: float
    n_targets: int
    n_failed: int


def aggregate_by_dataset(records) -> list[DatasetAggregate]:
    """Mean and SD of the score across targets, per dataset.

    Failed records are excluded from the statistics but counted;
    datasets with no successful record are dropped with a warning.
    """
    by_dataset: dict[str, list] = {}
    failures: dict[str, int] = {}
    for rec in records:
        if isinstance(rec, FailedScore):
            failures[rec.dataset] = failures.get(rec.dataset, 0) + 1
            by_dataset.setdefault(rec.dataset, [])
        else:
            by_dataset.setdefault(rec.dataset, []).append(rec)

    out = []
    for dataset in sorted(by_dataset):
        recs = by_dataset[dataset]
        if not recs:
            log.warning("dataset %s has no successful scores; excluded", dataset)
            continue
        deltas = np.array([r.delta for r in recs])
        out.append(DatasetAggregate(
            dataset=dataset,
            mean_delta=float(np.mean(deltas)),
            sd_delta=float(np.std(deltas)),
            n_targets=len(recs),
            n_failed=failures.get(dataset, 0),
        ))
    return out
