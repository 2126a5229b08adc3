"""Command-line surface: validate, score, classify, simulate.

Every run is driven by a resolved configuration (flags override a flat
``key = value`` config file, which overrides defaults) and a master
seed; reports embed a fingerprint of the resolved configuration and
rerunning any command with the same configuration produces
byte-identical file bodies.

Exit codes: 0 success (possibly with partial failures listed), 2 for
usage or schema errors, 3 for total computational failure.
"""

import csv
import hashlib
import json
import logging
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path

import click

from .advi import FitConfig, FULL_RANK, MEAN_FIELD
from .errors import BiasAuditError, SchemaError
from .forest import DEFAULT_FRACTIONS, RFConfig, name_that_dataset
from .models import CausalModelSpec, ConfoundedModelSpec
from .scoring import (FailedScore, ScoringConfig, aggregate_by_dataset,
                      score_all)
from .synth import GenSpec, MultiDatasetSpec, gen_mixed, gen_multidataset, write_table_csv
from .tabular import CauseSpec, SchemaConfig, load_csv, summarize

log = logging.getLogger("biasaudit")

EXIT_USAGE = 2
EXIT_FAILURE = 3

FAMILIES = {"mean-field": MEAN_FIELD, "full-rank": FULL_RANK}
METHODS = ("advi", "closed-form")


def read_config_file(path) -> dict[str, str]:
    """Parse a flat ``key = value`` config file; '#' starts a comment."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    values = {}
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SchemaError(f"{path}:{line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _choice(allowed):
    def parse(raw: str) -> str:
        if raw not in allowed:
            raise ValueError(f"expected one of {', '.join(allowed)}, got {raw!r}")
        return raw
    return parse


def _comma_list(cast):
    return lambda raw: tuple(cast(item.strip()) for item in raw.split(",") if item.strip())


_ALL = ("validate", "score", "classify")
_RUNS = ("score", "classify")
_SCORE = ("score",)
_CLASSIFY = ("classify",)

# Every config key, once: (parser of its config-file text, default, the
# commands that read it).  A flag of the same name (dashes for
# underscores) overrides the file; a key only other commands read is
# ignored, so one file can drive both score and classify.
KEYS = {
    "input": (str, None, _ALL),
    "out": (str, ".", _RUNS),
    "seed": (int, 0, _RUNS),
    "jobs": (int, 1, _RUNS),
    "controls_only": (_parse_bool, True, _RUNS),
    "k": (int, ConfoundedModelSpec.k, _SCORE),
    "family": (_choice(FAMILIES), "full-rank", _SCORE),
    "method": (_choice(METHODS), "advi", _SCORE),
    "causes": (str, "age,age:square,sex", _SCORE),
    "targets": (str, None, _SCORE),  # None: every feature that is not a cause
    "sigma_x": (float, CausalModelSpec.sigma_x, _SCORE),
    "sigma_w": (float, CausalModelSpec.sigma_w, _SCORE),  # both models' loadings
    "sigma_y": (float, CausalModelSpec.sigma_y, _SCORE),
    "sigma_z": (float, ConfoundedModelSpec.sigma_z, _SCORE),
    "sigma_obs": (float, ConfoundedModelSpec.sigma_obs, _SCORE),
    "mc_samples": (int, FitConfig.mc_samples_per_step, _SCORE),
    "learning_rate": (float, FitConfig.learning_rate, _SCORE),
    "max_iterations": (int, FitConfig.max_iterations, _SCORE),
    "convergence_window": (int, FitConfig.convergence_window, _SCORE),
    "relative_tolerance": (float, FitConfig.relative_tolerance, _SCORE),
    "final_elbo_samples": (int, FitConfig.final_elbo_samples, _SCORE),
    "repetitions": (int, 50, _CLASSIFY),
    "trees": (int, RFConfig.n_trees, _CLASSIFY),
    "fractions": (_comma_list(float), DEFAULT_FRACTIONS, _CLASSIFY),
    # the CSV schema: one key per SchemaConfig field
    "id_column": (str, SchemaConfig.id_column, _ALL),
    "dataset_column": (str, SchemaConfig.dataset_column, _ALL),
    "age_column": (str, SchemaConfig.age_column, _ALL),
    "sex_column": (str, SchemaConfig.sex_column, _ALL),
    "diagnosis_column": (str, SchemaConfig.diagnosis_column, _ALL),
    "feature_prefixes": (_comma_list(str), SchemaConfig.feature_prefixes, _ALL),
    "healthy_label": (str, SchemaConfig.healthy_label, _ALL),
}


def resolve_config(command: str, config_path, flags: dict) -> dict:
    """Every key ``command`` reads: the flag if given, else the config
    file's value, else the default.  A file key in no row of
    :data:`KEYS`, or a value its parser refuses, is a :class:`SchemaError`.
    """
    file_values = read_config_file(config_path) if config_path else {}
    unknown = [key for key in file_values if key not in KEYS]
    if unknown:
        raise SchemaError(f"{config_path}: unknown config key "
                          + ", ".join(repr(key) for key in unknown))
    resolved = {}
    for name, (parse, default, commands) in KEYS.items():
        if command not in commands:
            continue
        if flags.get(name) is not None:
            resolved[name] = flags[name]
        elif name in file_values:
            try:
                resolved[name] = parse(file_values[name])
            except ValueError as exc:
                raise SchemaError(f"{config_path}: {name}: {exc}") from None
        else:
            resolved[name] = default
    return resolved


@contextmanager
def _usage_errors():
    """Turn bad input or configuration into one ``error:`` line and exit 2."""
    try:
        yield
    except (BiasAuditError, ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_USAGE)


def _load_table(cfg: dict):
    """Load the configured input CSV; every error names the file."""
    path = cfg["input"]
    if path is None:
        raise SchemaError("no input file given")
    schema = SchemaConfig(**{f.name: cfg[f.name] for f in fields(SchemaConfig)})
    try:
        return load_csv(path, schema)
    except ValueError as exc:  # undecodable bytes, duplicate subject ids
        raise SchemaError(f"{path}: {exc}") from None


def _make_out_dir(path) -> Path:
    """Create ``--out``; called before any work, so a bad path exits 2."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def fingerprint(resolved: dict) -> str:
    canon = json.dumps(resolved, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else str(v)
                             for v in row])


def _options(*options):
    """Several click options as one decorator, for flags commands share."""
    def apply(command):
        for option in reversed(options):
            command = option(command)
        return command
    return apply


_input_options = _options(
    click.option("--input", type=click.Path(), help="Input CSV file."),
    click.option("--config", "config_path", type=click.Path(),
                 help="Flat key=value config file."))
_run_options = _options(
    _input_options,
    click.option("--out", type=click.Path(), help="Output directory."),
    click.option("--seed", type=int, help="Master seed."),
    click.option("--jobs", type=int, help="Parallel workers."),
    click.option("--controls-only/--with-disease", "controls_only", default=None,
                 help="Restrict to healthy rows (default) or keep all."))


@click.group()
def main():
    """Quantify confounding bias and detect dataset bias in tabular data."""
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")


@main.command()
@_input_options
def validate(config_path, **flags):
    """Ingest a CSV file and print a per-dataset summary."""
    with _usage_errors():
        table, report = _load_table(resolve_config("validate", config_path, flags))
    click.echo(f"{'dataset':<16}{'N':>6}{'age_mean':>10}{'age_sd':>8}"
               f"{'males_%':>9}{'diseased':>10}")
    for row in summarize(table):
        click.echo(f"{row.dataset:<16}{row.n:>6}{row.age_mean:>10.1f}"
                   f"{row.age_sd:>8.1f}{row.pct_male:>9.1f}{row.n_diseased:>10}")
    click.echo(f"valid rows: {table.n_rows}, rejected rows: {report.n_rejected}")
    for reason in report.reasons:
        click.echo(f"  rejected {reason}", err=True)


@main.command()
@_run_options
@click.option("--k", type=int, help="Latent confounder dimension.")
@click.option("--family", type=click.Choice(list(FAMILIES)),
              help="Variational family for the causal model fit.")
@click.option("--method", type=click.Choice(METHODS), help="Causal-model estimator.")
@click.option("--causes", help="Cause terms, e.g. 'age,age:square,sex'.")
@click.option("--targets",
              help="Comma-separated target columns (default: all features not used as causes).")
def score(config_path, **flags):
    """Score every (dataset, target) pair and write the reports."""
    with _usage_errors():
        cfg = resolve_config("score", config_path, flags)
        table, _ = _load_table(cfg)
        cause_spec = CauseSpec.parse(cfg["causes"])
        cause_columns = {t.column for t in cause_spec.terms}
        missing = sorted(cause_columns - {"age", "sex", *table.feature_names})
        if missing:  # fail here, not once per fit
            raise SchemaError(f"{cfg['input']}: no cause column "
                              + ", ".join(repr(column) for column in missing))
        if cfg["targets"]:
            target_list = tuple(t.strip() for t in cfg["targets"].split(",") if t.strip())
        else:
            target_list = tuple(c for c in table.feature_names if c not in cause_columns)
        fit_config = FitConfig(
            mc_samples_per_step=cfg["mc_samples"],
            learning_rate=cfg["learning_rate"],
            max_iterations=cfg["max_iterations"],
            convergence_window=cfg["convergence_window"],
            relative_tolerance=cfg["relative_tolerance"],
            final_elbo_samples=cfg["final_elbo_samples"],
        )
        config = ScoringConfig(
            cause_spec=cause_spec,
            targets=target_list,
            causal_model=CausalModelSpec(
                sigma_x=cfg["sigma_x"], sigma_w=cfg["sigma_w"], sigma_y=cfg["sigma_y"]),
            confounded_model=ConfoundedModelSpec(
                k=cfg["k"], sigma_z=cfg["sigma_z"], sigma_w=cfg["sigma_w"],
                sigma_obs=cfg["sigma_obs"]),
            fit_config=fit_config,
            master_seed=cfg["seed"],
            controls_only=cfg["controls_only"],
            causal_method=cfg["method"].replace("-", "_"),
            causal_family=FAMILIES[cfg["family"]],
            jobs=cfg["jobs"],
        )
        out = _make_out_dir(cfg["out"])

    resolved = {
        "command": "score", "input": str(cfg["input"]), "out": str(cfg["out"]),
        "seed": cfg["seed"], "jobs": cfg["jobs"], "controls_only": cfg["controls_only"],
        "k": cfg["k"], "family": cfg["family"], "method": cfg["method"],
        "causes": cfg["causes"], "targets": ",".join(target_list),
        "fit": asdict(fit_config) | {"seed": "per-record"},
        "sigma": {"x": cfg["sigma_x"], "w": cfg["sigma_w"], "y": cfg["sigma_y"],
                  "z": cfg["sigma_z"], "obs": cfg["sigma_obs"]},
    }
    fp = fingerprint(resolved)

    records = score_all(table, config)
    ok = [r for r in records if not isinstance(r, FailedScore)]
    failed = [r for r in records if isinstance(r, FailedScore)]
    if not ok:
        click.echo("error: every (dataset, target) fit failed", err=True)
        sys.exit(EXIT_FAILURE)

    payload = {
        "fingerprint": fp,
        "config": resolved,
        "records": [
            {"dataset": r.dataset, "target": r.target, "n": r.n,
             "L_ca": r.causal_nats, "L_co": r.confounded_nats,
             "delta": r.delta, "delta_per_sample": r.delta_per_sample,
             "diagnostics": r.diagnostics}
            for r in ok
        ],
        "failures": [
            {"dataset": r.dataset, "target": r.target, "error": r.error}
            for r in failed
        ],
    }
    (out / "scores.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    _write_csv(out / "scores.csv",
               ["dataset", "target", "n", "L_ca", "L_co", "delta",
                "delta_per_sample", "converged"],
               [[r.dataset, r.target, r.n, r.causal_nats, r.confounded_nats,
                 r.delta, r.delta_per_sample,
                 r.diagnostics["causal"]["converged"]
                 and r.diagnostics["confounded"]["converged"]]
                for r in ok])
    _write_csv(out / "aggregate.csv",
               ["dataset", "mean_delta", "sd_delta", "n_targets"],
               [[a.dataset, a.mean_delta, a.sd_delta, a.n_targets]
                for a in aggregate_by_dataset(records)])

    click.echo(f"scored {len(ok)} pairs ({len(failed)} failures) -> {out}")
    if failed:
        for f in failed:
            click.echo(f"  failed ({f.dataset}, {f.target}): {f.error}", err=True)


@main.command()
@_run_options
@click.option("--repetitions", type=int, help="Repetitions per fraction.")
@click.option("--trees", type=int, help="Trees per forest.")
def classify(config_path, **flags):
    """Run the dataset-membership experiment and write curve/confusion reports."""
    with _usage_errors():
        cfg = resolve_config("classify", config_path, flags)
        table, _ = _load_table(cfg)
        feature_sets = _default_feature_sets(table.feature_names)
        rf_config = RFConfig(n_trees=cfg["trees"])
        out = _make_out_dir(cfg["out"])
        results = name_that_dataset(
            table, feature_sets, fractions=cfg["fractions"],
            repetitions=cfg["repetitions"], seed=cfg["seed"], rf_config=rf_config,
            controls_only=cfg["controls_only"], jobs=cfg["jobs"])

    resolved = {
        "command": "classify", "input": str(cfg["input"]), "out": str(cfg["out"]),
        "seed": cfg["seed"], "jobs": cfg["jobs"], "controls_only": cfg["controls_only"],
        "repetitions": cfg["repetitions"], "fractions": list(cfg["fractions"]),
        "forest": rf_config.fingerprint(),
        "feature_sets": {name: list(cols) for name, cols in feature_sets.items()},
    }
    (out / "classify.json").write_text(
        json.dumps({"fingerprint": fingerprint(resolved), "config": resolved},
                   indent=2, sort_keys=True) + "\n", encoding="utf-8")
    curve_rows = []
    for fs_name in feature_sets:
        for p in results[fs_name].curve.points:
            curve_rows.append([fs_name, p.train_fraction, p.mean_accuracy,
                               p.sd_accuracy, p.repetitions])
    _write_csv(out / "curve.csv",
               ["feature_set", "fraction", "mean_acc", "sd_acc", "repetitions"],
               curve_rows)

    # the confusion report covers the last (most feature-rich) set
    last = list(feature_sets)[-1]
    confusion = results[last].confusion
    conf_rows = []
    for i, true_label in enumerate(confusion.class_labels):
        for j, pred_label in enumerate(confusion.class_labels):
            conf_rows.append([true_label, pred_label, int(confusion.counts[i, j])])
    _write_csv(out / "confusion.csv",
               ["true_dataset", "predicted_dataset", "count"], conf_rows)
    click.echo(f"classified over {len(feature_sets)} feature sets -> {out}")


def _default_feature_sets(feature_names) -> dict[str, list[str]]:
    """The standard feature subsets: demographics, per-prefix, combined."""
    volume = [c for c in feature_names if c.startswith("vol_")]
    thickness = [c for c in feature_names if c.startswith("thick_")]
    sets: dict[str, list[str]] = {"age_sex": ["age", "sex"]}
    if volume:
        sets["volume"] = volume
    if thickness:
        sets["thickness"] = thickness
    if volume and thickness:
        sets["volume_thickness"] = volume + thickness
    return sets


@main.command()
@click.option("--out", "out_dir", type=click.Path(), default=".", help="Output directory.")
@click.option("--name", type=str, default="synthetic", help="Base name for the files.")
@click.option("--kind", type=click.Choice(["mixed", "multidataset"]), default="mixed")
@click.option("--alpha", type=float, default=1.0,
              help="Causal mixing weight (1 = pure causal, 0 = pure confounded).")
@click.option("--n", type=int, default=500, help="Rows (per dataset for multidataset).")
@click.option("--m", type=int, default=3, help="Cause columns (mixed kind).")
@click.option("--k", type=int, default=1, help="Latent confounder dimension.")
@click.option("--noise-sd", type=float, default=0.5, help="Target noise SD (mixed kind).")
@click.option("--n-datasets", type=int, default=2, help="Datasets (multidataset kind).")
@click.option("--shift", type=float, default=0.0,
              help="Feature mean shift step between consecutive datasets.")
@click.option("--seed", type=int, default=0, help="Generator seed.")
def simulate(out_dir, name, kind, alpha, n, m, k, noise_sd, n_datasets, shift, seed):
    """Generate a synthetic dataset plus a ground-truth sidecar."""
    with _usage_errors():
        out = _make_out_dir(out_dir)
        csv_path = out / f"{name}.csv"
        sidecar_path = out / f"{name}.truth.json"
        if kind == "mixed":
            spec = GenSpec(n=n, m=m, k=k, alpha=alpha, noise_sd=noise_sd,
                           seed=seed, dataset=name)
            table, truth = gen_mixed(spec)
            sidecar = {
                "kind": "mixed",
                "alpha": truth.alpha,
                "n": n, "m": m, "k": k,
                "noise_sd": truth.noise_sd,
                "seed": truth.seed,
                "weights": truth.weights.tolist(),
                "cause_loadings": truth.cause_loadings.tolist(),
                "latent_loadings": truth.latent_loadings.tolist(),
                "latents": truth.latents.tolist(),
                "noise": truth.noise.tolist(),
                "cause_columns": [f"vol_x{j + 1}" for j in range(m)],
                "target_column": "vol_y",
            }
        else:
            shifts = tuple(shift * d for d in range(n_datasets))
            spec = MultiDatasetSpec(n_per_dataset=n, shifts=shifts, seed=seed)
            table = gen_multidataset(spec)
            sidecar = {
                "kind": "multidataset",
                "n_per_dataset": n,
                "shifts": list(shifts),
                "scales": list(spec.scales),
                "feature_names": list(spec.feature_names),
                "seed": seed,
            }
    write_table_csv(table, csv_path)
    sidecar_path.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
    click.echo(f"wrote {csv_path} and {sidecar_path}")


if __name__ == "__main__":
    main()
