"""Command-line surface: validate, score, classify, simulate.

Every run is driven by a resolved configuration (flags override a flat
``key = value`` config file, which overrides defaults; :data:`KEYS`
declares each key, its flag and its parser once) and a master seed.
The model scales, fit settings and CSV schema names are the fields of
``CausalModelSpec``, ``ConfoundedModelSpec``, ``FitConfig`` and
``SchemaConfig``, each read with its field's type and default.
Reports embed the resolved configuration, the SHA-256 of the input
file, and a fingerprint that names the audit: the configuration and
input digest without the input path, the output path and the worker
count, which leave the results as they are.  Rerunning any command
with the same configuration produces byte-identical file bodies.

This module is the only one that writes to the user: the library
returns what happened (rejected rows, failed pairs) and the commands
print it to stderr.  Exit codes: 0 success (possibly with partial
failures listed), 2 for usage or schema errors, 3 for total
computational failure, reports written.
"""

import json
import re
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path
from typing import get_args, get_origin

import click
import numpy as np

from .advi import FitConfig, FULL_RANK, MEAN_FIELD
from .errors import BiasAuditError, SchemaError
from .forest import DEFAULT_FRACTIONS, DEFAULT_REPETITIONS, RFConfig, name_that_dataset
from .models import CausalModelSpec, ConfoundedModelSpec
from .scoring import (FailedScore, ScoringConfig, aggregate_by_dataset,
                      score_all)
from .seeding import fingerprint
from .synth import (MULTIDATASET_FEATURES, GenSpec, MultiDatasetSpec, gen_mixed,
                    gen_multidataset, write_table_csv)
from .tabular import CauseSpec, SchemaConfig, load_csv, summarize, write_csv

EXIT_USAGE = 2
EXIT_FAILURE = 3

FAMILIES = {"mean-field": MEAN_FIELD, "full-rank": FULL_RANK}
METHODS = {"advi": "advi", "closed-form": "closed_form"}


def read_config_file(path) -> dict[str, str]:
    """Parse a flat ``key = value`` config file.  A '#' at the start of a line
    or after whitespace starts a comment; inside a value (``d#1.csv``) it is text.
    A key set twice is a :class:`SchemaError` naming its second line."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    values = {}
    for line_no, line in enumerate(text.splitlines(), 1):
        line = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SchemaError(f"{path}:{line_no}: expected 'key = value'")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in values:
            raise SchemaError(f"{path}:{line_no}: repeated key {key!r}")
        values[key] = value
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

# Every config key, once: (parser of its text, default, the commands that
# read it, help of its flag or None for a file-only key).  A flag of the
# same name (dashes for underscores) overrides the file; a key only other
# commands read is ignored, so one file can drive both score and classify.
# A report's config block holds every key its command reads.
KEYS = {
    "input": (str, None, _ALL, "Input CSV file."),
    "out": (str, ".", _RUNS, "Output directory."),
    "seed": (int, 0, _RUNS, "Master seed."),
    "jobs": (int, 1, _RUNS, "Parallel workers."),
    "controls_only": (_parse_bool, True, _RUNS, "Healthy rows only (default) or all rows."),
    "k": (int, ConfoundedModelSpec.k, _SCORE, "Latent confounder dimension."),
    "family": (_choice(FAMILIES), "full-rank", _SCORE,
               "Variational family for the causal model fit: mean-field or full-rank."),
    "method": (_choice(METHODS), "closed-form", _SCORE,
               "Estimator: closed-form (default; exact at k=1) or advi (fits both models)."),
    "causes": (str, "age,age:square,sex", _SCORE, "Cause terms, e.g. 'age,age:square,sex'."),
    "targets": (str, None, _SCORE,
                "Comma-separated target columns (default: all features not used as causes)."),
    "repetitions": (int, DEFAULT_REPETITIONS, _CLASSIFY, "Repetitions per fraction."),
    "trees": (int, RFConfig.n_trees, _CLASSIFY, "Trees per forest."),
    "fractions": (_comma_list(float), DEFAULT_FRACTIONS, _CLASSIFY, None),
}
# The model scales, fit settings and CSV schema: a file-only key per field of
# these classes, parsed by its type, unless a row above holds the name (`seed`
# is the master seed; `sigma_w` sets both models' loadings).
for cls, commands in ((CausalModelSpec, _SCORE), (ConfoundedModelSpec, _SCORE),
                      (FitConfig, _SCORE), (SchemaConfig, _ALL)):
    for f in fields(cls):
        parse = _comma_list(get_args(f.type)[0]) if get_origin(f.type) is tuple else f.type
        KEYS.setdefault(f.name, (parse, f.default, commands, None))


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def resolve_config(command: str, config_path, flags: dict) -> dict:
    """Every key ``command`` reads: the flag if given, else the config
    file's value, else the default.  Flag and file text go through the
    key's parser alike; a file key in no row of :data:`KEYS`, or text
    the parser refuses, is a :class:`SchemaError` naming the flag or the
    file and key.
    """
    file_values = read_config_file(config_path) if config_path else {}
    unknown = [key for key in file_values if key not in KEYS]
    if unknown:
        raise SchemaError(f"{config_path}: unknown config key "
                          + ", ".join(repr(key) for key in unknown))
    resolved = {}
    for name, (parse, default, commands, _) in KEYS.items():
        if command not in commands:
            continue
        if flags.get(name) is not None:
            where, text = _flag(name), str(flags[name])  # a --controls-only pair gives a bool
        elif name in file_values:
            where, text = f"{config_path}: {name}", file_values[name]
        else:
            resolved[name] = default
            continue
        try:
            resolved[name] = parse(text)
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from None
    return resolved


def _from_keys(cls, cfg: dict, **given):
    """A ``cls`` whose fields are ``given``, else the resolved key of the same name."""
    return cls(**{f.name: cfg[f.name] for f in fields(cls) if f.name in cfg} | given)


def _flags(command: str):
    """``--config`` and a text flag for each key ``command`` reads that has help."""
    def apply(fn):
        for name, (_, _, commands, help_text) in reversed(KEYS.items()):
            if command in commands and help_text:
                decl = _flag(name) + ("/--with-disease" if name == "controls_only" else "")
                fn = click.option(decl, name, default=None, help=help_text)(fn)
        return click.option("--config", "config_path", help="Flat key=value config file.")(fn)
    return apply


@contextmanager
def _usage_errors(errors=(BiasAuditError, ValueError, OSError)):
    """Turn bad input or configuration into one ``error:`` line and exit 2."""
    try:
        yield
    except errors as exc:
        message = exc.format_message() if isinstance(exc, click.UsageError) else exc
        click.echo(f"error: {message}", err=True)
        sys.exit(EXIT_USAGE)


def _load_table(cfg: dict):
    """Load the configured input CSV and print how many rows it rejected;
    every error names the file."""
    path = cfg["input"]
    if path is None:
        raise SchemaError("no input file given")
    schema = _from_keys(SchemaConfig, cfg)
    try:
        table, report = load_csv(path, schema)
    except ValueError as exc:  # undecodable bytes, duplicate subject ids
        raise SchemaError(f"{path}: {exc}") from None
    if report.n_rejected:
        click.echo(f"{path}: rejected {report.n_rejected} row(s)", err=True)
    return table, report


def _report_head(command: str, cfg: dict, input_sha256: str, **derived) -> dict:
    """A JSON report's config block and the fingerprint of the audit it names.

    The fingerprint leaves out where the run read and wrote and how many
    workers it used, which leave its results as they are.
    """
    block = {"command": command, **cfg, "input_sha256": input_sha256, **derived}
    audit = {key: value for key, value in block.items() if key not in ("input", "out", "jobs")}
    return {"fingerprint": fingerprint(audit), "config": block}


def _make_out_dir(path) -> Path:
    """Create ``--out``; called before any work, so a bad path exits 2."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


class _Main(click.Group):
    """The command group.  click's own usage errors (an unknown command or
    option, a missing or malformed flag value) exit 2 on one ``error:``
    line, like every other bad input."""

    def parse_args(self, ctx, args):
        if not args:  # a bare `biasaudit` prints the help
            return super().parse_args(ctx, args)
        with _usage_errors(click.UsageError):
            return super().parse_args(ctx, args)

    def invoke(self, ctx):
        with _usage_errors(click.UsageError):
            return super().invoke(ctx)


@click.group(cls=_Main)
def main():
    """Quantify confounding bias and detect dataset bias in tabular data."""


@main.command()
@_flags("validate")
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
@_flags("score")
def score(config_path, **flags):
    """Score every (dataset, target) pair and write the reports, also when
    every pair fails (exit 3); each failed pair is printed once."""
    with _usage_errors():
        cfg = resolve_config("score", config_path, flags)
        table, loaded = _load_table(cfg)
        cause_spec = CauseSpec.parse(cfg["causes"])
        cause_columns = {t.column for t in cause_spec.terms}
        missing = sorted(cause_columns - {"age", "sex", *table.feature_names})
        if missing:  # fail here, not once per fit
            raise SchemaError(f"{cfg['input']}: no cause column "
                              + ", ".join(repr(column) for column in missing))
        if cfg["targets"] is not None:
            target_list = tuple(t.strip() for t in cfg["targets"].split(",") if t.strip())
        else:
            target_list = tuple(c for c in table.feature_names if c not in cause_columns)
        config = _from_keys(
            ScoringConfig, cfg, cause_spec=cause_spec, targets=target_list,
            causal_model=_from_keys(CausalModelSpec, cfg),
            confounded_model=_from_keys(ConfoundedModelSpec, cfg),
            # each fit derives its own FitConfig.seed; the seed key is master_seed
            fit_config=_from_keys(FitConfig, cfg, seed=FitConfig.seed),
            master_seed=cfg["seed"],
            causal_method=METHODS[cfg["method"]],
            causal_family=FAMILIES[cfg["family"]])
        out = _make_out_dir(cfg["out"])

    records = score_all(table, config)
    ok = [r for r in records if not isinstance(r, FailedScore)]
    failed = [r for r in records if isinstance(r, FailedScore)]
    payload = {
        **_report_head("score", cfg, loaded.sha256, targets=",".join(target_list)),
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

    write_csv(out / "scores.csv",
              ["dataset", "target", "n", "L_ca", "L_co", "delta",
               "delta_per_sample", "converged"],
              [[r.dataset, r.target, r.n, r.causal_nats, r.confounded_nats,
                r.delta, r.delta_per_sample,
                r.diagnostics["causal"]["converged"]
                and r.diagnostics["confounded"]["converged"]]
               for r in ok])
    aggregates = aggregate_by_dataset(records)
    write_csv(out / "aggregate.csv",
              ["dataset", "mean_delta", "sd_delta", "n_targets"],
              [[a.dataset, a.mean_delta, a.sd_delta, a.n_targets] for a in aggregates])

    click.echo(f"scored {len(ok)} pairs ({len(failed)} failures) -> {out}")
    for f in failed:
        click.echo(f"  failed ({f.dataset}, {f.target}): {f.error}", err=True)
    aggregated = {a.dataset for a in aggregates}
    for dataset in dict.fromkeys(f.dataset for f in failed if f.dataset not in aggregated):
        click.echo(f"dataset {dataset}: no scored pair, left out of aggregate.csv", err=True)
    if not ok:
        click.echo("error: every (dataset, target) fit failed", err=True)
        sys.exit(EXIT_FAILURE)


@main.command()
@_flags("classify")
def classify(config_path, **flags):
    """Run the dataset-membership experiment and write curve/confusion reports."""
    with _usage_errors():
        cfg = resolve_config("classify", config_path, flags)
        table, loaded = _load_table(cfg)
        feature_sets = _feature_sets(table.feature_names, cfg["feature_prefixes"])
        out = _make_out_dir(cfg["out"])
        results = name_that_dataset(
            table, feature_sets, fractions=cfg["fractions"],
            repetitions=cfg["repetitions"], seed=cfg["seed"],
            rf_config=RFConfig(n_trees=cfg["trees"]),
            controls_only=cfg["controls_only"], jobs=cfg["jobs"])

    head = _report_head("classify", cfg, loaded.sha256, feature_sets=feature_sets)
    (out / "classify.json").write_text(
        json.dumps(head, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    curve_rows = []
    for fs_name in feature_sets:
        for p in results[fs_name].curve.points:
            curve_rows.append([fs_name, p.train_fraction, p.mean_accuracy,
                               p.sd_accuracy, p.repetitions])
    write_csv(out / "curve.csv",
              ["feature_set", "fraction", "mean_acc", "sd_acc", "repetitions"],
              curve_rows)

    # the confusion report covers the last (most feature-rich) set
    last = list(feature_sets)[-1]
    confusion = results[last].confusion
    conf_rows = []
    for i, true_label in enumerate(confusion.class_labels):
        for j, pred_label in enumerate(confusion.class_labels):
            conf_rows.append([true_label, pred_label, int(confusion.counts[i, j])])
    write_csv(out / "confusion.csv",
              ["true_dataset", "predicted_dataset", "count"], conf_rows)
    click.echo(f"classified over {len(feature_sets)} feature sets -> {out}")


# report names of the default feature prefixes; another prefix is named
# by itself without its trailing "_"
PREFIX_NAMES = {"vol_": "volume", "thick_": "thickness"}


def _feature_sets(feature_names, prefixes) -> dict[str, list[str]]:
    """Demographics, one set per prefix that has columns, and their union.

    Two sets of one report name (``vol_`` and ``volume_``, a prefix
    ``age_sex_``) are a :class:`SchemaError` naming both sources.
    """
    sets, source = {}, {"age_sex": "the age and sex columns"}

    def add(name, columns, where):
        if name in source:
            raise SchemaError(f"feature_prefixes: {source[name]} and {where} "
                              f"both name the feature set {name!r}")
        sets[name], source[name] = columns, where

    for prefix in prefixes:
        columns = [c for c in feature_names if c.startswith(prefix)]
        if columns:
            add(PREFIX_NAMES.get(prefix, prefix.rstrip("_") or prefix), columns, repr(prefix))
    if len(sets) > 1:
        add("_".join(sets), list(dict.fromkeys(c for cs in sets.values() for c in cs)),
            "the union of " + " and ".join(source[name] for name in sets))
    return {"age_sex": ["age", "sex"]} | sets


@main.command()
@click.option("--out", "out_dir", type=click.Path(), default=".", help="Output directory.")
@click.option("--name", type=str, default=GenSpec.dataset, help="Base name for the files.")
@click.option("--kind", type=click.Choice(["mixed", "multidataset"]), default="mixed")
@click.option("--alpha", type=float, default=GenSpec.alpha,
              help="Causal mixing weight (1 = pure causal, 0 = pure confounded).")
@click.option("--n", type=int, default=GenSpec.n, help="Rows (per dataset for multidataset).")
@click.option("--m", type=int, default=GenSpec.m, help="Cause columns (mixed kind).")
@click.option("--k", type=int, default=GenSpec.k, help="Latent confounder dimension.")
@click.option("--noise-sd", type=float, default=GenSpec.noise_sd,
              help="Target noise SD (mixed kind).")
@click.option("--n-datasets", type=int, default=2, help="Datasets (multidataset kind).")
@click.option("--shift", type=float, default=0.0,
              help="Feature mean shift step between consecutive datasets.")
@click.option("--seed", type=int, default=GenSpec.seed, help="Generator seed.")
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
                key: value.tolist() if isinstance(value, np.ndarray) else value
                for key, value in asdict(truth).items()
            } | {
                "kind": "mixed", "n": n, "m": m, "k": k,
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
                "scales": [1.0] * n_datasets,
                "feature_names": list(MULTIDATASET_FEATURES),
                "seed": seed,
            }
    write_table_csv(table, csv_path)
    sidecar_path.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
    click.echo(f"wrote {csv_path} and {sidecar_path}")


if __name__ == "__main__":
    main()
