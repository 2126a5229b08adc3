"""biasaudit benchmark: one workload through the real CLI, timed and checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/biasaudit`` must exist).
Set-up generates the workload's input from ``--seed`` and warms the
package up, three times before the timed window and three times after
it; ``setup_s`` is the median.  In between, the workload's ``biasaudit``
command runs again and again, each time in a fresh process with one
BLAS thread and ``--jobs 1`` (closed loop, one client), for about
``--seconds`` seconds.  Each command is timed between two runs of a
fixed reference kernel (``reference.py``), and ``wall_ref`` is the
median of command wall time over reference wall time, which stays put
while a shared host's speed swings.  Every command's reports are
checked; the last line printed is a JSON object with ``correct``,
``attempted``, ``failed`` and the metrics: the end-to-end ones with
``--trace 0``, the per-layer ones from traced commands with ``--trace 1``.
The exit code is 0 only when every check passed.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import selftest
from stats import command_failures, failed_frac, tail_percentile
from workloads import CAUSES, END_TO_END, WORKLOADS, cli_args

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
SETUPS = 3   # before the timed window, and as many again after it
MIN_COMMANDS = 3
COMMAND_TIMEOUT_S = 150
PIN_THREADS = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                       "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                       "NUMEXPR_NUM_THREADS")}
# Every command of a run writes to the same --out path, so even the JSON
# reports, whose fingerprint embeds that path, must match byte for byte.
REPORTS = {"score": ("scores.csv", "aggregate.csv", "scores.json"),
           "classify": ("curve.csv", "confusion.csv", "classify.json")}

# Quality floors.  Inputs are built so that a correct audit clears them
# with a wide margin: alpha is 0 or 1, so |delta| is tens (n=200) to
# hundreds (n=2000) of nats; a converged causal ADVI fit sits 0.01-0.13
# nats above its closed form; datasets are shifted 0.3 SD apart while age
# and sex are drawn identically everywhere.
MIN_SIGN_AGREEMENT = 0.9
CAUSAL_GAP_RANGE = (-0.05, 0.5)     # median nats, ADVI minus closed form
CLOSED_FORM_TOLERANCE = 1e-6        # nats, --method closed-form against the oracle
MIN_ACC_OVER_CHANCE = 0.05
MAX_CONTROL_EXCESS_ACC = 0.05


class Checks:
    """Collects failed output checks; the run is correct when none failed."""

    def __init__(self):
        self.failures = []

    def require(self, ok, message):
        if not ok:
            self.failures.append(message)
        return ok


def spawn(args, result_path):
    """Run ``perfbench/child.py`` to completion and return its result record."""
    if result_path.exists():
        result_path.unlink()
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "child.py")] + args,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=COMMAND_TIMEOUT_S)
    elapsed = time.perf_counter() - started
    if proc.returncode != 0 or not result_path.exists():
        return {"exit_code": proc.returncode or 1, "elapsed_s": elapsed,
                "stderr": proc.stderr[-2000:]}
    record = json.loads(result_path.read_text(encoding="utf-8"))
    record["elapsed_s"] = elapsed
    record["stderr"] = proc.stderr[-2000:]
    return record


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def read_csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def run_setups(workload, seed, work, checks, written=None):
    """Set up ``SETUPS`` times into ``work``.

    Returns (seconds of each set-up, input description, digests of the
    inputs written).  Every set-up must write the same inputs, and the
    ones ``written`` gives when it is given.
    """
    times = []
    inputs = None
    for i in range(SETUPS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        result = work / "setup.json"
        started = time.perf_counter()
        record = spawn(["setup", str(result), workload.name, str(seed), str(work)], result)
        times.append(time.perf_counter() - started)
        if not checks.require(record.get("exit_code") == 0,
                              f"set-up {i} failed: {record.get('stderr', '')}"):
            return times, None, written
        inputs = record["inputs"]
        digests = tuple(digest(Path(p)) for p in (inputs["csv"], inputs["config"]) if p)
        written = written or digests
        checks.require(digests == written, "set-up wrote different inputs for one seed")
    return times, inputs, written


def check_command(workload, record, out_dir, checks):
    """Output checks of one command; returns (failed units, report digests)."""
    units = workload.units_per_command
    if not checks.require(record.get("exit_code") == 0,
                          f"command exited {record.get('exit_code')}: "
                          f"{record.get('stderr', '')[-500:]}"):
        return command_failures(units, finished=False), None
    digests = {name: digest(out_dir / name) for name in REPORTS[workload.command]}
    if not checks.require(all(digests.values()), f"missing reports: {digests}"):
        return command_failures(units, finished=False), None
    if workload.command == "score":
        payload = json.loads((out_dir / "scores.json").read_text(encoding="utf-8"))
        rows = read_csv_rows(out_dir / "scores.csv")
        failed = len(payload["failures"])
        checks.require(len(rows) == units - failed,
                       f"scores.csv has {len(rows)} rows, expected {units - failed}")
        checks.require(all(math.isfinite(float(r[k])) for r in rows
                           for k in ("L_ca", "L_co", "delta")), "non-finite score")
        return command_failures(units, True, failed_pairs=failed), digests
    rows = read_csv_rows(out_dir / "curve.csv")
    expected_rows = workload.feature_sets * len(workload.fractions)
    checks.require(len(rows) == expected_rows,
                   f"curve.csv has {len(rows)} rows, expected {expected_rows}")
    checks.require(all(math.isfinite(float(r["mean_acc"])) for r in rows), "non-finite accuracy")
    missing = max(expected_rows - len(rows), 0)
    return command_failures(units, True, missing_curve_rows=missing,
                            repetitions=workload.repetitions), digests


def score_quality(workload, inputs, out_dir, checks):
    """sign_agreement for both score workloads, causal_gap_nats against the closed form."""
    import numpy as np
    from biasaudit.models import CausalModelSpec, causal_code_length
    from biasaudit.tabular import CauseSpec, build_design, load_csv, standardize_column

    rows = read_csv_rows(out_dir / "scores.csv")
    alphas = inputs["alphas"]
    agree = [(float(r["delta"]) > 0) == (alphas[r["dataset"]] == 1.0) for r in rows]
    quality = {"sign_agreement": sum(agree) / len(agree)}
    checks.require(quality["sign_agreement"] >= MIN_SIGN_AGREEMENT,
                   f"sign_agreement {quality['sign_agreement']:.3f} < {MIN_SIGN_AGREEMENT}")

    # the rows score_target builds: controls only, standardized design and target
    table, _ = load_csv(inputs["csv"])
    spec = CauseSpec.parse(CAUSES)
    gaps = []
    for r in rows:
        sub = table.take(np.flatnonzero(table.dataset_labels == r["dataset"])).filter_controls()
        X = build_design(sub, spec)
        y, _, _ = standardize_column(sub.column(r["target"]))
        exact = causal_code_length(X, y, CausalModelSpec(), method="closed_form").nats
        gaps.append(float(r["L_ca"]) - exact)
    gap = statistics.median(gaps)
    if workload.name == "score_small_n":
        quality["causal_gap_nats"] = gap
        lo, hi = CAUSAL_GAP_RANGE
        checks.require(lo <= gap <= hi, f"causal_gap_nats {gap:.4f} outside [{lo}, {hi}]")
    else:
        checks.require(max(abs(g) for g in gaps) <= CLOSED_FORM_TOLERANCE,
                       f"closed-form L_ca differs from the oracle by {max(map(abs, gaps)):.3g}")
    return quality


def classify_quality(workload, out_dir, checks):
    """acc_over_chance and control_excess_acc at the largest training fraction."""
    rows = read_csv_rows(out_dir / "curve.csv")
    chance = 1.0 / workload.generator["datasets"]
    largest = max(workload.fractions)
    acc = {r["feature_set"]: float(r["mean_acc"]) for r in rows
           if float(r["fraction"]) == largest}
    quality = {"acc_over_chance": acc["volume_thickness"] - chance,
               "control_excess_acc": abs(acc["age_sex"] - chance)}
    checks.require(quality["acc_over_chance"] >= MIN_ACC_OVER_CHANCE,
                   f"acc_over_chance {quality['acc_over_chance']:.4f} < {MIN_ACC_OVER_CHANCE}")
    checks.require(quality["control_excess_acc"] <= MAX_CONTROL_EXCESS_ACC,
                   f"control_excess_acc {quality['control_excess_acc']:.4f} "
                   f"> {MAX_CONTROL_EXCESS_ACC}")
    per_dataset = workload.generator["n_per_dataset"]
    test_rows = per_dataset - max(1, round(largest * per_dataset))
    expected = workload.repetitions * workload.generator["datasets"] * test_rows
    counted = sum(int(r["count"]) for r in read_csv_rows(out_dir / "confusion.csv"))
    checks.require(counted == expected, f"confusion.csv counts {counted} rows, expected {expected}")
    return quality


def metadata():
    """Provenance printed with every result; not a metric."""
    import numpy as np
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src" / "biasaudit").glob("*.py")))
    return {"git_sha": sha, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "src_lines": src_lines,
            "threads": "BLAS/OpenMP pinned to 1, --jobs 1"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "biasaudit" / "cli.py").is_file():
        print(f"error: no biasaudit sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    problems = selftest.run()
    if problems:
        print("error: benchmark self-test failed:\n  " + "\n  ".join(problems), file=sys.stderr)
        return 2
    os.environ.update(PIN_THREADS)
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    checks = Checks()
    setup_times, inputs, written = run_setups(workload, args.seed, work, checks)
    if inputs is None:
        print("error: " + "; ".join(checks.failures), file=sys.stderr)
        return 1

    out_dir = work / "out"
    result_path = work / "command.json"
    untraced, traced = [], []
    report_digests = set()
    attempted = failed = 0
    window_start = time.perf_counter()
    while True:
        index = len(untraced) + len(traced)
        elapsed = time.perf_counter() - window_start
        durations = [r["elapsed_s"] for r in untraced + traced]
        if index >= MIN_COMMANDS and elapsed + statistics.mean(durations) > args.seconds:
            break
        use_trace = bool(args.trace) and index % 2 == 0
        shutil.rmtree(out_dir, ignore_errors=True)
        child_args = ["run", str(result_path)]
        if use_trace:
            child_args += ["--trace", f"{workload.name}-{args.seed}-{index}"]
        record = spawn(child_args + ["--"] + cli_args(workload, inputs, out_dir, args.seed),
                       result_path)
        attempted += workload.units_per_command
        command_failed, digests = check_command(workload, record, out_dir, checks)
        failed += command_failed
        if digests is None:
            break
        report_digests.add(tuple(sorted(digests.items())))
        (traced if use_trace else untraced).append(record)
    checks.require(len(report_digests) == 1,
                   f"reports differ between {len(untraced) + len(traced)} identical commands")
    # set up again after the window, in a directory of its own, so that
    # setup_s samples the host at both ends of the run
    later_times, _, _ = run_setups(workload, args.seed, work / "setup_again", checks, written)
    setup_s = statistics.median(setup_times + later_times)

    quality = {}
    if not checks.failures:
        if workload.command == "score":
            quality = score_quality(workload, inputs, out_dir, checks)
        else:
            quality = classify_quality(workload, out_dir, checks)

    meta = metadata()
    print(f"# biasaudit benchmark: workload={workload.name} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds:g}")
    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    print(f"# why: {workload.why}")
    print(f"# generator: {json.dumps(workload.generator, sort_keys=True)}")
    print("# command: biasaudit " + " ".join(cli_args(workload, inputs, out_dir, args.seed)))
    walls = [r["wall_s"] for r in untraced]
    metrics = {}
    if walls:
        wall_ref = statistics.median(r["wall_s"] / r["ref_s"] for r in untraced)
        values = {"setup_s": setup_s, "wall_ref": wall_ref,
                  "units_per_ref": workload.units_per_command / wall_ref,
                  "peak_rss_mb": max(r["peak_rss_mb"] for r in untraced)}
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    report_end_to_end(workload, metrics, untraced, quality, attempted, failed)

    if args.trace:
        layer_metrics = {}
        if traced and untraced:
            # wall times at the run's median reference speed, so that the
            # overhead is not swamped by the host's speed swings
            ref_s = statistics.median(r["ref_s"] for r in traced + untraced)

            def steady(record):
                return record["wall_s"] / record["ref_s"] * ref_s

            values, notes = layers.summarize(
                [(r["trace"]["spans"], steady(r)) for r in traced],
                [steady(r) for r in untraced])
            units = {m.name: m.unit for m in layers.LAYER_METRICS}
            layer_metrics = {k: (v, units[k]) for k, v in values.items()}
            report_layers(values, notes)
        else:
            checks.require(False, "need at least one traced and one untraced command")
        metrics = layer_metrics
    for failure in checks.failures:
        print(f"CHECK FAILED: {failure}")
    correct = not checks.failures
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def report_end_to_end(workload, metrics, untraced, quality, attempted, failed):
    """Human-readable end-to-end figures, and the raw wall times behind them.

    The raw seconds (``wall_s``, ``pairs_per_s`` or ``forests_per_s``)
    are printed but not reported as metrics: they follow the host's
    speed as much as the program's.
    """
    for name, (value, unit) in metrics.items():
        print(f"{name:<22}{value:>14.6g} {unit}")
    walls = [r["wall_s"] for r in untraced]
    if walls:
        wall = statistics.median(walls)
        throughput = "pairs_per_s" if workload.command == "score" else "forests_per_s"
        print(f"{'wall_s':<22}{wall:>14.6g} s (median, not normalized)")
        print(f"{throughput:<22}{workload.units_per_command / wall:>14.6g} 1/s")
        print(f"{'ref_s':<22}{statistics.median(r['ref_s'] for r in untraced):>14.6g} s "
              "(median reference kernel time)")
    print(f"{'wall_s samples':<22}" + " ".join(f"{w:.4g}" for w in walls))
    print(f"{'wall_ref samples':<22}"
          + " ".join(f"{r['wall_s'] / r['ref_s']:.4g}" for r in untraced))
    tail = tail_percentile(walls)
    tail_text = (f"p{tail[0]} {tail[1]:.6g} s" if tail
                 else "no percentile has 10 samples beyond it")
    print(f"{'wall_s tail':<22}{tail_text} ({len(walls)} samples)")
    if attempted:
        print(f"{'failed_frac':<22}{failed_frac(failed, attempted):>14.6g} "
              f"({failed} of {attempted})")
    for name, value in quality.items():
        print(f"{name:<22}{value:>14.6g}")


def report_layers(values, notes):
    for metric in layers.LAYER_METRICS:
        print(f"{metric.name:<46}{values[metric.name]:>14.6g} {metric.unit:<8} "
              f"moves {metric.moves}; on {metric.on}")
    for key, value in notes.items():
        print(f"# {key} = {value}")


if __name__ == "__main__":
    sys.exit(main())
