"""Self-test of the benchmark's own arithmetic, on hand-built spans and samples.

    python3 perfbench/selftest.py

``run.py`` runs it before every benchmark run and refuses to measure
when it fails.  Needs no biasaudit import.
"""

import json
import math
import sys
from pathlib import Path

import layers
from stats import command_failures, failed_frac, self_times, tail_percentile
from workloads import END_TO_END, WORKLOADS

MANIFEST = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def check_self_times():
    # root 0..10 holds a 1..4 child (itself holding 2..3), a 5..9 child and
    # an overlapping 6..7 child that must not be counted twice; a span
    # sticking out of its parent only counts inside it
    spans = [
        (0, None, "root", 0.0, 10.0),
        (1, 0, "a", 1.0, 4.0),
        (2, 1, "a.inner", 2.0, 3.0),
        (3, 0, "b", 5.0, 9.0),
        (4, 0, "c", 6.0, 7.0),
        (5, 4, "c.spill", 6.5, 7.5),
    ]
    own = self_times(spans)
    expected = {0: 10.0 - 3.0 - 4.0, 1: 2.0, 2: 1.0, 3: 4.0, 4: 0.5, 5: 1.0}
    return [f"self_times span {k}: {own[k]} != {v}" for k, v in expected.items()
            if not _close(own[k], v)]


def check_tail_percentile():
    problems = []
    if tail_percentile(list(range(10))) is not None:
        problems.append("10 samples cannot have 10 beyond any percentile")
    for n, level in ((11, 9), (20, 50), (100, 90), (101, 90), (1000, 99)):
        samples = [float(x) for x in range(n, 0, -1)]  # unsorted on purpose
        got = tail_percentile(samples)
        beyond = sum(1 for x in samples if x > got[1])
        if got[0] != level or beyond < 10:
            problems.append(f"tail_percentile n={n}: got {got}, {beyond} beyond, want p{level}")
        higher = math.ceil((level + 1) * n / 100)
        if n - higher >= 10:
            problems.append(f"tail_percentile n={n}: p{level + 1} also has 10 beyond")
    return problems


def check_counts():
    problems = []
    # three commands of 16 units: one crashed, one lost 3 pairs, one was clean;
    # a classify command with 2 of 8 curve rows skipped at 2 repetitions loses 4 forests
    failed = (command_failures(16, False) + command_failures(16, True, failed_pairs=3)
              + command_failures(16, True))
    if failed != 19 or not _close(failed_frac(failed, 48), 19 / 48):
        problems.append(f"failure count {failed} of 48, want 19")
    skipped = command_failures(16, True, missing_curve_rows=2, repetitions=2)
    if skipped != 4:
        problems.append(f"skipped curve rows count {skipped} forests, want 4")
    for bad in ((1, 0), (5, 4), (-1, 4)):
        try:
            failed_frac(*bad)
            problems.append(f"failed_frac{bad} did not raise")
        except ValueError:
            pass
    return problems


def check_layer_values():
    # one score command: main -> score_all -> score_target -> fit -> 2 target calls
    spans = [
        [0, None, "cli.main", 0.0, 10.0, {"raised": "SystemExit"}],
        [1, 0, "tabular.load_csv", 0.0, 1.0, {"rows": 200}],
        [2, 0, "scoring.score_all", 1.5, 9.5, None],
        [3, 2, "scoring.score_target", 1.5, 9.5, None],
        [4, 3, "advi.fit", 2.0, 6.0, {"iterations": 400, "converged": 1}],
        [5, 4, "models.confounded_target", 2.0, 3.0, {"samples": 8, "elems": 6400}],
        [6, 4, "models.confounded_target", 4.0, 5.0, {"samples": 8, "elems": 6400}],
        [7, 3, "advi.fit", 6.0, 7.0, {"raised": "DivergenceError"}],
        [8, 3, "forest.Forest.predict_codes", 7.0, 7.5, {"rows": 100, "trees": 10}],
    ]
    values, durations = layers.command_values(spans)
    expected = {
        "cli.self_s": 10.0 - 1.0 - 8.0,
        "advi.fit.s": 5.0,
        "advi.fit.self_s": 3.0,
        "advi.fit.iterations": 400,
        "advi.fit.us_per_iter": 5.0 / 400 * 1e6,
        "advi.fit.converged_frac": 0.5,
        "advi.fit.diverged": 1,
        "models.confounded_target.calls": 2,
        "models.confounded_target.samples": 16,
        "models.confounded_target.elems": 12800,
        "models.confounded_target.us_per_sample": 2.0 / 16 * 1e6,
        "forest.Forest.predict_codes.ns_per_row_tree": 0.5 / 1000 * 1e9,
        "tabular.load_csv.rows": 200,
        "forest.train_tree.us_per_node": 0.0,
    }
    problems = [f"{k}: {values[k]} != {v}" for k, v in expected.items()
                if not _close(values[k], v)]
    if durations["scoring.score_target"] != [8.0]:
        problems.append(f"score_target durations {durations['scoring.score_target']}")
    metrics, _ = layers.summarize([(spans, 10.0), (spans, 12.0)], [9.0, 10.0, 11.0])
    if not _close(metrics["trace.overhead_s"], 1.0):
        problems.append(f"trace.overhead_s {metrics['trace.overhead_s']} != 1.0")
    if set(metrics) != {m.name for m in layers.LAYER_METRICS}:
        problems.append("summarize does not report exactly the declared layer metrics")
    return problems


def check_manifest():
    """BENCHMARK.json lists exactly the workloads and metrics the benchmark reports."""
    if not MANIFEST.is_file():
        return [f"{MANIFEST.name} is missing"]
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    problems = []
    declared = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    if declared != END_TO_END:
        problems.append(f"end_to_end in {MANIFEST.name} {declared} != {END_TO_END}")
    declared = {w["name"]: w["why"] for w in manifest["workloads"]}
    if declared != {w.name: w.why for w in WORKLOADS.values()}:
        problems.append(f"workloads in {MANIFEST.name} differ from workloads.WORKLOADS")
    declared = [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]]
    reported = [(m.name, m.unit, m.better) for m in layers.LAYER_METRICS]
    if declared != reported:
        problems.append(f"per_layer in {MANIFEST.name} differs from layers.LAYER_METRICS")
    return problems


def run():
    """Every problem found; empty when the arithmetic holds."""
    return (check_self_times() + check_tail_percentile() + check_counts()
            + check_layer_values() + check_manifest())


if __name__ == "__main__":
    found = run()
    for problem in found:
        print(f"FAIL {problem}")
    print("self-test passed" if not found else f"{len(found)} problem(s)")
    sys.exit(1 if found else 0)
