"""Per-layer metrics computed from the spans of traced commands.

Each metric names the end-to-end metric it should move and the
workloads it should move on; the benchmark prints that mapping with
the traced figures, so a perf change can be checked against the layer
it claims to speed up.
"""

import statistics
from dataclasses import dataclass

from stats import self_times, tail_percentile


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str   # end-to-end metric(s) it should move
    on: str      # workloads it should move on


SCORE_SMALL = "score_small_n most; score_large_n little; classify none"
SCORE_LARGE = "score_large_n most, score_small_n next; classify none"
LARGE_ONLY = "score_large_n only"
ELBO = "score_large_n (2000 x n batch); small on score_small_n"
BOTH_SCORE = "both score workloads"
GROW = "classify_grow most, classify_wide_test next"
PREDICT = "classify_wide_test; about 2% of classify_grow"
TABULAR = "classify_wide_test; 1% or less elsewhere"

LAYER_METRICS = tuple(LayerMetric(*row) for row in (
    ("advi.fit.s", "s", "lower", "units_per_ref, wall_ref", SCORE_SMALL),
    ("advi.fit.self_s", "s", "lower", "units_per_ref, wall_ref", SCORE_SMALL),
    ("advi.fit.us_per_iter", "us", "lower", "units_per_ref, wall_ref", SCORE_SMALL),
    ("advi.fit.iterations", "count", "lower", "units_per_ref, wall_ref", SCORE_SMALL),
    ("advi.fit.converged_frac", "fraction", "higher", "units_per_ref, wall_ref", SCORE_SMALL),
    ("advi.fit.diverged", "count", "lower", "units_per_ref, wall_ref", SCORE_SMALL),
    ("models.confounded_target.s", "s", "lower", "units_per_ref", SCORE_LARGE),
    ("models.confounded_target.calls", "count", "lower", "units_per_ref", SCORE_LARGE),
    ("models.confounded_target.samples", "count", "lower", "units_per_ref", SCORE_LARGE),
    ("models.confounded_target.us_per_sample", "us", "lower", "units_per_ref", SCORE_LARGE),
    ("models.confounded_target.elems", "count", "lower", "units_per_ref", SCORE_LARGE),
    ("models.causal_target.s", "s", "lower", "units_per_ref", SCORE_LARGE),
    ("models.causal_target.calls", "count", "lower", "units_per_ref", SCORE_LARGE),
    ("models.causal_target.samples", "count", "lower", "units_per_ref", SCORE_LARGE),
    ("models.causal_target.us_per_sample", "us", "lower", "units_per_ref", SCORE_LARGE),
    ("models.causal_code_length.s", "s", "lower", "wall_ref, peak_rss_mb", LARGE_ONLY),
    ("models.confounded_code_length.s", "s", "lower", "wall_ref, peak_rss_mb", LARGE_ONLY),
    ("models.causal_evidence_closed_form.s", "s", "lower", "wall_ref, peak_rss_mb", LARGE_ONLY),
    ("models.causal_evidence_closed_form.bytes", "bytes", "lower", "wall_ref, peak_rss_mb",
     LARGE_ONLY),
    ("gaussmath.SpdMatrix.s", "s", "lower", "wall_ref, peak_rss_mb", LARGE_ONLY),
    ("gaussmath.mvn_logpdf.s", "s", "lower", "wall_ref, peak_rss_mb", LARGE_ONLY),
    ("advi.estimate_elbo.s", "s", "lower", "wall_ref, peak_rss_mb", ELBO),
    ("advi.estimate_elbo.samples", "count", "lower", "wall_ref, peak_rss_mb", ELBO),
    ("scoring.score_target.p50_ms", "ms", "lower", "units_per_ref", BOTH_SCORE),
    ("scoring.score_target.pNN_ms", "ms", "lower", "units_per_ref", BOTH_SCORE),
    ("scoring.score_target.calls", "count", "higher", "units_per_ref", BOTH_SCORE),
    ("scoring.score_all.s", "s", "lower", "units_per_ref", BOTH_SCORE),
    ("forest.train_tree.s", "s", "lower", "units_per_ref", GROW),
    ("forest.train_tree.p50_ms", "ms", "lower", "units_per_ref", GROW),
    ("forest.train_tree.calls", "count", "higher", "units_per_ref", GROW),
    ("forest.train_tree.nodes", "count", "lower", "units_per_ref", GROW),
    ("forest.train_tree.depth_max", "count", "lower", "units_per_ref", GROW),
    ("forest.train_tree.rows", "count", "higher", "units_per_ref", GROW),
    ("forest.train_tree.us_per_node", "us", "lower", "units_per_ref", GROW),
    ("forest.train_forest.s", "s", "lower", "units_per_ref", GROW),
    ("forest.Forest.predict_codes.s", "s", "lower", "units_per_ref", PREDICT),
    ("forest.Forest.predict_codes.rows", "count", "higher", "units_per_ref", PREDICT),
    ("forest.Forest.predict_codes.ns_per_row_tree", "ns", "lower", "units_per_ref", PREDICT),
    ("tabular.load_csv.s", "s", "lower", "units_per_ref, wall_ref", TABULAR),
    ("tabular.load_csv.rows", "count", "higher", "units_per_ref, wall_ref", TABULAR),
    ("tabular.stratified_split.s", "s", "lower", "units_per_ref, wall_ref", TABULAR),
    ("tabular.stratified_split.calls", "count", "higher", "units_per_ref, wall_ref", TABULAR),
    ("tabular.Table.take.s", "s", "lower", "units_per_ref, wall_ref", TABULAR),
    ("tabular.Table.take.rows", "count", "lower", "units_per_ref, wall_ref", TABULAR),
    ("tabular.build_design.s", "s", "lower", "units_per_ref, wall_ref", TABULAR),
    ("forest.name_that_dataset.s", "s", "lower", "units_per_ref, wall_ref", TABULAR),
    ("cli.self_s", "s", "lower", "wall_ref", "all workloads, small"),
    ("trace.overhead_s", "s", "lower", "none (traced minus untraced wall_ref, in s)",
     "all workloads"),
))


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def command_values(spans):
    """Per-layer totals and counts of one traced command.

    ``spans`` are ``[span_id, parent_id, name, start, end, attrs]`` lists
    as the recorder dumps them.  Returns the metric values that are
    additive over one command plus the raw per-call durations that the
    percentile metrics pool across commands.
    """
    own = self_times([s[:5] for s in spans])
    durations, self_of, counts = {}, {}, {}
    for span_id, _parent, name, start, end, attrs in spans:
        durations.setdefault(name, []).append(end - start)
        self_of[name] = self_of.get(name, 0.0) + own[span_id]
        per_name = counts.setdefault(name, {})
        attrs = attrs or {}
        for key, value in attrs.items():
            if key == "depth_max":
                per_name[key] = max(per_name.get(key, 0), value)
            elif isinstance(value, (int, float)):
                per_name[key] = per_name.get(key, 0) + value
        if attrs.get("raised") == "DivergenceError":
            per_name["diverged"] = per_name.get("diverged", 0) + 1
        if "trees" in attrs:
            per_name["row_trees"] = per_name.get("row_trees", 0) + attrs["rows"] * attrs["trees"]

    def t(name):
        return sum(durations.get(name, ()))

    def calls(name):
        return len(durations.get(name, ()))

    def c(name, key):
        return counts.get(name, {}).get(key, 0)

    values = {
        "advi.fit.s": t("advi.fit"),
        "advi.fit.self_s": self_of.get("advi.fit", 0.0),
        "advi.fit.us_per_iter": _ratio(t("advi.fit"), c("advi.fit", "iterations"), 1e6),
        "advi.fit.iterations": c("advi.fit", "iterations"),
        "advi.fit.converged_frac": _ratio(c("advi.fit", "converged"), calls("advi.fit")),
        "advi.fit.diverged": c("advi.fit", "diverged"),
        "models.causal_code_length.s": t("models.causal_code_length"),
        "models.confounded_code_length.s": t("models.confounded_code_length"),
        "models.causal_evidence_closed_form.s": t("models.causal_evidence_closed_form"),
        "models.causal_evidence_closed_form.bytes": c("models.causal_evidence_closed_form",
                                                      "bytes"),
        "gaussmath.SpdMatrix.s": t("gaussmath.SpdMatrix"),
        "gaussmath.mvn_logpdf.s": t("gaussmath.mvn_logpdf"),
        "advi.estimate_elbo.s": t("advi.estimate_elbo"),
        "advi.estimate_elbo.samples": c("advi.estimate_elbo", "samples"),
        "scoring.score_target.calls": calls("scoring.score_target"),
        "scoring.score_all.s": t("scoring.score_all"),
        "forest.train_tree.s": t("forest.train_tree"),
        "forest.train_tree.calls": calls("forest.train_tree"),
        "forest.train_tree.nodes": c("forest.train_tree", "nodes"),
        "forest.train_tree.depth_max": c("forest.train_tree", "depth_max"),
        "forest.train_tree.rows": c("forest.train_tree", "rows"),
        "forest.train_tree.us_per_node": _ratio(t("forest.train_tree"),
                                                c("forest.train_tree", "nodes"), 1e6),
        "forest.train_forest.s": t("forest.train_forest"),
        "forest.Forest.predict_codes.s": t("forest.Forest.predict_codes"),
        "forest.Forest.predict_codes.rows": c("forest.Forest.predict_codes", "rows"),
        "forest.Forest.predict_codes.ns_per_row_tree": _ratio(
            t("forest.Forest.predict_codes"), c("forest.Forest.predict_codes", "row_trees"),
            1e9),
        "tabular.load_csv.s": t("tabular.load_csv"),
        "tabular.load_csv.rows": c("tabular.load_csv", "rows"),
        "tabular.stratified_split.s": t("tabular.stratified_split"),
        "tabular.stratified_split.calls": calls("tabular.stratified_split"),
        "tabular.Table.take.s": t("tabular.Table.take"),
        "tabular.Table.take.rows": c("tabular.Table.take", "rows"),
        "tabular.build_design.s": t("tabular.build_design"),
        "forest.name_that_dataset.s": t("forest.name_that_dataset"),
        "cli.self_s": self_of.get("cli.main", 0.0),
    }
    for target in ("confounded_target", "causal_target"):
        name = f"models.{target}"
        values[f"{name}.s"] = t(name)
        values[f"{name}.calls"] = calls(name)
        values[f"{name}.samples"] = c(name, "samples")
        values[f"{name}.us_per_sample"] = _ratio(t(name), c(name, "samples"), 1e6)
    values["models.confounded_target.elems"] = c("models.confounded_target", "elems")
    return values, {name: durations.get(name, [])
                    for name in ("scoring.score_target", "forest.train_tree")}


def summarize(traced, untraced_walls):
    """Per-layer metrics over several traced commands.

    ``traced`` holds ``(spans, wall_s)`` per traced command.  Additive
    values are the median over commands; percentiles pool every call;
    the tracing overhead is the median traced wall time minus the
    median untraced one.  Returns ``(metrics, notes)``, where notes give
    the percentile level and sample count behind ``pNN``.
    """
    per_command, pooled = [], {}
    for spans, _wall in traced:
        values, durations = command_values(spans)
        per_command.append(values)
        for name, ds in durations.items():
            pooled.setdefault(name, []).extend(ds)
    metrics = {key: statistics.median(v[key] for v in per_command) for key in per_command[0]}
    notes = {}
    for name in ("scoring.score_target", "forest.train_tree"):
        samples = pooled.get(name, [])
        metrics[f"{name}.p50_ms"] = 1e3 * statistics.median(samples) if samples else 0.0
        notes[f"{name}.samples"] = len(samples)
    tail = tail_percentile(pooled.get("scoring.score_target", []))
    metrics["scoring.score_target.pNN_ms"] = 1e3 * tail[1] if tail else 0.0
    notes["scoring.score_target.pNN_level"] = tail[0] if tail else None
    metrics["trace.overhead_s"] = (statistics.median(w for _, w in traced)
                                   - statistics.median(untraced_walls))
    return {m.name: metrics[m.name] for m in LAYER_METRICS}, notes
