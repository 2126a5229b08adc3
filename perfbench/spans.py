"""Span recording around calls into biasaudit's layers, from outside the package.

:func:`install` replaces the module attributes that callers look up
(``cli.score_all``, ``scoring.score_target``, ``advi.fit`` and so on)
with wrappers that record a span per call: name, start, end and the
span that was open when the call began.  The target closures returned
by ``models.make_*_target`` are wrapped too, since they run once per
optimisation step.  Spans stay in memory until :meth:`Recorder.dump`.
"""

import time

import numpy as np


class Recorder:
    """In-memory span list of one traced command.

    A span is ``[span_id, parent_id, name, start, end, attrs]``; attrs
    holds the counts measured at that boundary (rows, samples, ...).
    """

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, attrs=None):
        """``fn`` wrapped in a span; ``attrs(args, kwargs, result)`` gives its counts."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [len(spans), stack[-1] if stack else None, name, 0.0, 0.0, None]
            spans.append(record)
            stack.append(record[0])
            record[3] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[4] = clock()
                stack.pop()
                record[5] = {"raised": type(exc).__name__}
                raise
            record[4] = clock()
            stack.pop()
            if attrs is not None:
                record[5] = attrs(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self) -> dict:
        """The spans as plain JSON data; finishes counts deferred out of the timed calls."""
        out = []
        for span_id, parent, name, start, end, attrs in self.spans:
            if attrs and "tree" in attrs:
                attrs = dict(attrs)
                attrs["depth_max"] = tree_depth(attrs.pop("tree"))
            out.append([span_id, parent, name, start, end, attrs])
        return {"trace_id": self.trace_id, "spans": out}


def tree_depth(tree) -> int:
    """Depth of the deepest leaf; children always follow their parent in node order."""
    depth = np.zeros(tree.n_nodes, dtype=int)
    for i in np.flatnonzero(tree.feature >= 0):
        depth[tree.left[i]] = depth[tree.right[i]] = depth[i] + 1
    return int(depth.max())


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def _traced_target(rec, name, make, elems_per_sample=None):
    """Wrap a target factory so every closure it returns records a span per call.

    ``elems_per_sample(args, kwargs)`` gives the data elements one sample
    touches, from the factory's arguments.
    """

    def factory(*args, **kwargs):
        target, d = make(*args, **kwargs)
        per_sample = elems_per_sample(args, kwargs) if elems_per_sample else 0

        def counts(call_args, _kwargs, _result):
            samples = int(np.atleast_2d(call_args[0]).shape[0])
            return {"samples": samples, "elems": samples * per_sample}

        return rec.wrap(name, target, counts), d

    return factory


def install(rec: Recorder) -> None:
    """Patch biasaudit's call sites so every layer boundary records into ``rec``."""
    from biasaudit import advi, cli, forest, models, scoring, tabular

    cli.load_csv = rec.wrap("tabular.load_csv", cli.load_csv,
                            lambda a, k, r: {"rows": r[0].n_rows})
    cli.score_all = rec.wrap("scoring.score_all", cli.score_all)
    cli.name_that_dataset = rec.wrap("forest.name_that_dataset", cli.name_that_dataset)

    scoring.score_target = rec.wrap("scoring.score_target", scoring.score_target)
    scoring.build_design = rec.wrap("tabular.build_design", scoring.build_design)
    scoring.causal_code_length = rec.wrap("models.causal_code_length",
                                          scoring.causal_code_length)
    scoring.confounded_code_length = rec.wrap("models.confounded_code_length",
                                              scoring.confounded_code_length)

    advi.fit = rec.wrap("advi.fit", advi.fit,
                        lambda a, k, r: {"iterations": r[1].iterations_run,
                                         "converged": int(r[1].converged)})
    advi.estimate_elbo = rec.wrap("advi.estimate_elbo", advi.estimate_elbo,
                                  lambda a, k, r: {"samples": _arg(a, k, 2, "n_samples")})

    models.make_causal_target = _traced_target(
        rec, "models.causal_target", models.make_causal_target)
    models.make_confounded_target = _traced_target(
        rec, "models.confounded_target", models.make_confounded_target,
        lambda a, k: _arg(a, k, 0, "V").values.size)
    models.causal_evidence_closed_form = rec.wrap(
        "models.causal_evidence_closed_form", models.causal_evidence_closed_form,
        lambda a, k, r: {"bytes": 8 * np.asarray(_arg(a, k, 1, "y")).size ** 2})
    models.SpdMatrix = rec.wrap("gaussmath.SpdMatrix", models.SpdMatrix)
    models.mvn_logpdf = rec.wrap("gaussmath.mvn_logpdf", models.mvn_logpdf)

    forest.train_tree = rec.wrap(
        "forest.train_tree", forest.train_tree,
        lambda a, k, r: {"rows": int(np.shape(_arg(a, k, 0, "X"))[0]),
                         "nodes": r.n_nodes, "tree": r})
    forest.train_forest = rec.wrap("forest.train_forest", forest.train_forest)
    forest.stratified_split = rec.wrap("tabular.stratified_split", forest.stratified_split)
    forest.Forest.predict_codes = rec.wrap(
        "forest.Forest.predict_codes", forest.Forest.predict_codes,
        lambda a, k, r: {"rows": int(np.shape(_arg(a, k, 1, "X"))[0]),
                         "trees": len(a[0].trees)})
    tabular.Table.take = rec.wrap("tabular.Table.take", tabular.Table.take,
                                  lambda a, k, r: {"rows": r.n_rows})
