"""From-scratch random forest and the dataset-membership experiment.

CART trees with Gini impurity, random feature subsets per node and
bootstrap resampling per tree.  Trees grow level by level, all trees of
a forest together: each depth stacks every open node's rows once per
candidate feature and rates every threshold of every node in one
segmented Gini scan (prefix class counts over sorted feature values),
so the number of numpy calls grows with depth, not with node count.
Each tree draws its nodes' feature orders from its own seed, one block
per depth.  The membership harness ("which dataset does this row come
from?") trains forests over a grid of training fractions and reports
learning curves plus a confusion matrix at the largest fraction.
"""

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import SplitError
from .seeding import derive_seed
from .tabular import Table, stratified_split

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RFConfig:
    """Forest hyperparameters; defaults follow common library defaults."""

    n_trees: int = 100
    max_depth: int | None = None
    min_samples_leaf: int = 1
    bootstrap: bool = True

    def __post_init__(self):
        if self.n_trees < 1 or self.min_samples_leaf < 1:
            raise ValueError("n_trees and min_samples_leaf must be >= 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1 when set")

    def fingerprint(self) -> str:
        depth = "none" if self.max_depth is None else str(self.max_depth)
        return (f"trees={self.n_trees},gini,sqrt-features,depth={depth},"
                f"min_leaf={self.min_samples_leaf},bootstrap={self.bootstrap}")


class DecisionTree:
    """CART tree stored as flat node arrays.

    ``feature[i] == -1`` marks a leaf; internal nodes route
    ``x[feature] <= threshold`` to ``left``.  Leaves keep their class
    counts.
    """

    def __init__(self, feature, threshold, left, right, leaf_counts, class_labels):
        self.feature = np.asarray(feature, dtype=int)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=int)
        self.right = np.asarray(right, dtype=int)
        self.leaf_counts = np.asarray(leaf_counts, dtype=int)
        self.class_labels = tuple(class_labels)
        self._leaf_pred = np.argmax(self.leaf_counts, axis=1)

    @property
    def n_nodes(self) -> int:
        return self.feature.size

    def predict_codes(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        node = np.zeros(X.shape[0], dtype=int)
        active = self.feature[node] >= 0
        while np.any(active):
            idx = np.flatnonzero(active)
            cur = node[idx]
            go_left = X[idx, self.feature[cur]] <= self.threshold[cur]
            node[idx] = np.where(go_left, self.left[cur], self.right[cur])
            active[idx] = self.feature[node[idx]] >= 0
        return self._leaf_pred[node]


def _segment_cumsum(values, starts, sizes):
    """Cumulative sums restarting at each segment (exact for integers)."""
    total = np.cumsum(values)
    return total - np.repeat(total[starts] - values[starts], sizes)


def _segment_splits(x, y, sizes, min_leaf):
    """Best Gini split of every segment: ``(gini, threshold)`` arrays.

    ``x`` (feature values) and ``y`` (class codes) hold the segments
    back to back, ``sizes`` their lengths; both are reordered in place.
    One sort orders every segment by value; one scan then rates every
    boundary between distinct values.  A segment without a valid
    boundary gets gini ``inf``.  Each segment's result equals the
    one-segment call (:func:`_gini_best_split`) bit for bit: the sums of
    squared class counts on either side are exact integers, so no
    row-by-class table is built, and the float arithmetic is the same.
    """
    n = x.size
    starts = np.cumsum(sizes) - sizes
    seg = np.repeat(np.arange(sizes.size), sizes)
    order = np.lexsort((x, seg))
    x[:] = x[order]
    y[:] = y[order]
    del order  # each rows-long temporary goes as soon as it is used up

    # Runs of one class within one segment, in sorted order: a row's
    # place in its run counts the earlier same-class rows of its segment,
    # and the run's length is the segment's total T_k of that class.
    by_class = np.argsort(y.astype(np.min_scalar_type(int(y.max()))), kind="stable")
    new_run = np.ones(n, dtype=bool)
    np.not_equal(np.diff(y[by_class]), 0, out=new_run[1:])
    new_run[1:] |= np.diff(seg[by_class]) != 0
    run_start = np.flatnonzero(new_run)
    run_of = np.cumsum(new_run) - 1
    del new_run
    class_total = np.empty(n, dtype=np.int64)
    class_total[by_class] = np.diff(run_start, append=n)[run_of]
    earlier = np.arange(n) - run_start[run_of]
    del run_of, run_start
    step = np.empty(n, dtype=np.int64)
    step[by_class] = 2 * earlier + 1
    del by_class, earlier

    # sum_k left_k^2 grows by 2a + 1 when a row joins a class that has a
    # rows on the left; sum_k right_k^2 = sum_k T_k^2 - 2 sum_k T_k left_k
    # + sum_k left_k^2, where sum_k T_k^2 is the left sum at the segment end
    sq_left = _segment_cumsum(step, starts, sizes)
    del step
    sq_right = _segment_cumsum(class_total, starts, sizes)  # sum_k T_k left_k
    del class_total
    sq_right *= -2
    sq_right += sq_left
    sq_right += np.repeat(sq_left[starts + sizes - 1], sizes)

    size_left = np.arange(1, n + 1)
    size_left -= starts[seg]
    size = sizes[seg]
    valid = size - size_left >= max(min_leaf, 1)
    valid[:-1] &= x[1:] > x[:-1]
    if min_leaf > 1:
        valid &= size_left >= min_leaf
    at = np.flatnonzero(valid)
    gini = np.full(sizes.size, np.inf)
    threshold = np.zeros(sizes.size)
    if at.size == 0:
        return gini, threshold
    seg, size, size_left = seg[at], size[at], size_left[at]
    size_right = size - size_left
    gini_left = 1.0 - sq_left[at] / size_left ** 2
    gini_right = 1.0 - sq_right[at] / size_right ** 2
    weighted = (size_left * gini_left + size_right * gini_right) / size

    # the first minimum of each segment that has a valid boundary
    first = np.flatnonzero(np.diff(seg, prepend=-1))
    lowest = np.minimum.reduceat(weighted, first)
    hit = np.flatnonzero(weighted == np.repeat(lowest, np.diff(first, append=at.size)))
    hit = hit[np.diff(seg[hit], prepend=-1) != 0]
    gini[seg[hit]] = weighted[hit]
    at = at[hit]
    threshold[seg[hit]] = 0.5 * (x[at] + x[at + 1])
    return gini, threshold


def _gini_best_split(values, y_onehot, min_leaf):
    """Best threshold for one feature; returns (gini, threshold) or None.

    Scans every boundary between distinct sorted values using prefix
    class counts: the one-segment call of :func:`_segment_splits`.
    """
    values = np.array(values, dtype=float)
    codes = np.argmax(np.asarray(y_onehot), axis=1)
    gini, threshold = _segment_splits(values, codes, np.array([values.size]), min_leaf)
    if np.isinf(gini[0]):
        return None
    return float(gini[0]), float(threshold[0])


def _feature_scan(flat, m, rows, y, sizes, features, min_leaf):
    """Best split of each node on each of its listed features.

    Node ``j`` owns ``sizes[j]`` consecutive entries of ``rows`` and
    ``y``; ``features[j]`` lists the features to rate for it.  Returns
    ``(gini, threshold)``, both shaped like ``features``.
    """
    n_nodes, width = features.shape
    seg_sizes = np.repeat(sizes, width)
    seg = np.repeat(np.arange(seg_sizes.size), seg_sizes)
    # entry i of segment (j, k) is entry i of node j
    member = np.arange(seg.size)
    member -= (np.cumsum(seg_sizes) - seg_sizes
               - np.repeat(np.cumsum(sizes) - sizes, width))[seg]
    at = rows[member]
    at *= m
    at += features.ravel()[seg]
    del seg
    x = flat[at]
    y = y[member]
    del at, member
    gini, threshold = _segment_splits(x, y, seg_sizes, min_leaf)
    return gini.reshape(n_nodes, width), threshold.reshape(n_nodes, width)


def _choose_splits(flat, m, rows, y, sizes, feature_order, min_leaf):
    """Feature and threshold of each node's split; feature -1 for none.

    A node rates the first ceil(sqrt(m)) features of its order and
    keeps the first strict minimum.  If none of them admits a split,
    it takes the first of its remaining features, in order, that does.
    """
    n_candidates = int(np.ceil(np.sqrt(m)))
    candidates = feature_order[:, :n_candidates]
    gini, threshold = _feature_scan(flat, m, rows, y, sizes, candidates, min_leaf)
    nodes = np.arange(sizes.size)
    pick = np.argmin(gini, axis=1)
    feature = np.where(np.isfinite(gini[nodes, pick]), candidates[nodes, pick], -1)
    threshold = threshold[nodes, pick]
    stuck = np.flatnonzero(feature < 0)
    if stuck.size and m > n_candidates:
        in_stuck = np.repeat(feature < 0, sizes)
        rest = feature_order[stuck, n_candidates:]
        gini, rest_threshold = _feature_scan(flat, m, rows[in_stuck], y[in_stuck],
                                             sizes[stuck], rest, min_leaf)
        admits = np.isfinite(gini)
        pick = np.argmax(admits, axis=1)
        found = admits[np.arange(stuck.size), pick]
        feature[stuck[found]] = rest[found, pick[found]]
        threshold[stuck[found]] = rest_threshold[found, pick[found]]
    return feature, threshold


def _grow_trees(X, y, samples, seeds, config: RFConfig, class_labels):
    """Grow one CART tree per (row sample, seed), all trees a depth at a time.

    ``y`` holds class codes; ``samples[t]`` lists the rows of ``X`` that
    tree ``t`` trains on, repeats allowed.  Each depth rates the open
    nodes of every tree together (:func:`_choose_splits`), so the numpy
    calls scale with depth, not with node count.  Tree ``t`` draws
    one uniform (open nodes x m) block per depth from
    ``default_rng(seeds[t])``; each row's argsort is that node's
    feature order.  Nodes are numbered breadth-first within their tree,
    so a tree depends only on its own rows and seed.
    """
    n_classes = len(class_labels)
    flat = np.ascontiguousarray(X).ravel()
    m = X.shape[1]
    n_trees = len(samples)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    rows = np.concatenate(samples)
    codes = y[rows]
    sizes = np.array([sample.size for sample in samples])
    tree_of = np.arange(n_trees)
    node_id = np.zeros(n_trees, dtype=int)
    n_nodes = np.ones(n_trees, dtype=int)
    levels = []
    depth = 0
    while sizes.size:
        n_level = sizes.size
        node_of = np.repeat(np.arange(n_level), sizes)
        counts = np.bincount(node_of * n_classes + codes,
                             minlength=n_level * n_classes).reshape(n_level, n_classes)
        is_open = (counts.max(axis=1) < sizes) & (sizes >= 2 * config.min_samples_leaf)
        if config.max_depth is not None and depth >= config.max_depth:
            is_open[:] = False
        feature = np.full(n_level, -1)
        threshold = np.zeros(n_level)
        opened = np.flatnonzero(is_open)
        if opened.size:
            per_tree = np.bincount(tree_of[opened], minlength=n_trees)
            keys = np.concatenate([rngs[t].random((per_tree[t], m))
                                   for t in np.flatnonzero(per_tree)])
            in_open = is_open[node_of]
            feature[opened], threshold[opened] = _choose_splits(
                flat, m, rows[in_open], codes[in_open], sizes[opened],
                np.argsort(keys, axis=1, kind="stable"), config.min_samples_leaf)
        split = np.flatnonzero(feature >= 0)
        leaf = np.flatnonzero(feature < 0)
        split_tree = tree_of[split]
        per_tree = np.bincount(split_tree, minlength=n_trees)
        left = np.full(n_level, -1)
        right = np.full(n_level, -1)
        left[split] = (n_nodes[split_tree] + 2 * np.arange(split.size)
                       - 2 * (np.cumsum(per_tree) - per_tree)[split_tree])
        right[split] = left[split] + 1
        n_nodes += 2 * per_tree
        levels.append((tree_of, node_id, feature, threshold, left, right,
                       leaf, counts[leaf]))

        # rows of split nodes move to their children: node j's children
        # are entries 2j and 2j + 1 of the next level
        in_split = feature[node_of] >= 0
        rows, codes, node_of = rows[in_split], codes[in_split], node_of[in_split]
        go_left = flat[rows * m + feature[node_of]] <= threshold[node_of]
        child = 2 * np.searchsorted(split, node_of) + ~go_left
        sizes = np.bincount(child, minlength=2 * split.size)
        order = np.argsort(child, kind="stable")
        rows, codes = rows[order], codes[order]
        tree_of = np.repeat(split_tree, 2)
        node_id = np.column_stack([left[split], right[split]]).ravel()
        depth += 1

    # one array per field for the whole chunk, each tree a slice of it
    offsets = np.cumsum(n_nodes) - n_nodes
    feature, left, right = (np.empty(n_nodes.sum(), dtype=int) for _ in range(3))
    threshold = np.empty(n_nodes.sum())
    leaf_counts = np.zeros((n_nodes.sum(), n_classes), dtype=int)
    while levels:
        tree_of, node_id, *columns, leaf, counts = levels.pop()
        at = offsets[tree_of] + node_id
        for whole, part in zip((feature, threshold, left, right), columns):
            whole[at] = part
        leaf_counts[at[leaf]] = counts
    bounds = offsets[1:]
    return [DecisionTree(*parts, class_labels)
            for parts in zip(*(np.split(whole, bounds) for whole in
                               (feature, threshold, left, right, leaf_counts)))]


def _class_codes(labels, class_labels) -> np.ndarray:
    code_of = {c: i for i, c in enumerate(class_labels)}
    return np.array([code_of[v] for v in labels.tolist()], dtype=int)


def train_tree(X, labels, config: RFConfig, seed: int,
               class_labels=None) -> DecisionTree:
    """Grow a single CART tree with Gini splits.

    The one-tree call of the forest's level-synchronous grower: every
    depth draws one uniform key row per open node from
    ``default_rng(seed)`` and sorts it into that node's feature order.
    A node considers the first ceil(sqrt(m)) features of its order; if
    none of them admits a valid split the remaining features are tried
    in order before giving up, so a node only becomes an impure leaf
    when every feature is constant within it.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise ValueError("need a nonempty 2-D feature matrix")
    labels = np.asarray(labels)
    if labels.shape != (X.shape[0],):
        raise ValueError("labels must match the number of rows")
    if class_labels is None:
        class_labels = sorted(set(labels.tolist()))
    y = _class_codes(labels, class_labels)
    return _grow_trees(X, y, [np.arange(X.shape[0])], [seed], config, class_labels)[0]


@dataclass(frozen=True)
class Forest:
    trees: tuple[DecisionTree, ...]
    feature_names: tuple[str, ...]
    class_labels: tuple
    config_fingerprint: str

    def predict_codes(self, X: np.ndarray) -> np.ndarray:
        """Majority-vote class codes; ties go to the lowest class index."""
        votes = self.vote_counts(X)
        return np.argmax(votes, axis=1)

    def vote_counts(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        counts = np.zeros((X.shape[0], len(self.class_labels)), dtype=int)
        for tree in self.trees:
            codes = tree.predict_codes(X)
            counts[np.arange(X.shape[0]), codes] += 1
        return counts


def _train_tree_range(args):
    X, y, config, seed, class_labels, tree_ids = args
    n = X.shape[0]
    samples = []
    for t in tree_ids:
        if config.bootstrap:
            rng = np.random.default_rng(derive_seed(seed, "bootstrap", t))
            samples.append(rng.integers(0, n, size=n))
        else:
            samples.append(np.arange(n))
    return _grow_trees(X, y, samples, [derive_seed(seed, "tree", t) for t in tree_ids],
                       config, class_labels)


def train_forest(X, labels, config: RFConfig, seed: int,
                 feature_names=None, class_labels=None, jobs: int = 1) -> Forest:
    """Train a forest of bootstrap-resampled trees.

    The trees of a chunk grow together, level by level: each depth
    rates every open node of every tree in one segmented Gini scan
    (see :func:`_grow_trees`).  Tree ``t`` draws its bootstrap rows from
    ``derive_seed(seed, "bootstrap", t)`` and its per-depth feature
    orders from ``derive_seed(seed, "tree", t)``, so each tree equals
    the same tree grown alone and the result is identical no matter how
    trees are scheduled; ``jobs > 1`` spreads chunks of trees over
    worker processes.
    """
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
    if class_labels is None:
        class_labels = sorted(set(labels.tolist()))
    if feature_names is None:
        feature_names = tuple(f"f{i}" for i in range(X.shape[1]))
    y = _class_codes(labels, class_labels)
    chunks = [ids.tolist() for ids in np.array_split(np.arange(config.n_trees),
                                                     min(max(jobs, 1), config.n_trees))]
    tasks = [(X, y, config, seed, class_labels, ids) for ids in chunks if ids]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunked = list(pool.map(_train_tree_range, tasks))
    else:
        chunked = [_train_tree_range(t) for t in tasks]
    trees = [tree for chunk in chunked for tree in chunk]
    return Forest(trees=tuple(trees), feature_names=tuple(feature_names),
                  class_labels=tuple(class_labels),
                  config_fingerprint=config.fingerprint())


def predict(forest: Forest, x: np.ndarray):
    """Predict one row: (label, vote distribution over class labels)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (len(forest.feature_names),):
        raise ValueError(f"expected {len(forest.feature_names)} features, "
                         f"got shape {x.shape}")
    counts = forest.vote_counts(x[None, :])[0]
    shares = counts / counts.sum()
    return forest.class_labels[int(np.argmax(counts))], shares


@dataclass(frozen=True)
class ConfusionMatrix:
    """Rows are true classes, columns predicted; order is fixed."""

    counts: np.ndarray
    class_labels: tuple

    def accuracy(self) -> float:
        return float(np.trace(self.counts) / np.sum(self.counts))


@dataclass(frozen=True)
class LearningCurvePoint:
    train_fraction: float
    mean_accuracy: float
    sd_accuracy: float
    repetitions: int


@dataclass(frozen=True)
class LearningCurve:
    feature_set: str
    points: tuple[LearningCurvePoint, ...]


@dataclass(frozen=True)
class FeatureSetResult:
    curve: LearningCurve
    confusion: ConfusionMatrix  # accumulated at the largest fraction


DEFAULT_FRACTIONS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.3, 0.5, 0.7)


def _run_repetition(args):
    """One (feature set, fraction, repetition) cell of the experiment."""
    table, columns, class_labels, fraction, rep_seed, rf_config, want_confusion = args
    try:
        train, test = stratified_split(table, fraction, rep_seed)
    except SplitError as exc:
        return None, None, str(exc)
    train_X = np.column_stack([train.column(c) for c in columns])
    test_X = np.column_stack([test.column(c) for c in columns])
    forest = train_forest(train_X, train.dataset_labels, rf_config,
                          derive_seed(rep_seed, "forest"),
                          feature_names=columns, class_labels=class_labels)
    pred = forest.predict_codes(test_X)
    true = np.array([class_labels.index(v) for v in test.dataset_labels.tolist()])
    confusion = None
    if want_confusion:
        confusion = np.zeros((len(class_labels), len(class_labels)), dtype=int)
        np.add.at(confusion, (true, pred), 1)
    return float(np.mean(pred == true)), confusion, None


def name_that_dataset(table: Table, feature_sets: dict[str, list[str]],
                      fractions=DEFAULT_FRACTIONS, repetitions: int = 50,
                      seed: int = 0, rf_config: RFConfig = RFConfig(),
                      controls_only: bool = True,
                      jobs: int = 1) -> dict[str, FeatureSetResult]:
    """Try to predict each row's dataset of origin from feature subsets.

    For every (feature set, fraction, repetition) the table is split
    with dataset-stratified sampling, a forest is trained on the train
    rows and scored on the held-out rows.  Accuracy near 1/|datasets|
    means the datasets are exchangeable; anything above it is evidence
    of dataset bias.  Fractions too small to stratify are skipped with
    a warning.  Repetition seeds derive from (seed, feature set,
    fraction, repetition), so ``jobs > 1`` changes only the wall time.
    """
    if len(table.labels()) < 2:
        raise ValueError("need at least 2 dataset labels")
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if controls_only:
        table = table.filter_controls()
    class_labels = tuple(table.labels())
    max_fraction = max(fractions)

    cells = []
    tasks = []
    for fs_name, columns in feature_sets.items():
        for fraction in sorted(fractions):
            for rep in range(repetitions):
                cells.append((fs_name, fraction, rep))
                tasks.append((table, columns, class_labels, fraction,
                              derive_seed(seed, fs_name, fraction, rep),
                              rf_config, fraction == max_fraction))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_run_repetition, tasks))
    else:
        outcomes = [_run_repetition(t) for t in tasks]

    by_cell = dict(zip(cells, outcomes))
    results = {}
    for fs_name, columns in feature_sets.items():
        points = []
        confusion = np.zeros((len(class_labels), len(class_labels)), dtype=int)
        for fraction in sorted(fractions):
            accuracies = []
            for rep in range(repetitions):
                accuracy, rep_confusion, error = by_cell[(fs_name, fraction, rep)]
                if error is not None:
                    log.warning("skipping fraction %s for %s: %s",
                                fraction, fs_name, error)
                    accuracies = None
                    break
                accuracies.append(accuracy)
                if rep_confusion is not None:
                    confusion += rep_confusion
            if accuracies is None:
                continue
            acc = np.array(accuracies)
            points.append(LearningCurvePoint(
                train_fraction=float(fraction),
                mean_accuracy=float(np.mean(acc)),
                sd_accuracy=float(np.std(acc)),
                repetitions=repetitions,
            ))
        results[fs_name] = FeatureSetResult(
            curve=LearningCurve(feature_set=fs_name, points=tuple(points)),
            confusion=ConfusionMatrix(counts=confusion, class_labels=class_labels),
        )
    return results
