"""From-scratch random forest and the dataset-membership experiment.

CART trees with Gini impurity, random feature subsets per node and
bootstrap resampling per tree.  A tree sees its bootstrap as row
counts: each distinct row once, with the number of times it was drawn.
Trees grow level by level, all trees of a forest together: each depth
stacks every open node's rows once per candidate feature and rates
every threshold of every node in one segmented Gini scan (count-weighted
prefix class counts over sorted feature values), so the number of
numpy calls grows with depth, not with node count.  Each column is
ranked once per forest, so that scan orders all its segments with one
integer sort per depth; each (segment, rank) key occurs once, so the
sort need not be stable.  Each tree draws its nodes' feature orders
from its own seed, one block per depth.  The membership harness
("which dataset does this row come from?") trains forests over a grid
of training fractions and reports learning curves plus a confusion
matrix at the largest fraction.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SplitError
from .seeding import derive_seed, map_tasks
from .tabular import Table, label_codes, stratified_split, stratify


@dataclass(frozen=True)
class RFConfig:
    """Forest size.  Every tree is an unpruned Gini tree on a bootstrap
    sample that rates ceil(sqrt(m)) features per node (Breiman, 2001)."""

    n_trees: int = 100

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")


class DecisionTree:
    """CART tree stored as flat node arrays.

    ``feature[i] == -1`` marks a leaf; internal nodes route
    ``x[feature] <= threshold`` to ``left``.  Leaves keep their class
    counts.
    """

    def __init__(self, feature, threshold, left, right, leaf_counts):
        self.feature = np.asarray(feature, dtype=int)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=int)
        self.right = np.asarray(right, dtype=int)
        self.leaf_counts = np.asarray(leaf_counts, dtype=int)
        self._leaf_pred = np.argmax(self.leaf_counts, axis=1)

        # walk tables: entry 2i + go of ``_child`` is where node i sends a
        # row, go = (x <= threshold), so NaN goes right; a leaf reads
        # feature 0 and sends a row back to itself whatever the test says
        leaf = self.feature < 0
        nodes = np.arange(self.n_nodes)
        self._walk_feature = np.where(leaf, 0, self.feature)
        self._child = np.column_stack([np.where(leaf, nodes, self.right),
                                       np.where(leaf, nodes, self.left)]).ravel()
        # the most splits on any root-to-leaf path
        self.depth, level = 0, np.zeros(1, dtype=int)
        while (level := level[~leaf[level]]).size:
            self.depth += 1
            level = np.concatenate([self.left[level], self.right[level]])

    @property
    def n_nodes(self) -> int:
        return self.feature.size

    def predict_codes(self, X: np.ndarray) -> np.ndarray:
        """Class code of each row: ``depth`` steps of every row at once."""
        X = np.ascontiguousarray(X, dtype=float)
        flat = X.ravel()
        row_start = np.arange(X.shape[0]) * X.shape[1]
        node = np.zeros(X.shape[0], dtype=np.intp)
        feature, threshold, child = self._walk_feature, self.threshold, self._child
        for _ in range(self.depth):
            go_left = flat[row_start + feature[node]] <= threshold[node]
            node = child[2 * node + go_left]
        return self._leaf_pred[node]


def _column_ranks(X):
    """Each cell's place in its column's stable sort, flattened like ``X``."""
    rank = np.empty(X.shape, dtype=np.int64)
    np.put_along_axis(rank, np.argsort(X, axis=0, kind="stable"),
                      np.arange(X.shape[0])[:, None], axis=0)
    return rank.ravel()


def _heads(a):
    """True where an entry differs from the one before it (always at 0)."""
    head = np.empty(a.size, dtype=bool)
    head[:1] = True
    np.not_equal(a[1:], a[:-1], out=head[1:])
    return head


def _segment_splits(flat, rank, at, y, copies, sizes):
    """Best Gini split of every segment: ``(gini, threshold)`` arrays.

    The segments lie back to back, ``sizes`` (all nonzero) their
    lengths: entry i is cell ``at[i]`` of ``flat`` (feature values),
    class code ``y[i]``, standing for ``copies[i]`` rows; ``rank`` holds
    each cell's place in its column (:func:`_column_ranks`).  A
    segment lists each cell at most once, so every key (segment, rank)
    is unique and one integer sort, which need not be stable, orders
    every segment by value, tied values in row order.  One scan then
    rates every boundary between distinct values, so the order among
    ties changes no result; a segment without one gets gini ``inf``.
    Each segment's result equals, bit for bit, its own one-segment call
    and the call with every entry repeated ``copies`` times: the sizes
    and the sums of squared class counts on either side are exact
    integers.
    """
    n = at.size
    starts = np.cumsum(sizes) - sizes
    seg = np.repeat(np.arange(sizes.size), sizes)
    key = seg * rank.size
    key += rank[at]
    order = np.argsort(key)
    del key  # each rows-long temporary goes as soon as it is used up
    y, copies = y[order], copies[order]
    x = flat[at[order]]
    del order

    # Runs of one class within one segment, in sorted order, with w the
    # running total of copies over the runs: an entry of c copies spans
    # w_i..w_i + c, its segment holds a = w_i - w_start rows of its class
    # before it, and the run's length is the segment's total T_k = w_end
    # - w_start of that class.  sum_k left_k^2 grows by c (2a + c) as the
    # entry joins the left side, and sum_k right_k^2 = sum_k T_k^2 + the
    # left entries' sum of c (2a + c - 2 T_k), where sum_k T_k^2 is the
    # left sum over the segment.
    n_classes = int(y.max()) + 1
    by_class = np.argsort(y.astype(np.min_scalar_type(n_classes)), kind="stable")
    new_run = _heads((seg * n_classes + y)[by_class])
    c = copies[by_class]
    w = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(c, out=w[1:])
    bound = 2 * w[np.concatenate([[0], np.flatnonzero(new_run), [n]])]
    run = np.cumsum(new_run)  # 1 + the run's number: bound[run] = 2 w_start
    del new_run
    twice_mid = w[:-1] + w[1:]  # 2 w_i + c
    del w
    # prefix sums over all segments: entry i + 1 sums sorted entries 0..i
    left, right = np.zeros(n + 1, dtype=np.int64), np.zeros(n + 1, dtype=np.int64)
    left[1:][by_class] = c * (twice_mid - bound[run])
    right[1:][by_class] = c * (twice_mid - bound[1:][run])
    del by_class, run, twice_mid, c
    np.cumsum(left, out=left)
    np.cumsum(right, out=right)
    cum_rows = np.zeros(n + 1, dtype=np.int64)  # rows before each sorted entry
    np.cumsum(copies, out=cum_rows[1:])
    del copies

    valid = np.empty(n, dtype=bool)
    np.greater(x[1:], x[:-1], out=valid[:-1])
    valid[starts + sizes - 1] = False  # a segment's last entry has no boundary
    at = np.flatnonzero(valid)
    del valid
    seg = seg[at]
    after, ends = at + 1, starts + sizes
    before = cum_rows[starts]
    size = (cum_rows[ends] - before)[seg]
    size_left = cum_rows[after] - before[seg]
    size_right = size - size_left
    base = left[starts]
    sq_left = left[after] - base[seg]
    sq_right = right[after] + (left[ends] - base - right[starts])[seg]
    gini_left = 1.0 - sq_left / size_left ** 2
    gini_right = 1.0 - sq_right / size_right ** 2
    weighted = (size_left * gini_left + size_right * gini_right) / size

    # each segment's first minimum, inf where it has no boundary
    gini = np.full(n, np.inf)
    gini[at] = weighted
    gini = np.minimum.reduceat(gini, starts)
    hit = np.flatnonzero(weighted == gini[seg])
    hit = hit[_heads(seg[hit])]
    at, seg = at[hit], seg[hit]
    # the midpoint, unless it rounds onto the upper value (adjacent
    # doubles) or overflows: then the lower value itself
    lo, hi = x[at], x[at + 1]
    with np.errstate(invalid="ignore"):  # -inf + inf
        mid = 0.5 * lo + 0.5 * hi
    threshold = np.zeros(sizes.size)
    threshold[seg] = np.where(mid < hi, mid, lo)
    return gini, threshold


def _feature_scan(flat, rank, m, rows, y, copies, sizes, features):
    """Best split of each node on each of its listed features.

    Node ``j`` owns ``sizes[j]`` consecutive entries of ``rows``, ``y``
    and ``copies``; ``features[j]`` lists the features to rate for it.
    Returns ``(gini, threshold)``, both shaped like ``features``.
    """
    n_nodes, width = features.shape
    # segment (k, j) holds node j's rows on its k-th listed feature
    at = features.T.take(np.repeat(np.arange(n_nodes), sizes), axis=1)
    at += m * rows
    gini, threshold = _segment_splits(flat, rank, at.ravel(), np.concatenate([y] * width),
                                      np.concatenate([copies] * width),
                                      np.concatenate([sizes] * width))
    return gini.reshape(width, n_nodes).T, threshold.reshape(width, n_nodes).T


def _choose_splits(flat, rank, m, rows, y, copies, sizes, feature_order):
    """Feature and threshold of each node's split; feature -1 for none.

    A node rates the first ceil(sqrt(m)) features of its order and
    keeps the first strict minimum.  If none of them admits a split,
    it takes the first of its remaining features, in order, that does.
    """
    n_candidates = int(np.ceil(np.sqrt(m)))
    candidates = feature_order[:, :n_candidates]
    gini, threshold = _feature_scan(flat, rank, m, rows, y, copies, sizes, candidates)
    nodes = np.arange(sizes.size)
    pick = np.argmin(gini, axis=1)
    feature = np.where(np.isfinite(gini[nodes, pick]), candidates[nodes, pick], -1)
    threshold = threshold[nodes, pick]
    stuck = np.flatnonzero(feature < 0)
    if stuck.size and m > n_candidates:
        in_stuck = np.repeat(feature < 0, sizes)
        rest = feature_order[stuck, n_candidates:]
        gini, rest_threshold = _feature_scan(flat, rank, m, rows[in_stuck], y[in_stuck],
                                             copies[in_stuck], sizes[stuck], rest)
        admits = np.isfinite(gini)
        pick = np.argmax(admits, axis=1)
        found = admits[np.arange(stuck.size), pick]
        feature[stuck[found]] = rest[found, pick[found]]
        threshold[stuck[found]] = rest_threshold[found, pick[found]]
    return feature, threshold


def _grow_trees(X, y, samples, seeds, n_classes):
    """Grow one CART tree per (row sample, seed), all trees a depth at a time.

    ``y`` holds class codes; ``samples[t]`` is a pair ``(rows, copies)``:
    tree ``t`` trains on ``copies[i]`` copies of row ``rows[i]`` of ``X``,
    each row listed once.  A node holds each of its rows once, with its
    count, so no scan key repeats, and node sizes and leaf counts are
    sums of counts.  Each depth rates the open nodes of every tree
    together (:func:`_choose_splits`), so the numpy calls scale with
    depth, not with node count.  Tree ``t`` draws one uniform (open
    nodes x m) block per depth from ``default_rng(seeds[t])``; each
    row's argsort is that node's feature order.  Nodes are numbered
    breadth-first within their tree, so a tree depends only on its own
    rows and seed.  Every depth's scan reads one ranking of the columns
    of ``X``.
    """
    flat = np.ascontiguousarray(X).ravel()
    rank = _column_ranks(X)
    m = X.shape[1]
    n_trees = len(samples)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    rows, copies = map(np.concatenate, zip(*samples))
    codes = y[rows]
    sizes = np.array([tree_rows.size for tree_rows, _ in samples])
    tree_of = np.arange(n_trees)
    node_id = np.zeros(n_trees, dtype=int)
    n_nodes = np.ones(n_trees, dtype=int)
    levels = []
    while sizes.size:
        n_level = sizes.size
        node_of = np.repeat(np.arange(n_level), sizes)
        # float sums of integer counts are exact
        counts = np.bincount(node_of * n_classes + codes, weights=copies,
                             minlength=n_level * n_classes).astype(np.int64)
        counts = counts.reshape(n_level, n_classes)
        is_open = counts.max(axis=1) < counts.sum(axis=1)  # impure: 2+ distinct rows
        feature = np.full(n_level, -1)
        threshold = np.zeros(n_level)
        opened = np.flatnonzero(is_open)
        if opened.size:
            per_tree = np.bincount(tree_of[opened], minlength=n_trees)
            keys = np.concatenate([rngs[t].random((per_tree[t], m))
                                   for t in np.flatnonzero(per_tree)])
            in_open = is_open[node_of]
            feature[opened], threshold[opened] = _choose_splits(
                flat, rank, m, rows[in_open], codes[in_open], copies[in_open], sizes[opened],
                np.argsort(keys, axis=1, kind="stable"))
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
        rows, codes, copies = rows[in_split], codes[in_split], copies[in_split]
        node_of = node_of[in_split]
        go_left = flat[rows * m + feature[node_of]] <= threshold[node_of]
        child = 2 * (np.cumsum(feature >= 0) - 1)[node_of] + ~go_left
        sizes = np.bincount(child, minlength=2 * split.size)
        order = np.argsort(child, kind="stable")
        rows, codes, copies = rows[order], codes[order], copies[order]
        tree_of = np.repeat(split_tree, 2)
        node_id = np.column_stack([left[split], right[split]]).ravel()

    # one array per field for the whole forest, each tree a slice of it
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
    return [DecisionTree(*parts)
            for parts in zip(*(np.split(whole, bounds) for whole in
                               (feature, threshold, left, right, leaf_counts)))]


def _training_arrays(X, labels, class_labels):
    """``(X, class codes, class labels)``; ValueError unless one label per row."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise ValueError("need a nonempty 2-D feature matrix")
    labels = np.asarray(labels)
    if labels.shape != (X.shape[0],):
        raise ValueError("labels must match the number of rows")
    if class_labels is None:
        class_labels = sorted(set(labels.tolist()))
    try:
        codes = label_codes(labels, class_labels)
    except KeyError as exc:
        raise ValueError(f"label {exc.args[0]!r} is not among the class labels") from None
    return X, codes, class_labels


def train_tree(X, labels, seed: int, class_labels=None) -> DecisionTree:
    """Grow a single CART tree with Gini splits.

    The one-tree call of the forest's level-synchronous grower: every
    depth draws one uniform key row per open node from
    ``default_rng(seed)`` and sorts it into that node's feature order.
    A node considers the first ceil(sqrt(m)) features of its order; if
    none of them admits a valid split the remaining features are tried
    in order before giving up, so a node only becomes an impure leaf
    when every feature is constant within it.
    """
    X, y, class_labels = _training_arrays(X, labels, class_labels)
    n = X.shape[0]
    return _grow_trees(X, y, [(np.arange(n), np.ones(n, dtype=np.int64))], [seed],
                       len(class_labels))[0]


@dataclass(frozen=True)
class Forest:
    trees: tuple[DecisionTree, ...]
    class_labels: tuple

    def predict_codes(self, X: np.ndarray) -> np.ndarray:
        """Majority-vote class codes; ties go to the lowest class index."""
        X = np.ascontiguousarray(X, dtype=float)
        n, n_classes = X.shape[0], len(self.class_labels)
        votes = np.zeros(n * n_classes, dtype=int)
        row_start = np.arange(n) * n_classes
        for tree in self.trees:
            votes[row_start + tree.predict_codes(X)] += 1
        return np.argmax(votes.reshape(n, n_classes), axis=1)


def train_forest(X, labels, config: RFConfig, seed: int, class_labels=None) -> Forest:
    """Train a forest of bootstrap-resampled trees.

    All trees grow together, level by level: each depth rates every
    open node of every tree in one segmented Gini scan (see
    :func:`_grow_trees`).  Tree ``t`` draws its bootstrap rows from
    ``derive_seed(seed, "bootstrap", t)`` and its per-depth feature
    orders from ``derive_seed(seed, "tree", t)``, so each tree equals
    the same tree grown alone.  A tree sees its draw as row counts, each
    distinct row once with the number of times it was drawn, so the
    scan sorts and rates each distinct row once.
    """
    X, y, class_labels = _training_arrays(X, labels, class_labels)
    n, tree_ids = X.shape[0], range(config.n_trees)
    samples = []
    for t in tree_ids:
        draw = np.random.default_rng(derive_seed(seed, "bootstrap", t)).integers(0, n, size=n)
        copies = np.bincount(draw)
        rows = np.flatnonzero(copies)
        samples.append((rows, copies[rows]))
    trees = _grow_trees(X, y, samples, [derive_seed(seed, "tree", t) for t in tree_ids],
                        len(class_labels))
    return Forest(trees=tuple(trees), class_labels=tuple(class_labels))


@dataclass(frozen=True)
class ConfusionMatrix:
    """Rows are true classes, columns predicted; order is fixed."""

    counts: np.ndarray
    class_labels: tuple


@dataclass(frozen=True)
class LearningCurvePoint:
    train_fraction: float
    mean_accuracy: float
    sd_accuracy: float
    repetitions: int


@dataclass(frozen=True)
class LearningCurve:
    points: tuple[LearningCurvePoint, ...]


@dataclass(frozen=True)
class FeatureSetResult:
    curve: LearningCurve
    confusion: ConfusionMatrix  # accumulated at the largest fraction


DEFAULT_FRACTIONS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.3, 0.5, 0.7)
DEFAULT_REPETITIONS = 50


def _run_repetition(args):
    """One (feature set, fraction, repetition) cell of the experiment."""
    table, columns, class_labels, fraction, rep_seed, rf_config, want_confusion = args
    train, test = stratified_split(table, fraction, rep_seed)
    train_X = np.column_stack([train.column(c) for c in columns])
    test_X = np.column_stack([test.column(c) for c in columns])
    forest = train_forest(train_X, train.dataset_labels, rf_config,
                          derive_seed(rep_seed, "forest"), class_labels=class_labels)
    pred = forest.predict_codes(test_X)
    true = label_codes(test.dataset_labels, class_labels)
    confusion = None
    if want_confusion:
        confusion = np.zeros((len(class_labels), len(class_labels)), dtype=int)
        np.add.at(confusion, (true, pred), 1)
    return float(np.mean(pred == true)), confusion


def name_that_dataset(table: Table, feature_sets: dict[str, list[str]],
                      fractions=DEFAULT_FRACTIONS, repetitions: int = DEFAULT_REPETITIONS,
                      seed: int = 0, rf_config: RFConfig = RFConfig(),
                      controls_only: bool = True,
                      jobs: int = 1) -> dict[str, FeatureSetResult]:
    """Try to predict each row's dataset of origin from feature subsets.

    For every (feature set, fraction, repetition) the table is split
    with dataset-stratified sampling, a forest is trained on the train
    rows and scored on the held-out rows.  Accuracy near 1/|datasets|
    means the datasets are exchangeable; anything above it is evidence
    of dataset bias.  A largest fraction that cannot be stratified
    raises ValueError before any forest is trained; every smaller
    fraction then splits too, since a fraction's train counts never
    exceed a larger one's.  Repetition seeds derive from (seed, feature
    set, fraction, repetition), so ``jobs > 1`` changes only the wall
    time.
    """
    if len(table.labels()) < 2:
        raise ValueError("need at least 2 dataset labels")
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if (not fractions or len(set(fractions)) < len(fractions)
            or not all(0.0 < f < 1.0 for f in fractions)):
        raise ValueError(f"fractions must be distinct values in (0, 1), got {list(fractions)}")
    if controls_only:
        table = table.filter_controls()
    class_labels = tuple(table.labels())
    max_fraction = max(fractions)
    try:
        stratify(table, max_fraction)
    except SplitError as exc:
        raise ValueError(f"fractions: the largest fraction, {max_fraction}, "
                         f"cannot be split: {exc}") from None

    tasks = [(table, columns, class_labels, fraction,
              derive_seed(seed, fs_name, fraction, rep), rf_config,
              fraction == max_fraction)
             for fs_name, columns in feature_sets.items()
             for fraction in sorted(fractions)
             for rep in range(repetitions)]
    outcomes = map_tasks(_run_repetition, tasks, jobs)
    n_sets, n_classes = len(feature_sets), len(class_labels)
    accuracies = np.reshape([accuracy for accuracy, _ in outcomes],
                            (n_sets, len(fractions), repetitions))
    confusions = np.reshape([counts for _, counts in outcomes if counts is not None],
                            (n_sets, repetitions, n_classes, n_classes)).sum(axis=1)

    results = {}
    for fs_name, fs_accuracies, counts in zip(feature_sets, accuracies, confusions):
        points = tuple(LearningCurvePoint(
            train_fraction=float(fraction),
            mean_accuracy=float(np.mean(acc)),
            sd_accuracy=float(np.std(acc)),
            repetitions=repetitions,
        ) for fraction, acc in zip(sorted(fractions), fs_accuracies))
        results[fs_name] = FeatureSetResult(
            curve=LearningCurve(points=points),
            confusion=ConfusionMatrix(counts=counts, class_labels=class_labels),
        )
    return results
