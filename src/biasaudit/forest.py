"""From-scratch random forest and the dataset-membership experiment.

CART trees with Gini impurity, random feature subsets per node and
bootstrap resampling per tree.  A tree sees its bootstrap as row
counts: each distinct row once, with the number of times it was drawn.
Trees grow level by level, all trees of one grower call together, and
one call can grow several forests on their stacked training rows: each
depth stacks every open node's rows once per candidate feature and
rates every threshold of every node in one segmented Gini scan
(count-weighted prefix class counts over sorted feature values), so the
number of numpy calls grows with depth, not with node count.  Each
column is ranked once per grower call, so that scan orders all its
segments with one integer sort per depth; each (segment, rank) key
occurs once, so the sort need not be stable.  Each tree draws its
nodes' feature orders from its own seed, one block per depth.  A
forest predicts each cell of its threshold grid once: rows that no
split threshold of any tree separates take the same path in every tree.
A tree holds only its node arrays; the forest builds each tree's walk
tables just before that tree's walk, and a lone tree predicts as the
forest of itself.
The membership harness ("which dataset does this row come from?")
trains forests over a grid of training fractions and reports learning
curves plus a confusion matrix at the largest fraction.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SplitError
from .seeding import derive_seed, map_tasks
from .tabular import Table, stratified_split, stratify


@dataclass(frozen=True)
class RFConfig:
    """Forest size.  Every tree is an unpruned Gini tree on a bootstrap
    sample that rates ceil(sqrt(m)) features per node (Breiman, 2001)."""

    n_trees: int = 100

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")


class DecisionTree:
    """CART tree stored as flat node arrays, one entry per node.

    ``feature[i] == -1`` marks a leaf; internal nodes route
    ``x[feature] <= threshold`` to ``left``.  Leaves keep their class
    counts.  A split node's children lie past it and are no other
    split's, so no path cycles or merges; ValueError otherwise.
    """

    def __init__(self, feature, threshold, left, right, leaf_counts):
        self.feature = np.asarray(feature, dtype=int)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=int)
        self.right = np.asarray(right, dtype=int)
        self.leaf_counts = np.asarray(leaf_counts, dtype=int)
        arrays = (self.feature, self.threshold, self.left, self.right, self.leaf_counts)
        if ([a.ndim for a in arrays] != [1, 1, 1, 1, 2]
                or {a.shape[0] for a in arrays} != {self.n_nodes} or not self.n_nodes):
            raise ValueError(f"need a node, and one threshold, left, right and leaf-count row "
                             f"per node: feature, threshold, left, right and leaf_counts have "
                             f"shapes {[a.shape for a in arrays]}")
        self._leaf_pred = np.argmax(self.leaf_counts, axis=1)
        leaf = self.feature < 0
        inner = np.flatnonzero(~leaf)
        child = np.concatenate([self.left[inner], self.right[inner]])
        if (not np.all((np.tile(inner, 2) < child) & (child < self.n_nodes))
                or np.any(np.bincount(child) > 1)):
            raise ValueError("each split node's children must lie past it, inside the tree, "
                             "and be no other split's")
        # the most splits on any root-to-leaf path
        self.depth, level = 0, np.zeros(1, dtype=int)
        while (level := level[~leaf[level]]).size:
            self.depth += 1
            level = np.concatenate([self.left[level], self.right[level]])

    @property
    def n_nodes(self) -> int:
        return self.feature.size

    def predict_codes(self, X: np.ndarray) -> np.ndarray:
        """Class code of each row: the prediction of the one-tree forest."""
        return Forest(trees=(self,)).predict_codes(X)


def _dense_codes(codes):
    """``(dense, count)``: each code's rank among the ``count`` distinct codes."""
    # not np.unique: in numpy 2.4.6 even np.unique(np.array([3, 1, 3])) imports
    # numpy.ma, which tests/test_cli.py keeps every command from loading
    order = np.argsort(codes)
    head = _heads(codes[order])
    dense = np.empty(codes.size, dtype=np.int64)
    dense[order] = np.cumsum(head) - 1
    return dense, int(head.sum())


def _column_ranks(X):
    """Each cell's place in its column's stable sort, flattened like ``X``."""
    rank = np.empty(X.shape, dtype=np.int64)
    np.put_along_axis(rank, np.argsort(X, axis=0, kind="stable"),
                      np.arange(X.shape[0])[:, None], axis=0)
    return rank.ravel()


def _heads(a):
    """True where an entry differs from the one before it (always at 0)."""
    # for sorted a, a[_heads(a)] is np.unique(a) without its numpy.ma import
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


def _grow_trees(X, y, samples, seeds, widths=None):
    """Grow one CART tree per (row sample, seed), all trees a depth at a time.

    ``y`` holds class codes 0..max(y), the width of every tree's leaf
    counts, or of tree t's ``widths[t]`` when given, which must exceed
    its rows' codes; ``samples[t]`` is a pair ``(rows, copies)``:
    tree ``t`` trains on ``copies[i]`` copies of row ``rows[i]`` of ``X``,
    each row listed once.  A node holds each of its rows once, with its
    count, so no scan key repeats, and node sizes and leaf counts are
    sums of counts.  Each depth rates the open nodes of every tree
    together (:func:`_choose_splits`), so the numpy calls scale with
    depth, not with node count.  Tree ``t`` draws one uniform (open
    nodes x m) block per depth from ``default_rng(seeds[t])``; each
    row's argsort is that node's feature order.  Every depth's scan
    reads one ranking of the columns of ``X``.

    The layout follows from the level order.  Level 0 lists the roots
    0..T-1; each later level lists the two children of each split node
    of the level before, in the order of those splits.  So every level
    lists its nodes tree by tree, a stable sort of all levels by tree
    numbers each tree's nodes breadth first, and the k-th split node of
    all levels has its children at entries T + 2k and T + 2k + 1.  A
    tree thus depends only on its own rows and seed.
    """
    flat = np.ascontiguousarray(X).ravel()
    rank = _column_ranks(X)
    m, n_classes = X.shape[1], int(y.max()) + 1
    n_trees = len(samples)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    rows, copies = map(np.concatenate, zip(*samples))
    codes = y[rows]
    sizes = np.array([tree_rows.size for tree_rows, _ in samples])
    tree_of = np.arange(n_trees)
    # every node's count row is kept to the end: the narrowest type that holds a sample
    count_type = np.min_scalar_type(max(int(tree_copies.sum()) for _, tree_copies in samples))
    levels = []
    while sizes.size:
        n_level = sizes.size
        node_of = np.repeat(np.arange(n_level), sizes)
        # float sums of integer counts are exact
        counts = np.bincount(node_of * n_classes + codes, weights=copies,
                             minlength=n_level * n_classes).astype(count_type)
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
        counts[split] = 0  # only leaves keep their class counts
        levels.append((tree_of, feature, threshold, counts))

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
        tree_of = np.repeat(tree_of[split], 2)

    tree_of, feature, threshold, leaf_counts = (np.concatenate(part) for part in zip(*levels))
    del levels
    order = np.argsort(tree_of, kind="stable")
    place = np.empty_like(order)
    place[order] = np.arange(order.size)
    n_nodes = np.bincount(tree_of, minlength=n_trees)
    offsets = np.cumsum(n_nodes) - n_nodes
    split = np.flatnonzero(feature >= 0)
    left = np.full(feature.size, -1)
    left[split] = place[n_trees + 2 * np.arange(split.size)] - offsets[tree_of[split]]
    right = left + (feature >= 0)
    leaf_counts = leaf_counts[order].astype(int)  # the trees' dtype, so each holds a view
    trees = zip(*(np.split(whole, offsets[1:]) for whole in (
        feature[order], threshold[order], left[order], right[order], leaf_counts)))
    return [DecisionTree(*arrays, counts[:, :width]) for (*arrays, counts), width
            in zip(trees, widths or [n_classes] * n_trees)]


def _training_arrays(X, y):
    """``(X, class codes)``; ValueError unless one non-negative integer code per row."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise ValueError("need a nonempty 2-D feature matrix")
    y = np.asarray(y)
    if y.shape != (X.shape[0],):
        raise ValueError("class codes must match the number of rows")
    if not np.issubdtype(y.dtype, np.integer) or y.min() < 0:
        raise ValueError(f"class codes must be non-negative integers, got dtype {y.dtype}")
    return X, y.astype(np.intp)


def train_tree(X, labels, seed: int) -> DecisionTree:
    """Grow a single CART tree with Gini splits.

    ``labels`` are coded by their sorted distinct values.  This is the
    one-tree call of the forest's level-synchronous grower: every
    depth draws one uniform key row per open node from
    ``default_rng(seed)`` and sorts it into that node's feature order.
    A node considers the first ceil(sqrt(m)) features of its order; if
    none of them admits a valid split the remaining features are tried
    in order before giving up, so a node only becomes an impure leaf
    when every feature is constant within it.
    """
    X, y = _training_arrays(X, _dense_codes(np.asarray(labels))[0])
    n = X.shape[0]
    return _grow_trees(X, y, [(np.arange(n), np.ones(n, dtype=np.int64))], [seed])[0]


@dataclass(frozen=True)
class Forest:
    trees: tuple[DecisionTree, ...]

    def __post_init__(self):
        widths = sorted({tree.leaf_counts.shape[1] for tree in self.trees})
        if len(widths) != 1:
            raise ValueError(f"need one or more trees of one leaf-count width, "
                             f"got widths {widths}")

    def predict_codes(self, X: np.ndarray) -> np.ndarray:
        """Majority-vote class codes; ties go to the lowest class code.

        Rows that no split threshold of any tree separates share a cell
        of the forest's threshold grid and are walked once.  A row's
        place in column j is its ``searchsorted(T_j, x, "left")`` among
        the sorted distinct thresholds T_j of the splits on j, and
        ``x <= T_j[k]`` exactly when that place is at most k: NaN sorts
        past every threshold and goes right, as the walk sends it, and
        +-0 compare equal.  So every row of a cell takes its cell's path
        in every tree.  A cell is coded by its places in mixed radix,
        re-ranked to dense codes before the product could pass 2**62.
        Each tree's walk tables are built here, just before its walk,
        and go with it.  ValueError unless ``X`` is 2-D with a column for
        every feature the trees split on.
        """
        X = np.ascontiguousarray(X, dtype=float)
        feature = np.concatenate([tree.feature for tree in self.trees])
        threshold = np.concatenate([tree.threshold for tree in self.trees])
        need = 1 + int(feature.max())
        if X.ndim != 2 or X.shape[1] < need:
            raise ValueError(f"need a 2-D feature matrix of at least {need} columns, "
                             f"got shape {X.shape}")
        n, m = X.shape
        cell, size = np.zeros(n, dtype=np.int64), 1
        for j in range(m):
            T = np.sort(threshold[feature == j])
            T = T[_heads(T)]
            if size * (T.size + 1) > 2 ** 62:
                cell, size = _dense_codes(cell)
            cell *= T.size + 1
            cell += np.searchsorted(T, X[:, j], side="left")
            size *= T.size + 1
        del feature, threshold
        cell, n_cells = _dense_codes(cell)
        walked = np.empty(n_cells, dtype=np.intp)  # one row of each cell
        walked[cell] = np.arange(n)

        n_classes = self.trees[0].leaf_counts.shape[1]
        votes = np.zeros(n_cells * n_classes, dtype=np.min_scalar_type(len(self.trees)))
        vote_start = np.arange(n_cells) * n_classes
        flat, row_start = X.ravel(), walked * m
        for tree in self.trees:
            # walk tables, which name node i by 2i: entries 2i and 2i + 1 of
            # ``feature`` and ``threshold`` hold node i's test, and entry
            # 2i + go of ``child`` is the doubled id of where node i sends a
            # row, go = (x <= threshold), so NaN goes right; a leaf reads
            # feature 0 and sends a row back to itself whatever the test
            leaf = tree.feature < 0
            feature = np.repeat(np.where(leaf, 0, tree.feature), 2)
            threshold = np.repeat(tree.threshold, 2)
            nodes = np.arange(tree.n_nodes)
            child = 2 * np.column_stack([np.where(leaf, nodes, tree.right),
                                         np.where(leaf, nodes, tree.left)]).ravel()
            node = np.zeros(n_cells, dtype=np.intp)  # doubled ids
            for _ in range(tree.depth):
                node = child[node + (flat[row_start + feature[node]] <= threshold[node])]
            votes[vote_start + tree._leaf_pred[node >> 1]] += 1
        return np.argmax(votes.reshape(n_cells, n_classes), axis=1)[cell]


def train_forest(parts, config: RFConfig) -> list[Forest]:
    """Train one forest of bootstrap-resampled trees per part ``(X, y, seed)``.

    ``y`` holds class codes: a part's classes are 0..max(y), and a class
    without rows keeps its code and is never predicted.  Every part's
    ``X`` has the same width, else ValueError.  All trees of all parts
    grow together, level by level, on the parts' stacked rows: each
    depth rates every open node of every tree in one segmented Gini scan
    (see :func:`_grow_trees`).  Tree ``t`` of a part draws its bootstrap
    rows from ``derive_seed(seed, "bootstrap", t)`` and its per-depth
    feature orders from ``derive_seed(seed, "tree", t)``.  The stacked
    columns' ranks keep each part's row order, so each forest equals its
    one-part call and each tree the same tree grown alone.  A tree sees
    its draw as row counts, each distinct row once with the number of
    times it was drawn, so the scan sorts and rates each distinct row
    once.
    """
    parts = [(*_training_arrays(X, y), seed) for X, y, seed in parts]
    if len({X.shape[1] for X, _, _ in parts}) != 1:
        raise ValueError(f"need parts of one width, got widths {[X.shape[1] for X, _, _ in parts]}")
    tree_ids = range(config.n_trees)
    samples, seeds, start = [], [], 0
    for X, _, seed in parts:
        n = X.shape[0]
        for t in tree_ids:
            draw = np.random.default_rng(derive_seed(seed, "bootstrap", t)).integers(0, n, size=n)
            copies = np.bincount(draw)
            rows = np.flatnonzero(copies)
            samples.append((start + rows, copies[rows]))
        seeds += [derive_seed(seed, "tree", t) for t in tree_ids]
        start += n
    trees = _grow_trees(np.concatenate([X for X, _, _ in parts]),
                        np.concatenate([y for _, y, _ in parts]), samples, seeds,
                        [int(part_y.max()) + 1 for _, part_y, _ in parts for _ in tree_ids])
    return [Forest(trees=tuple(trees[i:i + config.n_trees]))
            for i in range(0, len(trees), config.n_trees)]


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


# consecutive fractions of a repetition grow in one call while their train
# rows times trees stay under this, which bounds the grower's node arrays
GROW_BATCH_ROWS_TREES = 2 ** 17


def _run_repetition(args):
    """One (feature set, repetition) of the experiment: each fraction's held-out
    confusion counts, rows true classes and columns predicted.

    The splits come first and keep only their matrices and codes; then
    each batch of fractions grows, predicts and goes before the next.
    """
    table, columns, fraction_seeds, rf_config = args
    n_codes = int(table.dataset_codes.max()) + 1
    batches, load = [], 0
    for fraction, rep_seed in fraction_seeds:
        train, test = stratified_split(table, fraction, rep_seed)
        rows_trees = train.n_rows * rf_config.n_trees
        if not batches or load + rows_trees >= GROW_BATCH_ROWS_TREES:
            batches.append([])
            load = 0
        load += rows_trees
        train_X, test_X = (np.column_stack([part.column(c) for c in columns])
                           for part in (train, test))
        batches[-1].append(((train_X, train.dataset_codes, derive_seed(rep_seed, "forest")),
                            (test_X, test.dataset_codes)))
        del train, test  # before the next split is drawn

    confusions = []
    for batch in batches:
        forests = train_forest([part for part, _ in batch], rf_config)
        for forest, (_, (test_X, test_codes)) in zip(forests, batch):
            confusion = np.zeros((n_codes, n_codes), dtype=int)
            np.add.at(confusion, (test_codes, forest.predict_codes(test_X)), 1)
            confusions.append(confusion)
        del forests, forest  # a tree's arrays are views of its whole batch's
    return confusions


def name_that_dataset(table: Table, feature_sets: dict[str, list[str]],
                      fractions=DEFAULT_FRACTIONS, repetitions: int = DEFAULT_REPETITIONS,
                      seed: int = 0, rf_config: RFConfig = RFConfig(),
                      controls_only: bool = True,
                      jobs: int = 1) -> dict[str, FeatureSetResult]:
    """Try to predict each row's dataset of origin from feature subsets.

    For every (feature set, fraction, repetition) the table is split
    with dataset-stratified sampling, and a forest trained on the train
    rows is scored by the trace of its held-out confusion matrix over
    the total.  Accuracy above 1/|datasets| is evidence of dataset bias
    only when the datasets have equal sizes: the forest learns each
    dataset's share, so 15 exchangeable datasets, one of 1,000 rows and
    14 of 100, scored 0.34-0.37 against 1/15 = 0.067.  A largest
    fraction that cannot be stratified raises ValueError before any
    forest is trained; every smaller fraction then splits too, since a
    fraction's train counts never exceed a larger one's.  So does a
    table left with fewer than 2 datasets once ``controls_only`` has
    dropped the diseased rows, and a feature set that names a column the
    table lacks.  A unit of work is one (feature set, repetition): it
    grows consecutive fractions' forests in one :func:`train_forest`
    call while their train rows times trees stay under
    ``GROW_BATCH_ROWS_TREES``.  Repetition seeds derive from (seed,
    feature set, fraction, repetition), so neither the batches nor
    ``jobs > 1`` change a result, only the wall time.
    """
    if not feature_sets or not all(len(columns) for columns in feature_sets.values()):
        raise ValueError(f"need at least one feature set, each with columns, got {feature_sets}")
    for fs_name, columns in feature_sets.items():
        for column in columns:
            try:
                table.column(column)
            except KeyError:
                raise ValueError(f"feature set {fs_name!r} names {column!r}, "
                                 f"which the table lacks") from None
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
    if len(class_labels) < 2:
        rows = "control rows" if controls_only else "rows"
        raise ValueError(f"need {rows} from at least 2 datasets, got {len(class_labels)}")
    max_fraction = max(fractions)
    try:
        stratify(table, max_fraction)
    except SplitError as exc:
        raise ValueError(f"fractions: the largest fraction, {max_fraction}, "
                         f"cannot be split: {exc}") from None

    fractions = sorted(fractions)
    tasks = [(table, columns,
              [(fraction, derive_seed(seed, fs_name, fraction, rep)) for fraction in fractions],
              rf_config)
             for fs_name, columns in feature_sets.items()
             for rep in range(repetitions)]
    # each task's counts, one per fraction, run over every code up to the
    # largest present; keep the codes present, in the order of class_labels.
    # axes: feature set, fraction, repetition, true class, predicted class
    present = np.flatnonzero(np.bincount(table.dataset_codes))
    confusions = np.array(map_tasks(_run_repetition, tasks, jobs))[..., present[:, None], present]
    confusions = confusions.reshape(len(feature_sets), repetitions, len(fractions),
                                    present.size, present.size).swapaxes(1, 2)
    accuracies = np.trace(confusions, axis1=3, axis2=4) / confusions.sum(axis=(3, 4))

    results = {}
    for fs_name, fs_accuracies, counts in zip(feature_sets, accuracies, confusions):
        points = tuple(LearningCurvePoint(
            train_fraction=float(fraction),
            mean_accuracy=float(np.mean(acc)),
            sd_accuracy=float(np.std(acc)),
            repetitions=repetitions,
        ) for fraction, acc in zip(fractions, fs_accuracies))
        results[fs_name] = FeatureSetResult(
            curve=LearningCurve(points=points),
            confusion=ConfusionMatrix(counts=counts[-1].sum(axis=0), class_labels=class_labels),
        )
    return results
