"""From-scratch random forest and the dataset-membership experiment.

CART trees with Gini impurity, random feature subsets per node and
bootstrap resampling per tree.  The split search is vectorized over
candidate thresholds (prefix class counts over sorted feature values),
and trees are grown iteratively so deep trees cannot hit the recursion
limit.  The membership harness ("which dataset does this row come
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


def _gini_best_split(values, y_onehot, min_leaf):
    """Best threshold for one feature; returns (gini, threshold) or None.

    Scans every boundary between distinct sorted values using prefix
    class counts, so the whole scan is O(n * classes) after the sort.
    """
    order = np.argsort(values, kind="stable")
    sv = values[order]
    n = sv.size
    cum = np.cumsum(y_onehot[order], axis=0)
    total = cum[-1]
    sizes_left = np.arange(1, n)
    boundary = sv[1:] > sv[:-1]
    if min_leaf > 1:
        boundary &= (sizes_left >= min_leaf) & (n - sizes_left >= min_leaf)
    if not np.any(boundary):
        return None
    left = cum[:-1]
    right = total[None, :] - left
    sizes_right = n - sizes_left
    gini_left = 1.0 - np.sum(left ** 2, axis=1) / sizes_left ** 2
    gini_right = 1.0 - np.sum(right ** 2, axis=1) / sizes_right ** 2
    weighted = (sizes_left * gini_left + sizes_right * gini_right) / n
    weighted[~boundary] = np.inf
    best = int(np.argmin(weighted))
    return float(weighted[best]), float(0.5 * (sv[best] + sv[best + 1]))


def train_tree(X, labels, config: RFConfig, seed: int,
               class_labels=None) -> DecisionTree:
    """Grow a single CART tree with Gini splits.

    Each node considers a random subset of ceil(sqrt(m)) features; if
    none of them admits a valid split the remaining features are tried
    in random order before giving up, so a node only becomes an impure
    leaf when every feature is constant within it.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise ValueError("need a nonempty 2-D feature matrix")
    labels = np.asarray(labels)
    if labels.shape != (X.shape[0],):
        raise ValueError("labels must match the number of rows")
    if class_labels is None:
        class_labels = sorted(set(labels.tolist()))
    code_of = {c: i for i, c in enumerate(class_labels)}
    y = np.array([code_of[v] for v in labels.tolist()], dtype=int)
    n_classes = len(class_labels)
    y_onehot = np.zeros((y.size, n_classes))
    y_onehot[np.arange(y.size), y] = 1.0

    rng = np.random.default_rng(seed)
    m = X.shape[1]
    n_candidates = int(np.ceil(np.sqrt(m)))

    feature, threshold, left, right, leaf_counts = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        leaf_counts.append(np.zeros(n_classes, dtype=int))
        return len(feature) - 1

    root = new_node()
    stack = [(root, np.arange(X.shape[0]), 0)]
    while stack:
        node, idx, depth = stack.pop()
        counts = np.bincount(y[idx], minlength=n_classes)
        pure = np.max(counts) == idx.size
        depth_capped = config.max_depth is not None and depth >= config.max_depth
        split = None
        if not pure and not depth_capped and idx.size >= 2 * config.min_samples_leaf:
            onehot = y_onehot[idx]
            perm = rng.permutation(m)
            best = (np.inf, None, None)
            tried = 0
            for f in perm:
                result = _gini_best_split(X[idx, f], onehot, config.min_samples_leaf)
                tried += 1
                if result is not None and result[0] < best[0]:
                    best = (result[0], int(f), result[1])
                # stop once the quota of splittable candidates is met
                if tried >= n_candidates and best[1] is not None:
                    break
            if best[1] is not None:
                split = (best[1], best[2])
        if split is None:
            leaf_counts[node] = counts
            continue
        f, thr = split
        go_left = X[idx, f] <= thr
        feature[node] = f
        threshold[node] = thr
        left[node] = new_node()
        right[node] = new_node()
        stack.append((right[node], idx[~go_left], depth + 1))
        stack.append((left[node], idx[go_left], depth + 1))

    return DecisionTree(feature, threshold, left, right,
                        np.vstack(leaf_counts), class_labels)


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
    X, labels, config, seed, class_labels, tree_ids = args
    n = X.shape[0]
    trees = []
    for t in tree_ids:
        if config.bootstrap:
            rng = np.random.default_rng(derive_seed(seed, "bootstrap", t))
            rows = rng.integers(0, n, size=n)
        else:
            rows = np.arange(n)
        trees.append(train_tree(X[rows], labels[rows], config,
                                derive_seed(seed, "tree", t),
                                class_labels=class_labels))
    return trees


def train_forest(X, labels, config: RFConfig, seed: int,
                 feature_names=None, class_labels=None, jobs: int = 1) -> Forest:
    """Train a forest of bootstrap-resampled trees.

    Per-tree seeds derive from the forest seed, so the result is
    identical no matter how tree training is scheduled; ``jobs > 1``
    spreads the trees over worker processes.
    """
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
    if class_labels is None:
        class_labels = sorted(set(labels.tolist()))
    if feature_names is None:
        feature_names = tuple(f"f{i}" for i in range(X.shape[1]))
    chunks = [ids.tolist() for ids in np.array_split(np.arange(config.n_trees),
                                                     min(max(jobs, 1), config.n_trees))]
    tasks = [(X, labels, config, seed, class_labels, ids) for ids in chunks if ids]
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
