import numpy as np
import pytest

from biasaudit.forest import (RFConfig, _gini_best_split, _segment_splits,
                              name_that_dataset, predict, train_forest,
                              train_tree)
from biasaudit.seeding import derive_seed
from biasaudit.synth import MultiDatasetSpec, gen_multidataset

QUICK_RF = RFConfig(n_trees=20)


def blob_data(rng, n_per_class=120, shift=2.0, n_features=4):
    X = np.vstack([rng.standard_normal((n_per_class, n_features)),
                   rng.standard_normal((n_per_class, n_features)) + shift])
    labels = np.array(["a"] * n_per_class + ["b"] * n_per_class)
    return X, labels


class TestGiniSplit:
    def test_perfect_split_has_zero_impurity(self):
        values = np.array([0.0, 0.1, 1.0, 1.1])
        onehot = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=float)
        gini, threshold = _gini_best_split(values, onehot, min_leaf=1)
        assert gini == pytest.approx(0.0)
        assert threshold == pytest.approx(0.55)

    def test_uninformative_split_keeps_half_gini(self):
        # every boundary yields balanced classes on both sides
        values = np.array([0.0, 1.0, 2.0, 3.0])
        onehot = np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=float)
        gini, _ = _gini_best_split(values, onehot, min_leaf=2)
        assert gini == pytest.approx(0.5)

    def test_constant_feature_unsplittable(self):
        values = np.ones(4)
        onehot = np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=float)
        assert _gini_best_split(values, onehot, min_leaf=1) is None


class TestTrainTree:
    def test_single_class_single_leaf(self):
        tree = train_tree(np.arange(5.0)[:, None], np.array(["x"] * 5),
                          RFConfig(), seed=0)
        assert tree.n_nodes == 1
        assert tree.predict_codes(np.array([[2.0]]))[0] == 0

    def test_separable_1d_depth_one(self):
        X = np.array([[-2.0], [-1.0], [-0.5], [0.5], [1.0], [2.0]])
        labels = np.array(["a", "a", "a", "b", "b", "b"])
        tree = train_tree(X, labels, RFConfig(), seed=0)
        assert tree.n_nodes == 3
        assert abs(tree.threshold[0]) < 0.5
        assert np.mean(tree.predict_codes(X) == np.array([0, 0, 0, 1, 1, 1])) == 1.0

    def test_full_depth_memorizes_unique_rows(self, rng):
        X = rng.standard_normal((64, 3))
        labels = rng.choice(list("abcd"), size=64)
        tree = train_tree(X, labels, RFConfig(), seed=1)
        classes = sorted(set(labels.tolist()))
        want = np.array([classes.index(v) for v in labels])
        assert np.mean(tree.predict_codes(X) == want) == 1.0

    def test_max_depth_respected(self, rng):
        X = rng.standard_normal((100, 2))
        labels = rng.choice(["a", "b"], size=100)
        tree = train_tree(X, labels, RFConfig(max_depth=2), seed=2)
        assert tree.n_nodes <= 7

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            train_tree(np.zeros((0, 2)), np.array([]), RFConfig(), seed=0)


class TestForest:
    def test_one_tree_no_bootstrap_equals_tree(self, rng):
        X, labels = blob_data(rng, n_per_class=40)
        forest = train_forest(X, labels, RFConfig(n_trees=1, bootstrap=False),
                              seed=3)
        assert len(forest.trees) == 1
        np.testing.assert_array_equal(forest.predict_codes(X),
                                      forest.trees[0].predict_codes(X))

    def test_separated_blobs_accuracy(self, rng):
        X, labels = blob_data(rng)
        forest = train_forest(X, labels, RFConfig(n_trees=50), seed=4)
        Xt, labels_t = blob_data(rng, n_per_class=250)
        want = np.array([0] * 250 + [1] * 250)
        assert np.mean(forest.predict_codes(Xt) == want) >= 0.95

    def test_shuffled_labels_give_chance_accuracy(self, rng):
        accs = []
        for rep in range(50):
            X = rng.standard_normal((80, 3))
            labels = np.array(["a", "b"] * 40)
            rng.shuffle(labels)
            forest = train_forest(X[:60], labels[:60], RFConfig(n_trees=10),
                                  seed=rep)
            classes = sorted(set(labels.tolist()))
            want = np.array([classes.index(v) for v in labels[60:]])
            accs.append(float(np.mean(forest.predict_codes(X[60:]) == want)))
        assert abs(np.mean(accs) - 0.5) < 0.10

    def test_deterministic_given_seed(self, rng):
        X, labels = blob_data(rng, n_per_class=30)
        a = train_forest(X, labels, QUICK_RF, seed=5)
        b = train_forest(X, labels, QUICK_RF, seed=5)
        probe = rng.standard_normal((20, 4))
        np.testing.assert_array_equal(a.predict_codes(probe), b.predict_codes(probe))

    def test_parallel_equals_serial(self, rng):
        X, labels = blob_data(rng, n_per_class=30)
        serial = train_forest(X, labels, RFConfig(n_trees=8), seed=10, jobs=1)
        parallel = train_forest(X, labels, RFConfig(n_trees=8), seed=10, jobs=3)
        probe = rng.standard_normal((25, 4))
        np.testing.assert_array_equal(serial.predict_codes(probe),
                                      parallel.predict_codes(probe))
        for a, b in zip(serial.trees, parallel.trees):
            np.testing.assert_array_equal(a.threshold, b.threshold)
            np.testing.assert_array_equal(a.feature, b.feature)

    def test_monotone_feature_transform_keeps_predictions(self, rng):
        X, labels = blob_data(rng, n_per_class=50, shift=1.0)
        base = train_forest(X, labels, QUICK_RF, seed=6)
        warped = X.copy()
        warped[:, 0] = np.exp(warped[:, 0])  # strictly monotone warp, train+test
        alt = train_forest(warped, labels, QUICK_RF, seed=6)
        np.testing.assert_array_equal(base.predict_codes(X),
                                      alt.predict_codes(warped))


class TestPredict:
    def test_unanimous_vote(self, rng):
        X, labels = blob_data(rng, n_per_class=40)
        forest = train_forest(X, labels, QUICK_RF, seed=7)
        label, shares = predict(forest, np.full(4, -2.0))
        assert label == "a"
        assert shares[0] == pytest.approx(1.0)

    def test_tie_breaks_to_lowest_class_index(self):
        # two stumps with opposite votes at the origin
        X = np.array([[-1.0], [1.0]])
        t1 = train_tree(X, np.array(["a", "b"]), RFConfig(), seed=0)
        t2 = train_tree(X, np.array(["b", "a"]), RFConfig(), seed=0)
        from biasaudit.forest import Forest
        forest = Forest(trees=(t1, t2), feature_names=("f0",),
                        class_labels=("a", "b"), config_fingerprint="test")
        label, shares = predict(forest, np.array([-1.0]))
        assert label == "a"
        assert shares.tolist() == [0.5, 0.5]

    def test_vote_shares_sum_to_one(self, rng):
        X, labels = blob_data(rng, n_per_class=30)
        forest = train_forest(X, labels, QUICK_RF, seed=8)
        _, shares = predict(forest, rng.standard_normal(4))
        assert abs(shares.sum() - 1.0) < 1e-12

    def test_dimension_mismatch(self, rng):
        X, labels = blob_data(rng, n_per_class=10)
        forest = train_forest(X, labels, RFConfig(n_trees=2), seed=9)
        with pytest.raises(ValueError):
            predict(forest, np.zeros(7))


class TestNameThatDataset:
    def test_disjoint_supports_near_perfect(self):
        table = gen_multidataset(MultiDatasetSpec(
            n_per_dataset=80, shifts=(0.0, 25.0), seed=1))
        results = name_that_dataset(
            table, {"vol": ["vol_f1", "vol_f2"]}, fractions=(0.5,),
            repetitions=3, seed=2, rf_config=RFConfig(n_trees=10))
        point = results["vol"].curve.points[0]
        assert point.mean_accuracy >= 0.99
        confusion = results["vol"].confusion
        off_diag = confusion.counts.sum() - np.trace(confusion.counts)
        assert off_diag / confusion.counts.sum() <= 0.01

    def test_confusion_row_sums_match_heldout_counts(self):
        table = gen_multidataset(MultiDatasetSpec(
            n_per_dataset=40, shifts=(0.0, 1.0, 2.0), seed=3))
        reps = 2
        results = name_that_dataset(
            table, {"vol": ["vol_f1", "vol_f2"]}, fractions=(0.5,),
            repetitions=reps, seed=4, rf_config=RFConfig(n_trees=5))
        confusion = results["vol"].confusion
        heldout_per_dataset = 40 - round(0.5 * 40)
        np.testing.assert_array_equal(confusion.counts.sum(axis=1),
                                      [reps * heldout_per_dataset] * 3)

    def test_curve_non_decreasing_on_separable_data(self):
        # moderate shift so accuracy still grows with training data
        table = gen_multidataset(MultiDatasetSpec(
            n_per_dataset=100, shifts=(0.0, 1.0), seed=5))
        results = name_that_dataset(
            table, {"vol": ["vol_f1", "vol_f2"]},
            fractions=(0.05, 0.2, 0.7), repetitions=20, seed=6,
            rf_config=RFConfig(n_trees=10))
        points = results["vol"].curve.points
        for earlier, later in zip(points, points[1:]):
            slack = earlier.sd_accuracy + later.sd_accuracy
            assert later.mean_accuracy >= earlier.mean_accuracy - slack

    def test_single_dataset_rejected(self):
        table = gen_multidataset(MultiDatasetSpec(n_per_dataset=20,
                                                  shifts=(0.0, 0.0), seed=7))
        solo = table.take(np.flatnonzero(table.dataset_labels == "ds00"))
        with pytest.raises(ValueError):
            name_that_dataset(solo, {"vol": ["vol_f1"]}, fractions=(0.5,),
                              repetitions=1, seed=0)

    def test_deterministic_given_seed(self):
        table = gen_multidataset(MultiDatasetSpec(
            n_per_dataset=30, shifts=(0.0, 2.0), seed=8))
        kwargs = dict(feature_sets={"vol": ["vol_f1", "vol_f2"]},
                      fractions=(0.3, 0.6), repetitions=2, seed=9,
                      rf_config=RFConfig(n_trees=5))
        a = name_that_dataset(table, **kwargs)
        b = name_that_dataset(table, **kwargs)
        assert a["vol"].curve == b["vol"].curve
        np.testing.assert_array_equal(a["vol"].confusion.counts,
                                      b["vol"].confusion.counts)

    def test_harness_parallel_equals_serial(self):
        table = gen_multidataset(MultiDatasetSpec(
            n_per_dataset=30, shifts=(0.0, 1.5), seed=12))
        kwargs = dict(feature_sets={"vol": ["vol_f1", "vol_f2"],
                                    "thick": ["thick_f1", "thick_f2"]},
                      fractions=(0.4, 0.7), repetitions=2, seed=13,
                      rf_config=RFConfig(n_trees=4))
        serial = name_that_dataset(table, jobs=1, **kwargs)
        parallel = name_that_dataset(table, jobs=3, **kwargs)
        for fs in kwargs["feature_sets"]:
            assert serial[fs].curve == parallel[fs].curve
            np.testing.assert_array_equal(serial[fs].confusion.counts,
                                          parallel[fs].confusion.counts)

    def test_tiny_fraction_skipped_with_warning(self, caplog):
        table = gen_multidataset(MultiDatasetSpec(
            n_per_dataset=10, shifts=(0.0, 1.0), seed=10))
        # fraction so large every row trains: test set empty -> skipped
        results = name_that_dataset(
            table, {"vol": ["vol_f1"]}, fractions=(0.96, 0.5),
            repetitions=1, seed=11, rf_config=RFConfig(n_trees=2))
        fractions_curve = [p.train_fraction for p in results["vol"].curve.points]
        assert fractions_curve == [0.5]


def _reference_gini_best_split(values, y_onehot, min_leaf):
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


def _reference_train_tree(X, labels, config, seed, class_labels=None):
    """The per-node grower, visiting nodes breadth first.

    Node by node it runs the one-feature scan above over a random
    feature order, stopping once ceil(sqrt(m)) features are rated and
    one of them splits.  Each depth draws one uniform key row per open
    node, as the level-synchronous grower does, so both must build the
    same tree.
    """
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
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

    level = [(new_node(), np.arange(X.shape[0]))]
    depth = 0
    while level:
        open_nodes = []
        for node, idx in level:
            counts = np.bincount(y[idx], minlength=n_classes)
            pure = np.max(counts) == idx.size
            depth_capped = config.max_depth is not None and depth >= config.max_depth
            if not pure and not depth_capped and idx.size >= 2 * config.min_samples_leaf:
                open_nodes.append((node, idx, counts))
            else:
                leaf_counts[node] = counts
        keys = rng.random((len(open_nodes), m)) if open_nodes else []
        level = []
        for (node, idx, counts), key in zip(open_nodes, keys):
            onehot = y_onehot[idx]
            perm = np.argsort(key, kind="stable")
            best = (np.inf, None, None)
            tried = 0
            for f in perm:
                result = _reference_gini_best_split(X[idx, f], onehot,
                                                    config.min_samples_leaf)
                tried += 1
                if result is not None and result[0] < best[0]:
                    best = (result[0], int(f), result[1])
                if tried >= n_candidates and best[1] is not None:
                    break
            if best[1] is None:
                leaf_counts[node] = counts
                continue
            _, f, thr = best
            go_left = X[idx, f] <= thr
            feature[node] = f
            threshold[node] = thr
            left[node] = new_node()
            right[node] = new_node()
            level.append((left[node], idx[go_left]))
            level.append((right[node], idx[~go_left]))
        depth += 1
    return feature, threshold, left, right, np.vstack(leaf_counts)


def _oracle_data(seed, n_rows, m, n_classes):
    """Continuous, heavily tied and (from m = 4) constant columns."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n_rows, m))
    X[:, 1::2] = np.round(X[:, 1::2])  # few distinct values: many ties
    if m >= 4:
        X[:, 2] = 1.5
    labels = rng.integers(0, n_classes, size=n_rows)
    X[:, 0] += 0.7 * labels  # some signal, so splits are not all noise
    return X, np.array([f"c{v:02d}" for v in labels])


def _assert_same_tree(tree, want):
    feature, threshold, left, right, leaf_counts = want
    np.testing.assert_array_equal(tree.feature, feature)
    np.testing.assert_array_equal(tree.threshold, threshold)
    np.testing.assert_array_equal(tree.left, left)
    np.testing.assert_array_equal(tree.right, right)
    np.testing.assert_array_equal(tree.leaf_counts, leaf_counts)


class TestLevelGrowerOracle:
    @pytest.mark.parametrize("m", [1, 2, 4, 9])
    @pytest.mark.parametrize("min_leaf", [1, 3])
    @pytest.mark.parametrize("max_depth", [None, 3])
    @pytest.mark.parametrize("n_classes", [2, 15])
    def test_tree_equals_per_node_reference(self, m, min_leaf, max_depth, n_classes):
        X, labels = _oracle_data(100 * m + 10 * min_leaf + n_classes, 150, m, n_classes)
        config = RFConfig(max_depth=max_depth, min_samples_leaf=min_leaf)
        for seed in (0, 1):
            tree = train_tree(X, labels, config, seed)
            _assert_same_tree(tree, _reference_train_tree(X, labels, config, seed))

    def test_forest_trees_equal_trees_grown_alone(self):
        X, labels = _oracle_data(7, 120, 4, 5)
        config = RFConfig(n_trees=6)
        classes = sorted(set(labels.tolist()))
        forest = train_forest(X, labels, config, seed=21)
        for t, tree in enumerate(forest.trees):
            rows = np.random.default_rng(derive_seed(21, "bootstrap", t)).integers(
                0, X.shape[0], size=X.shape[0])
            alone = train_tree(X[rows], labels[rows], config,
                               derive_seed(21, "tree", t), class_labels=classes)
            _assert_same_tree(tree, (alone.feature, alone.threshold, alone.left,
                                     alone.right, alone.leaf_counts))

    @pytest.mark.parametrize("min_leaf", [1, 2, 4])
    def test_segmented_scan_equals_one_feature_scan(self, rng, min_leaf):
        sizes = rng.integers(1, 40, size=30)
        x = np.round(rng.standard_normal(sizes.sum()), 1)
        x[: sizes[0]] = 0.0  # one constant segment
        y = rng.integers(0, 6, size=sizes.sum())
        gini, threshold = _segment_splits(x, y, sizes, min_leaf)
        start = 0
        for s, size in enumerate(sizes):
            part = slice(start, start + size)
            want = _reference_gini_best_split(x[part], np.eye(6)[y[part]], min_leaf)
            if want is None:
                assert gini[s] == np.inf
            else:
                assert (gini[s], threshold[s]) == want
            start += size
