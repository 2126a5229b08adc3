import hashlib
import re
from functools import partial

import numpy as np
import pytest

from biasaudit.forest import (DecisionTree, Forest, RFConfig, _column_ranks, _grow_trees,
                              _segment_splits, name_that_dataset, train_forest, train_tree)
from biasaudit.seeding import derive_seed
from biasaudit.synth import MultiDatasetSpec, gen_multidataset
from biasaudit.tabular import Table, label_codes, stratified_split

QUICK_RF = RFConfig(n_trees=20)
# pairs whose float midpoint 0.5 * (lo + hi) is not below hi, so every row
# would go left: adjacent doubles round onto hi, near-max values overflow
# to inf, and the smallest subnormal against zero rounds to -0.0
EDGE_PAIRS = [(1.0000000000000002, 1.0000000000000004), (1.5e308, 1.7e308),
              (-5e-324, 0.0)]


def blob_data(rng, n_per_class=120, shift=2.0, n_features=4):
    X = np.vstack([rng.standard_normal((n_per_class, n_features)),
                   rng.standard_normal((n_per_class, n_features)) + shift])
    return X, np.repeat([0, 1], n_per_class)


def _codes(labels):
    """Each label's index among the sorted distinct labels."""
    return np.unique(labels, return_inverse=True)[1]


def _forest(X, y, config, seed):
    """The forest of a one-part :func:`train_forest` call."""
    [forest] = train_forest([(X, y, seed)], config)
    return forest


def _scan(x, y, sizes):
    """:func:`_segment_splits` on segments of one column ``x``, entry i being row i once."""
    x = np.asarray(x, dtype=float)
    return _segment_splits(x, _column_ranks(x[:, None]), np.arange(x.size),
                           np.asarray(y), np.ones(x.size, dtype=np.int64), np.asarray(sizes))


class TestGiniSplit:
    def test_perfect_split_has_zero_impurity(self):
        gini, threshold = _scan([0.0, 0.1, 1.0, 1.1], [0, 0, 1, 1], [4])
        assert gini[0] == pytest.approx(0.0)
        assert threshold[0] == pytest.approx(0.55)

    def test_constant_feature_unsplittable(self):
        gini, _ = _scan(np.ones(4), [0, 1, 0, 1], [4])
        assert gini[0] == np.inf

    @pytest.mark.parametrize("lo, hi", EDGE_PAIRS)
    def test_threshold_lies_below_the_upper_value(self, lo, hi):
        gini, threshold = _scan([hi, lo], [1, 0], [2])
        assert gini[0] == 0.0
        assert lo <= threshold[0] < hi


class TestTrainTree:
    def test_single_class_single_leaf(self):
        tree = train_tree(np.arange(5.0)[:, None], np.array(["x"] * 5), seed=0)
        assert tree.n_nodes == 1
        assert tree.predict_codes(np.array([[2.0]]))[0] == 0

    def test_separable_1d_depth_one(self):
        X = np.array([[-2.0], [-1.0], [-0.5], [0.5], [1.0], [2.0]])
        labels = np.array(["a", "a", "a", "b", "b", "b"])
        tree = train_tree(X, labels, seed=0)
        assert tree.n_nodes == 3
        assert abs(tree.threshold[0]) < 0.5
        assert np.mean(tree.predict_codes(X) == np.array([0, 0, 0, 1, 1, 1])) == 1.0

    def test_full_depth_memorizes_unique_rows(self, rng):
        X = rng.standard_normal((64, 3))
        labels = rng.choice(list("abcd"), size=64)
        tree = train_tree(X, labels, seed=1)
        classes = sorted(set(labels.tolist()))
        want = np.array([classes.index(v) for v in labels])
        assert np.mean(tree.predict_codes(X) == want) == 1.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            train_tree(np.zeros((0, 2)), np.array([]), seed=0)

    @pytest.mark.parametrize("lo, hi", EDGE_PAIRS)
    def test_growth_ends_where_the_midpoint_reaches_the_upper_value(
            self, bounded_growth, lo, hi):
        tree = train_tree(np.array([[lo], [hi]]), np.array(["a", "b"]), seed=0)
        assert tree.n_nodes == 3
        np.testing.assert_array_equal(tree.predict_codes(np.array([[lo], [hi]])), [0, 1])


class TestForest:
    @pytest.mark.parametrize("train", [partial(train_tree, seed=0),
                                       partial(_forest, config=QUICK_RF, seed=0)],
                             ids=["train_tree", "train_forest"])
    @pytest.mark.parametrize("n_rows, n_labels", [(10, 12), (10, 8), (0, 0)],
                             ids=["more_labels", "fewer_labels", "no_rows"])
    def test_labels_not_one_per_row_rejected(self, train, n_rows, n_labels):
        labels = np.array([0, 1] * 6)[:n_labels]
        with pytest.raises(ValueError, match="feature matrix|number of rows"):
            train(np.zeros((n_rows, 2)), labels)

    @pytest.mark.parametrize("codes", [np.array([0.0, 1.0]), np.array(["0", "1"]),
                                       np.array([0, -1]), np.array([True, False])],
                             ids=["float", "string", "negative", "bool"])
    def test_codes_that_are_not_non_negative_integers_rejected(self, codes):
        with pytest.raises(ValueError, match=re.escape(f"got dtype {codes.dtype}")):
            _forest(np.zeros((2, 1)), codes, RFConfig(n_trees=1), seed=0)

    def test_class_missing_below_max_keeps_its_code(self, rng):
        # codes 0 and 2, none 1: every leaf is three counts wide, and the
        # forest is the one trained on codes 0 and 1 with class 1 renamed 2
        X, y = blob_data(rng, n_per_class=40)
        gap = _forest(X, 2 * y, QUICK_RF, seed=9)
        dense = _forest(X, y, QUICK_RF, seed=9)
        for tree, twin in zip(gap.trees, dense.trees):
            assert tree.leaf_counts.shape == (tree.n_nodes, 3)
            assert not tree.leaf_counts[:, 1].any()
            np.testing.assert_array_equal(tree.leaf_counts[:, [0, 2]], twin.leaf_counts)
        probe = np.vstack([X, 3.0 * rng.standard_normal((200, 4)) + 1.0])
        pred = gap.predict_codes(probe)
        assert set(pred.tolist()) == {0, 2}
        np.testing.assert_array_equal(pred, 2 * dense.predict_codes(probe))

    def test_one_tree_forest_votes_as_its_tree(self, rng):
        X, labels = blob_data(rng, n_per_class=40)
        forest = _forest(X, labels, RFConfig(n_trees=1), seed=3)
        assert len(forest.trees) == 1
        np.testing.assert_array_equal(forest.predict_codes(X),
                                      forest.trees[0].predict_codes(X))

    def test_separated_blobs_accuracy(self, rng):
        X, labels = blob_data(rng)
        forest = _forest(X, labels, RFConfig(n_trees=50), seed=4)
        Xt, labels_t = blob_data(rng, n_per_class=250)
        want = np.array([0] * 250 + [1] * 250)
        assert np.mean(forest.predict_codes(Xt) == want) >= 0.95

    def test_shuffled_labels_give_chance_accuracy(self, rng):
        accs = []
        for rep in range(50):
            X = rng.standard_normal((80, 3))
            y = np.array([0, 1] * 40)
            rng.shuffle(y)
            forest = _forest(X[:60], y[:60], RFConfig(n_trees=10), seed=rep)
            accs.append(float(np.mean(forest.predict_codes(X[60:]) == y[60:])))
        assert abs(np.mean(accs) - 0.5) < 0.10

    def test_deterministic_given_seed(self, rng):
        X, labels = blob_data(rng, n_per_class=30)
        a = _forest(X, labels, QUICK_RF, seed=5)
        b = _forest(X, labels, QUICK_RF, seed=5)
        probe = rng.standard_normal((20, 4))
        np.testing.assert_array_equal(a.predict_codes(probe), b.predict_codes(probe))

    def test_monotone_feature_transform_keeps_predictions(self, rng):
        X, labels = blob_data(rng, n_per_class=50, shift=1.0)
        base = _forest(X, labels, QUICK_RF, seed=6)
        warped = X.copy()
        warped[:, 0] = np.exp(warped[:, 0])  # strictly monotone warp, train+test
        alt = _forest(warped, labels, QUICK_RF, seed=6)
        np.testing.assert_array_equal(base.predict_codes(X),
                                      alt.predict_codes(warped))


class TestPredict:
    def test_unanimous_vote(self, rng):
        X, labels = blob_data(rng, n_per_class=40)
        forest = _forest(X, labels, QUICK_RF, seed=7)
        probe = np.full((1, 4), -2.0)
        assert forest.predict_codes(probe).tolist() == [0]
        assert all(tree.predict_codes(probe).tolist() == [0] for tree in forest.trees)

    def test_tie_breaks_to_lowest_class_index(self):
        # two stumps with opposite votes at the origin
        X = np.array([[-1.0], [1.0]])
        t1 = train_tree(X, np.array(["a", "b"]), seed=0)
        t2 = train_tree(X, np.array(["b", "a"]), seed=0)
        probe = np.array([[-1.0]])
        assert [t1.predict_codes(probe)[0], t2.predict_codes(probe)[0]] == [0, 1]
        forest = Forest(trees=(t1, t2))
        assert forest.predict_codes(probe).tolist() == [0]

    @pytest.mark.parametrize("model", ["tree", "forest"])
    @pytest.mark.parametrize("shape", ["narrow", "one_d"])
    def test_X_without_every_split_column_rejected(self, rng, model, shape):
        # a narrower X would read a split's column from the next row
        X = rng.standard_normal((300, 4))
        labels = rng.integers(0, 3, size=300)
        fitted = (train_tree(X, labels, seed=1) if model == "tree"
                  else _forest(X, labels, QUICK_RF, seed=1))
        trees = [fitted] if model == "tree" else fitted.trees
        need = 1 + max(int(tree.feature.max()) for tree in trees)
        assert fitted.predict_codes(X[:, :need]).shape == (300,)
        bad = X[:, need - 1] if shape == "one_d" else X[:, :need - 1]
        with pytest.raises(ValueError, match=re.escape(
                f"at least {need} columns, got shape {bad.shape}")):
            fitted.predict_codes(bad)



# split nodes whose children do not all lie past them inside the tree, or
# are shared: (feature, left, right) of each node, -1 for a leaf
BAD_LAYOUTS = {
    "self_loop": ([0, -1], [0, -1], [1, -1]),
    "back_edge": ([0, 0, -1, -1], [1, 0, -1, -1], [2, 3, -1, -1]),
    "past_the_end": ([0, -1, -1], [1, -1, -1], [3, -1, -1]),
    # each node's two children are the next node: 2**40 root-to-leaf paths
    "shared_children": ([0] * 40 + [-1], list(range(1, 41)) + [-1],
                        list(range(1, 41)) + [-1]),
}


@pytest.mark.parametrize("layout", BAD_LAYOUTS)
def test_tree_whose_children_do_not_follow_their_node_rejected(layout):
    feature, left, right = BAD_LAYOUTS[layout]
    with pytest.raises(ValueError, match="children must lie past it, inside the tree"):
        DecisionTree(feature, np.zeros(len(feature)), left, right,
                     np.ones((len(feature), 2), dtype=int))


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

    def test_one_dataset_left_after_filtering_rejected(self):
        table = gen_multidataset(MultiDatasetSpec(n_per_dataset=20,
                                                  shifts=(0.0, 0.0), seed=7))
        diagnosis = np.where(table.dataset_labels == "ds01", "scz", "control")
        table = Table(table.ids, table.dataset_labels, table.ages, table.sexes,
                      table.features, table.feature_names, diagnosis)
        kwargs = dict(feature_sets={"vol": ["vol_f1"]}, fractions=(0.5,), repetitions=1,
                      seed=0, rf_config=RFConfig(n_trees=2))
        with pytest.raises(ValueError, match="control rows from at least 2 datasets, got 1"):
            name_that_dataset(table, **kwargs)
        results = name_that_dataset(table, controls_only=False, **kwargs)
        assert results["vol"].confusion.class_labels == ("ds00", "ds01")

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

    @pytest.mark.parametrize("feature_sets", [{}, {"vol": ["vol_f1"], "none": []}],
                             ids=["no_sets", "empty_set"])
    def test_empty_feature_sets_rejected_before_training(self, monkeypatch, feature_sets):
        table = gen_multidataset(MultiDatasetSpec(n_per_dataset=10, shifts=(0.0, 1.0), seed=10))

        def no_training(*args, **kwargs):
            raise AssertionError("a forest was trained")

        monkeypatch.setattr("biasaudit.forest.train_forest", no_training)
        with pytest.raises(ValueError, match=re.escape(
                f"at least one feature set, each with columns, got {feature_sets}")):
            name_that_dataset(table, feature_sets, fractions=(0.5,), repetitions=1, seed=0)

    def test_unsplittable_largest_fraction_rejected_before_training(self, monkeypatch):
        table = gen_multidataset(MultiDatasetSpec(
            n_per_dataset=10, shifts=(0.0, 1.0), seed=10))

        def no_training(*args, **kwargs):
            raise AssertionError("a forest was trained")

        monkeypatch.setattr("biasaudit.forest.train_forest", no_training)
        # fraction so large every row trains: the test set, and so the
        # confusion matrix, would be empty
        with pytest.raises(ValueError, match="fractions.*0.96"):
            name_that_dataset(table, {"vol": ["vol_f1"]}, fractions=(0.96, 0.5),
                              repetitions=1, seed=11, rf_config=RFConfig(n_trees=2))


    def test_unknown_column_rejected_before_any_split(self, monkeypatch):
        table = gen_multidataset(MultiDatasetSpec(n_per_dataset=10, shifts=(0.0, 1.0), seed=10))

        def no_split(*args, **kwargs):
            raise AssertionError("the table was split")

        monkeypatch.setattr("biasaudit.forest.stratified_split", no_split)
        monkeypatch.setattr("biasaudit.forest.train_forest", no_split)
        with pytest.raises(ValueError, match=re.escape(
                "feature set 'thick' names 'thick_f9', which the table lacks")):
            name_that_dataset(table, {"vol": ["vol_f1"], "thick": ["thick_f1", "thick_f9"]},
                              fractions=(0.5,), repetitions=1, seed=0)

    @pytest.mark.parametrize("n_trees, batches", [(6, [3]), (200, [2, 1])],
                             ids=["one_call", "cap_splits"])
    def test_one_grower_call_per_batch_of_fractions(self, monkeypatch, n_trees, batches):
        # 1,500 rows: fractions 0.05 and 0.1 train 75 and 150 rows, 0.5
        # trains 750, and 750 x 200 trees passes GROW_BATCH_ROWS_TREES
        calls = []

        def counted(parts, config):
            calls.append(len(parts))
            return train_forest(parts, config)

        monkeypatch.setattr("biasaudit.forest.train_forest", counted)
        kwargs = dict(BATCHED_RUN, rf_config=RFConfig(n_trees=n_trees))
        name_that_dataset(_batched_table(), **kwargs)
        assert calls == batches * 2 * kwargs["repetitions"]

    def test_parallel_equals_serial_where_the_cap_splits_a_repetition(self):
        table = _batched_table()
        kwargs = dict(BATCHED_RUN, rf_config=RFConfig(n_trees=200))
        serial = name_that_dataset(table, jobs=1, **kwargs)
        parallel = name_that_dataset(table, jobs=3, **kwargs)
        for fs in kwargs["feature_sets"]:
            assert serial[fs].curve == parallel[fs].curve
            np.testing.assert_array_equal(serial[fs].confusion.counts,
                                          parallel[fs].confusion.counts)


BATCHED_RUN = dict(feature_sets={"vol": ["vol_f1", "vol_f2"], "thick": ["thick_f1"]},
                   fractions=(0.5, 0.05, 0.1), repetitions=1, seed=14)


def _batched_table():
    return gen_multidataset(MultiDatasetSpec(
        n_per_dataset=100, shifts=tuple(0.3 * d for d in range(15)), seed=15))


class TestBatchedForests:
    def test_each_forest_equals_its_one_part_call(self):
        # parts of 150, 37, 90 and 12 rows; the third lacks the top two
        # class codes and the last holds one class, so its trees are roots
        parts = []
        for i, (n_rows, n_classes) in enumerate([(150, 5), (37, 5), (90, 3), (12, 1)]):
            X, labels = _oracle_data(30 + i, n_rows, 4, n_classes)
            parts.append((X, _codes(labels), 40 + i))
        config = RFConfig(n_trees=8)
        forests = train_forest(parts, config)
        assert len(forests) == len(parts)
        for forest, (X, y, seed) in zip(forests, parts):
            alone = _forest(X, y, config, seed)
            assert len(forest.trees) == len(alone.trees) == 8
            for tree, twin in zip(forest.trees, alone.trees):
                _assert_same_tree(tree, (twin.feature, twin.threshold, twin.left,
                                         twin.right, twin.leaf_counts))
                assert tree.leaf_counts.shape[1] == y.max() + 1
            assert _forest_digest(forest) == _forest_digest(alone)
        assert all(tree.depth == 0 for tree in forests[3].trees)

    def test_parts_of_two_widths_rejected(self):
        with pytest.raises(ValueError, match=re.escape("one width, got widths [2, 3]")):
            train_forest([(np.zeros((3, 2)), np.array([0, 1, 0]), 0),
                          (np.zeros((3, 3)), np.array([0, 1, 1]), 1)], RFConfig(n_trees=1))


def _pinned_table():
    """108 rows of datasets of 13, 30, 41 and 24 rows, shuffled; every ds_b row is
    diseased, so under ``controls_only`` the class codes skip its place."""
    rng = np.random.default_rng(19)
    sizes = {"ds_a": 13, "ds_b": 30, "ds_c": 41, "ds_d": 24}
    labels = np.repeat(list(sizes), list(sizes.values()))[rng.permutation(108)]
    shift = np.searchsorted(sorted(sizes), labels) * 0.8
    diagnosis = np.where(labels == "ds_b", "scz",
                         np.where(rng.random(108) < 0.15, "scz", "control"))
    return Table(ids=[f"s{i:03d}" for i in range(108)], dataset_labels=labels,
                 ages=rng.uniform(20, 70, size=108), sexes=rng.integers(0, 2, size=108),
                 features=rng.standard_normal((108, 3)) + shift[:, None],
                 feature_names=("vol_a", "vol_b", "thick_c"), diagnosis_labels=diagnosis)


# computed at the commit before the dataset labels were coded once per table
PINNED_RESULTS = {
    "vol": ([0.56, 0.6133333333333334], [0.09092121131323905, 0.1049867716534908],
            [[14, 1, 0], [6, 21, 9], [0, 13, 11]]),
    "all": ([0.5466666666666667, 0.7066666666666667], [0.0771722460186015, 0.04988876515698588],
            [[13, 2, 0], [2, 23, 11], [0, 7, 17]]),
}


def test_pinned_accuracies_and_confusion():
    table = _pinned_table()
    assert table.filter_controls().labels() == ["ds_a", "ds_c", "ds_d"]
    results = name_that_dataset(
        table, {"vol": ["vol_a", "vol_b"], "all": ["vol_a", "vol_b", "thick_c", "age"]},
        fractions=(0.2, 0.6), repetitions=3, seed=5, rf_config=RFConfig(n_trees=7))
    for name, (means, sds, confusion) in PINNED_RESULTS.items():
        points = results[name].curve.points
        assert [p.mean_accuracy for p in points] == means
        assert [p.sd_accuracy for p in points] == sds
        assert results[name].confusion.class_labels == ("ds_a", "ds_c", "ds_d")
        assert results[name].confusion.counts.tolist() == confusion


def _reference_gini_best_split(values, y_onehot):
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
    lo, hi = sv[best], sv[best + 1]
    with np.errstate(invalid="ignore"):  # -inf + inf
        mid = 0.5 * lo + 0.5 * hi  # cannot overflow; lo where it reaches hi
    return float(weighted[best]), float(mid if mid < hi else lo)


def _reference_train_tree(X, labels, seed, class_labels=None):
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
    while level:
        open_nodes = []
        for node, idx in level:
            counts = np.bincount(y[idx], minlength=n_classes)
            if np.max(counts) < idx.size:
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
                result = _reference_gini_best_split(X[idx, f], onehot)
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


ORACLE_LAYOUTS = ["spread", "few_rows", "duplicated", "bootstrap", "signed_zero_inf"]


def _oracle_layout(layout, m, n_classes):
    """Oracle inputs in one of five row layouts.

    ``spread`` is 150 rows of :func:`_oracle_data`; ``few_rows`` is 12
    rows, so trees stay shallow; ``duplicated`` repeats 75 rows with a
    fresh label on each copy, so impure nodes with no boundary between
    distinct values become leaves; ``bootstrap`` draws 150 rows with
    replacement, as :func:`train_forest` draws for each tree;
    ``signed_zero_inf`` does the same after :func:`_signed_zero_inf`.
    """
    seed = 100 * m + 10 + n_classes
    if layout == "spread":
        return _oracle_data(seed, 150, m, n_classes)
    if layout == "few_rows":
        return _oracle_data(seed, 12, m, n_classes)
    rng = np.random.default_rng(seed + 1)
    if layout == "duplicated":
        X, labels = _oracle_data(seed, 75, m, n_classes)
        relabel = np.array([f"c{v:02d}" for v in rng.integers(0, n_classes, size=75)])
        return np.vstack([X, X]), np.concatenate([labels, relabel])
    X, labels = _oracle_data(seed, 150, m, n_classes)
    if layout == "signed_zero_inf":
        X = _signed_zero_inf(X, rng)
    rows = rng.integers(0, 150, size=150)
    return X[rows], labels[rows]


def _signed_zero_inf(X, rng):
    """``X`` on a half-unit grid with zeros of either sign and 1 cell in 8 at +-inf."""
    X = np.round(2.0 * X) / 2.0
    zero = X == 0.0
    X[zero] = np.copysign(0.0, rng.standard_normal(zero.sum()))
    X[rng.random(X.shape) < 0.125] = np.inf
    X[rng.random(X.shape) < 0.125] = -np.inf
    return X


def _assert_grown_trees_equal_reference(X, labels, samples):
    """One :func:`_grow_trees` call over ``samples``, tree t seeded t: each
    tree equals the per-node reference on its rows, repeated by their
    counts.  Returns the trees' depths."""
    classes = sorted(set(labels.tolist()))
    trees = _grow_trees(X, label_codes(labels, classes), samples, range(len(samples)))
    for seed, (tree, (rows, copies)) in enumerate(zip(trees, samples)):
        expanded = np.repeat(rows, copies)
        _assert_same_tree(tree, _reference_train_tree(X[expanded], labels[expanded], seed,
                                                      class_labels=classes))
    return [tree.depth for tree in trees]


def _assert_same_tree(tree, want):
    feature, threshold, left, right, leaf_counts = want
    np.testing.assert_array_equal(tree.feature, feature)
    np.testing.assert_array_equal(tree.threshold, threshold)
    np.testing.assert_array_equal(tree.left, left)
    np.testing.assert_array_equal(tree.right, right)
    np.testing.assert_array_equal(tree.leaf_counts, leaf_counts)


class TestLevelGrowerOracle:
    @pytest.mark.parametrize("m", [1, 2, 4, 9])
    @pytest.mark.parametrize("n_classes", [2, 15])
    @pytest.mark.parametrize("layout", ORACLE_LAYOUTS)
    def test_tree_equals_per_node_reference(self, m, n_classes, layout):
        X, labels = _oracle_layout(layout, m, n_classes)
        for seed in (0, 1):
            tree = train_tree(X, labels, seed)
            _assert_same_tree(tree, _reference_train_tree(X, labels, seed))

    @pytest.mark.parametrize("m", [1, 2, 4, 9])
    @pytest.mark.parametrize("n_classes", [2, 15])
    @pytest.mark.parametrize("layout", ORACLE_LAYOUTS)
    def test_row_counts_equal_reference_on_repeated_rows(self, m, n_classes, layout):
        # two trees in one call, each fed its distinct rows and their
        # counts (0 to 3 copies of each row of the layout)
        X, labels = _oracle_layout(layout, m, n_classes)
        rng = np.random.default_rng(m + n_classes)
        samples = []
        for _ in range(2):
            copies = rng.integers(0, 4, size=X.shape[0])
            rows = np.flatnonzero(copies)
            samples.append((rows, copies[rows]))
        _assert_grown_trees_equal_reference(X, labels, samples)

    def test_trees_of_mixed_depths_equal_reference(self):
        # trees leave the level order at different depths while later
        # trees grow on: deep, root-only (one class), shallow, root-only
        # (one row), deep
        X, labels = _oracle_layout("spread", 4, 3)
        one_class = np.flatnonzero(labels == "c00")
        shallow = np.flatnonzero(labels != "c02")[:3]
        samples = [(rows, np.ones(rows.size, dtype=np.int64)) for rows in
                   (np.arange(150), one_class, shallow, np.array([7]), np.arange(0, 150, 2))]
        depths = _assert_grown_trees_equal_reference(X, labels, samples)
        assert depths[1] == depths[3] == 0
        assert 0 < depths[2] < min(depths[0], depths[4])

    def test_forest_trees_equal_trees_grown_alone(self):
        X, labels = _oracle_data(7, 120, 4, 5)
        forest = _forest(X, _codes(labels), RFConfig(n_trees=6), seed=21)
        for t, tree in enumerate(forest.trees):
            rows = np.random.default_rng(derive_seed(21, "bootstrap", t)).integers(
                0, X.shape[0], size=X.shape[0])
            # every bootstrap here draws each of the 5 classes
            alone = train_tree(X[rows], labels[rows], derive_seed(21, "tree", t))
            _assert_same_tree(tree, (alone.feature, alone.threshold, alone.left,
                                     alone.right, alone.leaf_counts))

    def test_segmented_scan_equals_one_feature_scan(self, rng):
        sizes = rng.integers(1, 40, size=30)
        x = np.round(rng.standard_normal(sizes.sum()), 1)
        x[: sizes[0]] = 0.0  # one constant segment
        y = rng.integers(0, 6, size=sizes.sum())
        gini, threshold = _scan(x, y, sizes)
        start = 0
        for s, size in enumerate(sizes):
            part = slice(start, start + size)
            want = _reference_gini_best_split(x[part], np.eye(6)[y[part]])
            if want is None:
                assert gini[s] == np.inf
            else:
                assert (gini[s], threshold[s]) == want
            start += size


def _lexsort_segment_splits(x, y, sizes):
    """The value-keyed scan: one lexsort by (segment, value) per call.

    ``x`` holds the segments' feature values back to back; otherwise it
    is :func:`_segment_splits` before columns were ranked, with the
    threshold rule of :func:`_reference_gini_best_split`.
    """
    n = x.size
    starts = np.cumsum(sizes) - sizes
    seg = np.repeat(np.arange(sizes.size), sizes)
    order = np.lexsort((x, seg))
    x, y = x[order], y[order]
    by_class = np.argsort(y, kind="stable")
    new_run = np.ones(n, dtype=bool)
    new_run[1:] = (np.diff(y[by_class]) != 0) | (np.diff(seg[by_class]) != 0)
    run_start = np.flatnonzero(new_run)
    run_of = np.cumsum(new_run) - 1
    class_total = np.empty(n, dtype=np.int64)
    class_total[by_class] = np.diff(run_start, append=n)[run_of]
    step = np.empty(n, dtype=np.int64)
    step[by_class] = 2 * (np.arange(n) - run_start[run_of]) + 1

    def segment_cumsum(values):
        total = np.cumsum(values)
        return total - np.repeat(total[starts] - values[starts], sizes)

    sq_left = segment_cumsum(step)
    sq_right = sq_left - 2 * segment_cumsum(class_total)
    sq_right += np.repeat(sq_left[starts + sizes - 1], sizes)
    size_left = np.arange(1, n + 1) - starts[seg]
    size = sizes[seg]
    valid = size_left < size
    valid[:-1] &= x[1:] > x[:-1]
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
    first = np.flatnonzero(np.diff(seg, prepend=-1))
    lowest = np.minimum.reduceat(weighted, first)
    hit = np.flatnonzero(weighted == np.repeat(lowest, np.diff(first, append=at.size)))
    hit = hit[np.diff(seg[hit], prepend=-1) != 0]
    gini[seg[hit]] = weighted[hit]
    lo, hi = x[at[hit]], x[at[hit] + 1]
    with np.errstate(invalid="ignore"):
        mid = 0.5 * lo + 0.5 * hi
    threshold[seg[hit]] = np.where(mid < hi, mid, lo)
    return gini, threshold


class TestRankKeyedScan:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_lexsort_scan_bit_for_bit(self, seed):
        # 60 rows of tied, signed-zero and infinite values; each segment
        # is one feature of a draw of rows with replacement, so a cell can
        # repeat in a segment (no grower node holds a row twice, but the
        # order among equal keys changes no result either)
        rng = np.random.default_rng(seed)
        n_rows, m = 60, 5
        X = _signed_zero_inf(rng.standard_normal((n_rows, m)), rng)
        X[:, 2] = np.copysign(0.0, rng.standard_normal(n_rows))  # +-0.0 only
        codes = rng.integers(0, 1 + seed, size=n_rows)
        sizes = rng.integers(1, 50, size=40)
        rows = rng.integers(0, n_rows, size=sizes.sum())
        at = rows * m + np.repeat(rng.integers(0, m, size=sizes.size), sizes)
        flat = X.ravel()
        gini, threshold = _segment_splits(flat, _column_ranks(X), at, codes[rows],
                                          np.ones(at.size, dtype=np.int64), sizes)
        want_gini, want_threshold = _lexsort_segment_splits(flat[at], codes[rows], sizes)
        assert gini.tobytes() == want_gini.tobytes()
        assert threshold.tobytes() == want_threshold.tobytes()
        assert np.isfinite(gini).any() and np.isinf(gini).any()


def _expanded(at, y, copies, sizes):
    """Scan arguments with entry i repeated ``copies[i]`` times, each copy counted once."""
    return (np.repeat(at, copies), np.repeat(y, copies), np.ones(copies.sum(), dtype=np.int64),
            np.add.reduceat(copies, np.cumsum(sizes) - sizes))


class TestWeightedScan:
    @pytest.mark.parametrize("n_classes", [2, 15])
    @pytest.mark.parametrize("grid", ["rounded", "signed_zero_inf"])
    def test_counts_equal_repeated_entries_bit_for_bit(self, grid, n_classes):
        # each segment lists distinct rows of one feature with 1 to 5
        # copies each; segment 0 lies on a constant column
        rng = np.random.default_rng(n_classes)
        n_rows, m = 80, 5
        X = rng.standard_normal((n_rows, m))
        X = np.round(X, 1) if grid == "rounded" else _signed_zero_inf(X, rng)
        X[:, m - 1] = 0.25
        codes = rng.integers(0, n_classes, size=n_rows)
        sizes = rng.integers(1, 40, size=60)
        sizes[0] = 7
        rows = np.concatenate([rng.choice(n_rows, size, replace=False) for size in sizes])
        feature = rng.integers(0, m - 1, size=sizes.size)
        feature[0] = m - 1
        at = rows * m + np.repeat(feature, sizes)
        copies = rng.integers(1, 6, size=at.size)
        flat, rank = X.ravel(), _column_ranks(X)
        gini, threshold = _segment_splits(flat, rank, at, codes[rows], copies, sizes)
        want_gini, want_threshold = _segment_splits(flat, rank,
                                                    *_expanded(at, codes[rows], copies, sizes))
        assert gini.tobytes() == want_gini.tobytes()
        assert threshold.tobytes() == want_threshold.tobytes()
        at, y, _, sizes = _expanded(at, codes[rows], copies, sizes)
        want_gini, want_threshold = _lexsort_segment_splits(flat[at], y, sizes)
        assert gini.tobytes() == want_gini.tobytes()
        assert threshold.tobytes() == want_threshold.tobytes()
        assert gini[0] == np.inf
        assert np.isfinite(gini).any()


def _forest_digest(forest):
    """SHA-256 of every tree's feature, threshold, left, right and leaf_counts."""
    digest = hashlib.sha256()
    for tree in forest.trees:
        for part, dtype in ((tree.feature, "<i8"), (tree.threshold, "<f8"), (tree.left, "<i8"),
                            (tree.right, "<i8"), (tree.leaf_counts, "<i8")):
            digest.update(np.ascontiguousarray(part, dtype=dtype).tobytes())
    return digest.hexdigest()


# 20-tree, 15-class forests, digested when each tree still sorted and
# scanned every bootstrap copy of a row on its own: a change that is
# meant to leave every tree as it is must keep these
@pytest.mark.parametrize("data, seed, digest", [
    pytest.param(lambda: _oracle_data(7, 300, 9, 15), 3,
                 "21b7994fe8d8581571606149dd13d9601198e9b35fedd27a1eb78be16ab52651",
                 id="oracle_data"),
    pytest.param(lambda: _oracle_layout("signed_zero_inf", 4, 15), 5,
                 "d1f7ec1b917a4ef60f859f00abd520c322193945cee2d9a09bd39c5e050ec467",
                 id="signed_zero_inf_m4"),
    pytest.param(lambda: _oracle_layout("signed_zero_inf", 9, 15), 6,
                 "126f859dec93d0b0a80b475c3703bd9c2d04f615a438c5f65f5d62f88d0e13b2",
                 id="signed_zero_inf_m9"),
])
def test_pinned_forest_digest(data, seed, digest):
    X, labels = data()
    assert _forest_digest(_forest(X, _codes(labels), RFConfig(n_trees=20),
                                       seed=seed)) == digest


def _held_out_codes(columns):
    """A 15-tree forest's codes for the held-out rows of 15 shifted datasets of
    1,000 rows, trained on 2 rows of each: 30 rows against 14,970."""
    table = gen_multidataset(MultiDatasetSpec(n_per_dataset=1000,
                                              shifts=tuple(0.3 * d for d in range(15)), seed=7))
    train, test = stratified_split(table, 0.002, seed=11)
    forest = _forest(np.column_stack([train.column(c) for c in columns]),
                          train.dataset_codes, RFConfig(n_trees=15), seed=12)
    return forest.predict_codes(np.column_stack([test.column(c) for c in columns]))


# held-out codes digested when the forest still walked every row
@pytest.mark.parametrize("columns, digest", [
    pytest.param(["age", "sex"],
                 "a870efdc7813b77b443196ecb39f50a163df6dc49e576f95109b97f682e080ed", id="age_sex"),
    pytest.param(["age", "sex", "vol_f1", "vol_f2", "thick_f1", "thick_f2"],
                 "352f06b355685aa4ddbbb6733e887ca354df9259d8936cdeba832de6108b3b8b", id="all"),
])
def test_pinned_held_out_codes(columns, digest):
    codes = _held_out_codes(columns)
    assert codes.size == 14_970
    assert hashlib.sha256(codes.astype("<i8").tobytes()).hexdigest() == digest


def _reference_predict_codes(tree, X):
    """The compaction walk: only rows still at an internal node step on."""
    X = np.asarray(X, dtype=float)
    node = np.zeros(X.shape[0], dtype=int)
    active = tree.feature[node] >= 0
    while np.any(active):
        idx = np.flatnonzero(active)
        cur = node[idx]
        go_left = X[idx, tree.feature[cur]] <= tree.threshold[cur]
        node[idx] = np.where(go_left, tree.left[cur], tree.right[cur])
        active[idx] = tree.feature[node[idx]] >= 0
    return tree._leaf_pred[node]


def _walk_probes(tree, X, rng):
    """X, rows lying exactly on each split's threshold, and rows with NaN and +-inf."""
    internal = np.flatnonzero(tree.feature >= 0)
    on_threshold = X[rng.integers(0, X.shape[0], size=internal.size)].copy()
    on_threshold[np.arange(internal.size), tree.feature[internal]] = tree.threshold[internal]
    special = X[rng.integers(0, X.shape[0], size=60)].copy()
    special[rng.random(special.shape) < 0.4] = np.nan
    special[:20][rng.random((20, X.shape[1])) < 0.5] = np.inf
    special[20:40][rng.random((20, X.shape[1])) < 0.5] = -np.inf
    return np.vstack([X, on_threshold, special])


def _split_thresholds(forest, column):
    """Every threshold at which some tree of ``forest`` splits ``column``."""
    return np.concatenate([tree.threshold[tree.feature == column] for tree in forest.trees])


def _every_tree_probes(forest, X, rng):
    """:func:`_walk_probes` of each tree, so on-threshold rows cover every split."""
    return np.vstack([_walk_probes(tree, X, rng) for tree in forest.trees])


def _jittered(forest, probes, rng, copies=4):
    """``probes`` and ``copies`` more copies of them, each finite value moved by
    under a quarter of its distance to the nearest threshold of its column, so
    every copy shares its probe's cell; values on a threshold stay put."""
    gap = np.full(probes.shape, np.inf)
    with np.errstate(invalid="ignore"):  # inf - inf
        for j in range(probes.shape[1]):
            T = _split_thresholds(forest, j)
            if T.size:
                gap[:, j] = np.abs(probes[:, j, None] - T).min(axis=1)
    step = 0.25 * np.where(np.isfinite(gap), gap, 1.0)
    return np.vstack([probes] + [probes + step * rng.uniform(-1.0, 1.0, size=probes.shape)
                                 for _ in range(copies)])


def _walk_case_tree0(rng):
    X, labels = _oracle_data(3, 200, 4, 6)
    forest = _forest(X, _codes(labels), RFConfig(n_trees=9), seed=8)
    return forest, _walk_probes(forest.trees[0], X, rng)


def _walk_case_every_tree(rng):
    X, labels = _oracle_data(3, 200, 4, 6)
    forest = _forest(X, _codes(labels), RFConfig(n_trees=9), seed=8)
    return forest, _every_tree_probes(forest, X, rng)


def _walk_case_signed_zero_inf(rng):
    X, labels = _oracle_layout("signed_zero_inf", 4, 15)
    forest = _forest(X, _codes(labels), RFConfig(n_trees=9), seed=4)
    return forest, _jittered(forest, _every_tree_probes(forest, X, rng), rng)


def _walk_case_many_rows_per_cell(rng):
    X, labels = _oracle_data(5, 60, 2, 4)
    forest = _forest(X, _codes(labels), RFConfig(n_trees=15), seed=2)
    return forest, _jittered(forest, _every_tree_probes(forest, X, rng), rng, copies=20)


def _walk_case_wide_rerank(rng):
    # 40 columns whose threshold grid has more than 2**62 cells, so the
    # cell codes are re-ranked on the way
    X, labels = _oracle_data(6, 300, 40, 5)
    forest = _forest(X, _codes(labels), RFConfig(n_trees=12), seed=3)
    grid = 1
    for j in range(40):
        grid *= np.unique(_split_thresholds(forest, j)).size + 1
    assert grid > 2 ** 62
    return forest, _jittered(forest, _every_tree_probes(forest, X, rng), rng)


def _walk_case_codes_wrap_without_rerank(rng):
    # one hand-built 40-column tree: column 0 at 0 sends a row to class 0
    # (left) or on to column 1 at 0, class 1 (left) or a chain of splits
    # that end in class 2 on either side and put thresholds 0, 1 and 2 on
    # columns 1 to 39.  The grid has 2 * 4**39 cells: codes wrapped modulo
    # 2**64 would merge rows that differ in column 0 alone, and column 1's
    # threshold 0 equals column 0's
    splits = [(0, 0.0), (1, 0.0), (1, 1.0), (1, 2.0)] + [
        (j, t) for j in range(2, 40) for t in (0.0, 1.0, 2.0)]
    n = len(splits)  # internal nodes 0..n-1; node i's left leaf is n + i
    leaves = [-1] * (n + 1)
    leaf_counts = np.zeros((2 * n + 1, 3), dtype=int)
    leaf_counts[np.arange(n, 2 * n + 1), [0, 1] + [2] * (n - 1)] = 1
    tree = DecisionTree([f for f, _ in splits] + leaves, [t for _, t in splits] + [0.0] * (n + 1),
                        list(range(n, 2 * n)) + leaves, list(range(1, n)) + [2 * n] + leaves,
                        leaf_counts)
    # every (column 0, column 1, all other columns) triple of these values
    values = [-1.0, 0.0, 0.5, 1.5, 3.0]
    triples = np.array(np.meshgrid(values, values, values)).reshape(3, -1).T
    return Forest(trees=(tree,)), triples[:, [0, 1] + [2] * 38]


def _walk_case_unsplit_column(rng):
    # column 2 is constant in training, so no tree splits it; the probes vary it
    X, labels = _oracle_data(4, 150, 4, 3)
    forest = _forest(X, _codes(labels), RFConfig(n_trees=9), seed=1)
    assert _split_thresholds(forest, 2).size == 0
    probes = _every_tree_probes(forest, X, rng)
    probes[:, 2] = rng.standard_normal(probes.shape[0])
    return forest, probes


def _walk_case_root_only(rng):
    # one class only: every tree is a root-only leaf
    X = rng.standard_normal((30, 3))
    forest = _forest(X, np.full(30, 2), RFConfig(n_trees=5), seed=0)
    assert all(tree.depth == 0 for tree in forest.trees)
    return forest, np.vstack([X, [[np.nan, np.inf, -0.0], [-np.inf, 0.0, 1.0]]])


FOREST_WALK_CASES = {
    "tree0_probes": _walk_case_tree0,
    "every_tree_probes": _walk_case_every_tree,
    "signed_zero_inf": _walk_case_signed_zero_inf,
    "many_rows_per_cell": _walk_case_many_rows_per_cell,
    "wide_rerank": _walk_case_wide_rerank,
    "codes_wrap_without_rerank": _walk_case_codes_wrap_without_rerank,
    "unsplit_column": _walk_case_unsplit_column,
    "root_only": _walk_case_root_only,
}


class TestFixedDepthWalkOracle:
    @pytest.mark.parametrize("m", [1, 2, 4, 9])
    @pytest.mark.parametrize("n_classes", [2, 15])
    @pytest.mark.parametrize("layout", ORACLE_LAYOUTS)
    def test_walk_equals_compaction_walk(self, m, n_classes, layout):
        X, labels = _oracle_layout(layout, m, n_classes)
        rng = np.random.default_rng(m + n_classes)
        for seed in (0, 1):
            tree = train_tree(X, labels, seed)
            probes = _walk_probes(tree, X, rng)
            np.testing.assert_array_equal(tree.predict_codes(probes),
                                          _reference_predict_codes(tree, probes))

    def test_root_only_leaf(self):
        tree = train_tree(np.arange(6.0).reshape(3, 2), np.array(["x"] * 3), seed=0)
        assert tree.depth == 0
        probes = np.array([[0.0, 1.0], [np.nan, np.inf], [-np.inf, 5.0]])
        np.testing.assert_array_equal(tree.predict_codes(probes), [0, 0, 0])
        np.testing.assert_array_equal(tree.predict_codes(probes),
                                      _reference_predict_codes(tree, probes))

    @pytest.mark.parametrize("case", FOREST_WALK_CASES)
    def test_forest_votes_equal_compaction_walk_votes(self, rng, case):
        forest, probes = FOREST_WALK_CASES[case](rng)
        votes = np.zeros((probes.shape[0], forest.trees[0].leaf_counts.shape[1]), dtype=int)
        for tree in forest.trees:
            votes[np.arange(probes.shape[0]), _reference_predict_codes(tree, probes)] += 1
        np.testing.assert_array_equal(forest.predict_codes(probes), np.argmax(votes, axis=1))
