"""The baseline trees' complexity report: one per structure, equal to a walk.

VFDT, HT-Ada, EFDT and FIMT-DD keep one ``ComplexityReport``, counted by one
walk of the main tree, and return it until the class count changes or a node
is created (``_new_leaf``) or replaced (``_replace_child``).
``complexity()``, ``n_nodes``, ``n_leaves`` and ``depth`` read it.  After
every batch and every ``predict_proba`` they must equal
``tree_complexity_walk`` of ``tests/oracles.py`` and the product's own walk,
both bypassing the cache, on streams that grow the class set, split,
re-split (EFDT), swap alternates (HT-Ada), prune (FIMT-DD) and demote an
EFDT node; and on hand-edited model files whose split node lost a child,
which training grows back and prediction leaves as it is.  The report is
not persisted: a save/load round trip gives a byte-identical file and an
equal report.
"""

import numpy as np
import pytest

from repro.persistence import load_model, save_model, to_state
from repro.trees.base import LeafNode
from repro.trees.efdt import ExtremelyFastDecisionTreeClassifier
from repro.trees.fimtdd import FIMTDDClassifier
from repro.trees.hat import HoeffdingAdaptiveTreeClassifier
from repro.trees.observers import SplitSuggestion
from repro.trees.vfdt import HoeffdingTreeClassifier
from tests.conftest import make_multiclass_blobs, make_xor
from tests.oracles import tree_complexity_walk


def assert_report_is_current(model):
    report = model.complexity()
    assert report == tree_complexity_walk(model) == model._count_complexity()
    assert model.complexity() is report
    assert (model.n_nodes, model.n_leaves, model.depth) == (
        report.n_nodes,
        report.n_leaves,
        report.depth,
    )


def growing_classes(n=3000, seed=0):
    """3-class blobs whose classes appear one by one, and no declared classes."""
    X, y = make_multiclass_blobs(n, n_classes=3, n_features=4, seed=seed)
    order = np.concatenate(
        [np.flatnonzero(y == 0)[:100], np.flatnonzero(y <= 1)[100:400]]
    )
    order = np.concatenate([order, np.setdiff1d(np.arange(n), order)])
    return X[order], y[order], None


def flipped_xor(n=12_000, seed=3):
    """XOR whose labels flip half-way: HT-Ada grows alternates and swaps them
    in, FIMT-DD's Page-Hinkley tests prune."""
    X, y = make_xor(n, seed=seed)
    y = y.copy()
    y[n // 2 :] = 1 - y[n // 2 :]
    return X, y, [0, 1]


def swapped_feature(n=16_000, seed=6):
    """The label moves from feature 0 to feature 1: EFDT re-splits."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, 4))
    y = np.where(np.arange(n) < n // 2, X[:, 0] > 0.5, X[:, 1] > 0.5).astype(int)
    return X, y, [0, 1]


#: Name -> (model factory, stream, batch size, what must have happened).
CASES = {
    "vfdt_mc": (
        lambda: HoeffdingTreeClassifier(grace_period=60, tie_threshold=0.5),
        growing_classes, 25, lambda m: m.n_split_events >= 2 and m.n_classes_ == 3,
    ),
    "vfdt_nba": (
        lambda: HoeffdingTreeClassifier(
            grace_period=60, tie_threshold=0.5, leaf_prediction="nba"
        ),
        growing_classes, 25, lambda m: m.n_split_events >= 2 and m.n_classes_ == 3,
    ),
    "ht_ada": (
        lambda: HoeffdingAdaptiveTreeClassifier(
            grace_period=60, adwin_delta=0.05, alternate_min_weight=40
        ),
        flipped_xor, 5, lambda m: m.n_tree_swaps >= 1,
    ),
    "efdt": (
        lambda: ExtremelyFastDecisionTreeClassifier(
            grace_period=100, reevaluation_period=500
        ),
        swapped_feature, 50, lambda m: m.n_subtree_prunes >= 1,
    ),
    "fimtdd": (
        lambda: FIMTDDClassifier(grace_period=100, random_state=6),
        lambda: flipped_xor(6000), 20, lambda m: m.n_pruned_branches >= 1,
    ),
}


def train(name, check=None):
    factory, stream, batch, _ = CASES[name]
    X, y, classes = stream()
    model = factory()
    for start in range(0, len(X), batch):
        model.partial_fit(X[start : start + batch], y[start : start + batch], classes)
        if check is not None:
            check(model)
            model.predict_proba(X[start : start + 7])
            check(model)
    return model, X


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_equals_a_walk_after_every_batch_and_prediction(name):
    model, _ = train(name, check=assert_report_is_current)
    assert CASES[name][3](model)


def test_class_growth_changes_a_classifier_leafs_report():
    """Naive Bayes leaves count c splits per leaf: a new class changes the
    report without changing the structure."""
    model = HoeffdingTreeClassifier(leaf_prediction="nb")
    X, y = make_multiclass_blobs(60, n_classes=3, n_features=4, seed=1)
    model.partial_fit(X[:20], np.zeros(20, dtype=int) + (np.arange(20) % 2))
    binary = model.complexity()
    model.partial_fit(X[20:21], [2])
    assert model.n_split_events == 0
    assert model.complexity() != binary
    assert_report_is_current(model)


def test_efdt_demotion_drops_the_report(monkeypatch):
    """A re-evaluation that finds no split worth keeping demotes the node to a
    leaf (forced here: the statistics suggest only a harmful split)."""
    model, X = train("efdt")
    assert_report_is_current(model)
    node = model.root

    def harmful(self, criterion):
        return [SplitSuggestion(feature=node.feature, threshold=0.0, merit=-1.0)]

    monkeypatch.setattr(LeafNode, "best_split_suggestions", harmful)
    assert model._reevaluate_split(node, None, 0)
    assert model.root is not node and model.n_nodes == 1
    assert_report_is_current(model)


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_missing_child_grows_back(name, tmp_path):
    """A model file whose split node lost a child: the loaded model walks, and
    the leaf that training creates there drops the report."""
    loaded, rows = _cut_child_model(name, tmp_path)
    before = loaded.complexity()
    assert_report_is_current(loaded)
    loaded.partial_fit(rows[:1], loaded.predict(rows[:1]))
    assert loaded.n_leaves == before.n_leaves + 1
    assert_report_is_current(loaded)


@pytest.mark.parametrize("name", sorted(CASES))
def test_prediction_through_a_missing_child_leaves_the_model_unchanged(
    name, tmp_path
):
    """Prediction creates no node where a child is missing and draws nothing
    from the model's RNG (FIMT-DD gives those rows a uniform row); the
    probabilities are finite and sum to 1."""
    loaded, rows = _cut_child_model(name, tmp_path)
    state = to_state(loaded)
    proba = loaded.predict_proba(rows)
    assert to_state(loaded) == state
    assert np.all(np.isfinite(proba))
    np.testing.assert_allclose(proba.sum(axis=1), 1.0)
    if isinstance(loaded, FIMTDDClassifier):
        np.testing.assert_array_equal(proba, 1.0 / loaded.n_classes_)


def _cut_child_model(name, tmp_path):
    """A trained model reloaded from a file whose leftmost split lost its left
    child, and the training rows that reach the cut branch."""
    model, X = train(name)
    node = model.root
    while getattr(node.children[0], "children", None) is not None:
        node = node.children[0]
    node.children[0] = None
    path = tmp_path / "cut.json"
    save_model(model, path)
    loaded = load_model(path)
    # Rows that reach the cut branch go left at every node of the leftmost path.
    left = [X[:, split.feature] <= split.threshold for split in _leftmost_path(loaded)]
    rows = X[np.all(left, axis=0)]
    assert len(rows)
    return loaded, rows


def _leftmost_path(model):
    path, node = [], model.root
    while node is not None and getattr(node, "children", None) is not None:
        path.append(node)
        node = node.children[0]
    return path


@pytest.mark.parametrize("name", sorted(CASES))
def test_save_load_round_trip(name, tmp_path):
    model, _ = train(name)
    report = model.complexity()
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_model(model, first)
    loaded = load_model(first)
    save_model(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert loaded.complexity() == report
    assert_report_is_current(loaded)


def test_ht_ada_counts_exclude_alternate_trees():
    """``n_nodes`` and ``n_leaves`` count the main tree, as ``complexity()``
    does; alternate subtrees grown after a drift are not part of it."""
    X, y, classes = flipped_xor()
    model = HoeffdingAdaptiveTreeClassifier(grace_period=100)
    alternates_seen = 0
    for start in range(0, len(X), 100):
        model.partial_fit(X[start : start + 100], y[start : start + 100], classes)
        report = model.complexity()
        assert (model.n_nodes, model.n_leaves) == (report.n_nodes, report.n_leaves)
        assert report == tree_complexity_walk(model)
        stack = [model.root]
        while stack:
            node = stack.pop()
            stack.extend(child for child in getattr(node, "children", ()) if child)
            if getattr(node, "alternate_tree", None) is not None:
                alternates_seen += 1
    assert alternates_seen >= 1
