"""The oracles of ``tests/oracles.py`` keep running their own kernels.

An equivalence test is only as strong as its oracle.  If a product kernel is
renamed, the oracle's override stops overriding anything, and the test
quietly compares the product with itself.  These tests catch that statically
(every declared kernel is the oracle's own and still exists on the product)
and check that an oracle ensemble trains oracle members and that the
two-sweep DMT's checks sweep the store afresh.  The equivalence tests check
that the oracle parts reach every node a reference tree grows.
"""

import inspect

import numpy as np
import pytest

from repro.core import DynamicModelTree
from repro.core.nodes import DMTNode
from tests import oracles


def _oracle_classes():
    return {
        value
        for value in vars(oracles).values()
        if inspect.isclass(value) and value.__module__ == oracles.__name__
    }


def test_every_oracle_declares_its_kernels():
    assert _oracle_classes() == set(oracles.ORACLE_KERNELS)
    for model, oracle in oracles.ORACLES.items():
        assert oracle.__bases__ == (model,)


@pytest.mark.parametrize(
    "oracle", sorted(oracles.ORACLE_KERNELS, key=lambda cls: cls.__name__),
    ids=lambda cls: cls.__name__,
)
def test_oracle_overrides_product_kernels(oracle):
    (product,) = oracle.__bases__
    assert product.__module__.startswith("repro.")
    for name in oracles.ORACLE_KERNELS[oracle]:
        assert name in vars(oracle), f"{oracle.__name__} does not define {name}"
        assert hasattr(product, name), (
            f"{product.__name__} has no {name}; {oracle.__name__} overrides "
            "nothing"
        )
        assert getattr(product, name) is not vars(oracle)[name]


@pytest.mark.parametrize(
    "oracle",
    [
        oracles.ReferenceOzaBagging,
        oracles.ReferenceLeveragingBagging,
        oracles.ReferenceARF,
    ],
    ids=lambda cls: cls.__name__,
)
def test_reference_ensembles_train_reference_members(oracle):
    X = np.random.default_rng(2).uniform(-3.0, 3.0, size=(400, 2))
    y = (np.abs(X[:, 0]) > 1.5).astype(int)
    model = oracle(random_state=0)
    model.partial_fit(X, y, [0, 1])
    members = getattr(model, "estimators_", None) or [
        member.tree for member in model.members_
    ]
    assert members
    for member in members:
        assert type(member) is oracles.ReferenceHoeffdingTree


def test_the_two_sweep_tree_checks_through_fresh_sweeps(monkeypatch):
    """The product's checks read the batch's sweep; the oracle's call
    ``DMTNode.best_split``, which sweeps again, at leaves and inner nodes."""
    calls = []
    best_split = DMTNode.best_split

    def counting_best_split(node, learning_rate, reference_loss=None):
        calls.append(reference_loss is not None)
        return best_split(node, learning_rate, reference_loss)

    monkeypatch.setattr(DMTNode, "best_split", counting_best_split)
    rng = np.random.default_rng(0)
    X = rng.uniform(-3.0, 3.0, size=(4000, 2))
    y = (np.abs(X[:, 0]) > 1.5).astype(int)
    for model_class in (DynamicModelTree, oracles.TwoSweepDynamicModelTree):
        calls.clear()
        model = model_class(random_state=0)
        for begin in range(0, len(X), 50):
            model.partial_fit(X[begin : begin + 50], y[begin : begin + 50], [0, 1])
        assert model.n_nodes >= 3
        if model_class is DynamicModelTree:
            assert calls == []
        else:
            assert False in calls and True in calls
