"""The oracles of ``tests/oracles.py`` keep running their own kernels.

An equivalence test is only as strong as its oracle.  If a product kernel is
renamed, the oracle's override stops overriding anything, and the test
quietly compares the product with itself.  These tests catch that statically
(every declared kernel is the oracle's own and still exists on the product)
and check that an oracle ensemble trains oracle members.  The equivalence
tests check that the oracle parts reach every node a reference tree grows.
"""

import inspect

import numpy as np
import pytest

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
