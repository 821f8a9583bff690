"""Pinned outputs of tree building and verification, and a guard on how
often they validate points.

The digests, verdicts and error texts below are fixed values: building
and verifying must reproduce them byte for byte, including the
exceptions raised for endpoints outside the space.
"""

import hashlib
import json

import pytest

from ordfrag import space as sp
from ordfrag.errors import DomainError
from ordfrag.ordinal import ZERO, from_int, parse
from ordfrag.ptree import StagedTree, build_tree, make_tree, to_staged, tree_to_json, verify_admissible
from ordfrag.space import ClosedInterval, FiniteChain, OrderSum, OrdinalInterval, SplitChain

W = parse("w")
ONE, TWO = from_int(1), from_int(2)

SPACES = {
    "finite": FiniteChain(2000),
    "ordinal": OrdinalInterval(parse("w^3*2+w^2*3+5")),
    "split": SplitChain(1500),
    "sum": OrderSum((FiniteChain(40), OrdinalInterval(parse("w^2+3")), SplitChain(30))),
    "nested-sum": OrderSum((SplitChain(5), OrderSum((FiniteChain(7), OrdinalInterval(W))))),
}

BUILT_DIGESTS = {
    ("finite", 25): "ee296388e85a13f39cc8ef88f95bee9587457ffb3e2d9d2af44ecaa98ae4c84a",
    ("finite", 301): "a6da6ea6290813a58a7f43882284f7cdf3d89a4f07bdcd13cb2f10c6621e0641",
    ("finite", 3001): "cecdef6ce078feba5a1fbe34a0cdf6fbb1f57644cc82452b7145bce8122059d3",
    ("ordinal", 25): "71188342e9e5a41c487b808b00d405171f6f93786e5ab6f7b75150b5a5d7b8c9",
    ("ordinal", 301): "9cf06bf62e0393bb11f58a25a6b89df5dc2432f9fe34d93c8842042a3cc7fc69",
    ("ordinal", 3001): "34133489e78e2c066e474bfd6439c5c2d80dbe8dc1d11b5d2f1f7a5b04484951",
    ("split", 25): "f946eb58c188180fd94ac9bc8faf54fa9322571e0f1a6570241ec4c50129f945",
    ("split", 301): "c08f8ffbecbbaf185a52c28ab8dd3a767a28d1e107c9cc23931a2cbb4c218c49",
    ("split", 3001): "bacf6aca7e615dd178ee3dbd5d725fc010df5a61c5cd18c9937bac331a36e538",
    ("sum", 25): "5e4e75cf6c42143ebbc38d8aff2805f1465a2a803772b34459b908fa1a8283b0",
    ("sum", 301): "eff9336852616c31e9cd2f8f1c960830812e83f9e62338dcff669063a66d2070",
    ("sum", 3001): "1c3c92401664cd8e0ced8e31ec433327047cf2b83ee2ed7e017add4608ed6c3e",
    ("nested-sum", 25): "97a76e1d6ce8454dd8d131bd0093a0baebf135e349dc7e66f306c5399cf7f560",
    ("nested-sum", 301): "caf60e353638d15c72e571e7237c037af0c2660702cdb6791b468f5d67d3db39",
    ("nested-sum", 3001): "65e806276406e35aabdfbc86537d9cc986d172e901126631a3fd4136c1cf9406",
}


def digest(tree) -> str:
    return hashlib.sha256(json.dumps(tree_to_json(tree), sort_keys=True).encode()).hexdigest()


def verdict_rows(v):
    return (v.ok, dict(v.counts), [(x.clause, x.nodes, x.detail) for x in v.violations])


@pytest.mark.parametrize("kind, budget", sorted(BUILT_DIGESTS))
def test_built_tree_bytes_are_pinned(kind, budget):
    tree = build_tree(SPACES[kind], budget)
    assert len(tree.nodes) == budget
    assert digest(tree) == BUILT_DIGESTS[kind, budget]


SUM3 = OrderSum((FiniteChain(3), OrdinalInterval(W), SplitChain(2)))
RI = "tree order and reverse interval inclusion disagree"
SPLIT = "children do not split at a single interior point"
ORDER = ("nontrivial", "interval endpoints out of order")
EMPTY = ("nontrivial", "interval has 0 points")

# (space, rows, expected verdict rows or the DomainError text raised)
BROKEN = {
    "finite-high-outside": (
        FiniteChain(5),
        [(0, 0, 4, ZERO, None), (1, 0, 2, ONE, 0), (2, 2, 7, ONE, 0)],
        (False, {"binary-split": 1, "nontrivial": 2, "reverse-inclusion": 1},
         [("binary-split", (0, 1, 2), SPLIT), (ORDER[0], (2,), ORDER[1]), (EMPTY[0], (2,), EMPTY[1]),
          ("reverse-inclusion", (0, 2), RI)]),
    ),
    "finite-root-outside": (
        FiniteChain(5),
        [(0, 0, 7, ZERO, None), (1, 0, 3, ONE, 0), (2, 3, 7, ONE, 0)],
        "7 is not a point of FiniteChain(size=5, labels=None)",
    ),
    "finite-leaf-outside": (
        FiniteChain(5),
        [(0, 0, 4, ZERO, None), (1, 0, 2, ONE, 0), (2, 2, 4, ONE, 0), (3, 2, 3, TWO, 2),
         (4, 3, 9, TWO, 2)],
        (False, {"binary-split": 1, "nontrivial": 2, "reverse-inclusion": 2},
         [("binary-split", (2, 3, 4), SPLIT), (ORDER[0], (4,), ORDER[1]), (EMPTY[0], (4,), EMPTY[1]),
          ("reverse-inclusion", (0, 4), RI), ("reverse-inclusion", (2, 4), RI)]),
    ),
    "ordinal-outside": (
        OrdinalInterval(W),
        [(0, ZERO, W, ZERO, None), (1, ZERO, ONE, ONE, 0), (2, ONE, parse("w+1"), ONE, 0)],
        (False, {"binary-split": 1, "nontrivial": 2, "reverse-inclusion": 1},
         [("binary-split", (0, 1, 2), SPLIT), (ORDER[0], (2,), ORDER[1]), (EMPTY[0], (2,), EMPTY[1]),
          ("reverse-inclusion", (0, 2), RI)]),
    ),
    "ordinal-limit-outside": (
        OrdinalInterval(parse("w^2")),
        [(0, ZERO, parse("w^2"), ZERO, None), (1, ZERO, W, ONE, 0), (2, W, parse("w^2"), ONE, 0),
         (3, W, parse("w^3"), W, 2)],
        (False, {"binary-split": 1, "nontrivial": 2, "limit-intersection": 1, "reverse-inclusion": 2},
         [("binary-split", (2,), "exactly one child"), (ORDER[0], (3,), ORDER[1]),
          (EMPTY[0], (3,), EMPTY[1]),
          ("limit-intersection", (3,), "limit-level interval differs from the intersection of its ancestors"),
          ("reverse-inclusion", (0, 3), RI), ("reverse-inclusion", (2, 3), RI)]),
    ),
    "split-outside": (
        SplitChain(3),
        [(0, (0, 0), (2, 1), ZERO, None), (1, (0, 0), (1, 0), ONE, 0), (2, (1, 0), (2, 1), ONE, 0),
         (3, (1, 0), (9, 0), TWO, 2), (4, (9, 0), (2, 1), TWO, 2)],
        "(9, 0) is not a point of SplitChain(size=3)",
    ),
    "sum-outside": (
        SUM3,
        [(0, (0, 0), (2, (1, 1)), ZERO, None), (1, (0, 0), (1, ZERO), ONE, 0),
         (2, (1, ZERO), (2, (1, 1)), ONE, 0), (3, (0, 0), (0, 99), TWO, 1), (4, (0, 99), (1, ZERO), TWO, 1)],
        "99 is not a point of FiniteChain(size=3, labels=None)",
    ),
    "sum-missing-part": (
        OrderSum((FiniteChain(3), FiniteChain(3))),
        [(0, (0, 0), (1, 2), ZERO, None), (1, (0, 0), (0, 2), ONE, 0), (2, (0, 2), (1, 2), ONE, 0),
         (3, (0, 0), (0, 1), TWO, 1), (4, (5, 0), (5, 1), TWO, 1)],
        "(5, 0) is not a point of an order sum with 2 parts",
    ),
    "split-string": (
        SplitChain(3),
        [(0, (0, 0), (2, 1), ZERO, None), (1, (0, 0), (1, 0), ONE, 0), (2, (1, 0), (2, 1), ONE, 0),
         (3, (1, 0), "a", TWO, 2), (4, "a", (2, 1), TWO, 2)],
        "'a' is not a point of SplitChain(size=3)",
    ),
    "split-string-unordered": (
        SplitChain(3),
        [(0, (0, 0), (2, 1), ZERO, None), (1, (0, 0), (1, 0), ONE, 0), (2, (1, 0), (2, 1), ONE, 0),
         (3, (1, 0), "ab", TWO, 2), (4, "ab", (2, 1), TWO, 2)],
        "'ab' is not a point of SplitChain(size=3)",
    ),
    "reversed-leaf": (
        FiniteChain(5),
        [(0, 0, 4, ZERO, None), (1, 0, 2, ONE, 0), (2, 4, 2, ONE, 0)],
        (False, {"binary-split": 1, "nontrivial": 2, "reverse-inclusion": 1},
         [("binary-split", (0, 1, 2), SPLIT), (ORDER[0], (2,), ORDER[1]), (EMPTY[0], (2,), EMPTY[1]),
          ("reverse-inclusion", (1, 2), RI)]),
    ),
    "reversed-split": (
        FiniteChain(5),
        [(0, 0, 4, ZERO, None), (1, 0, 2, ONE, 0), (2, 2, 4, ONE, 0), (3, 0, 3, TWO, 1), (4, 3, 2, TWO, 1)],
        (False, {"binary-split": 1, "nontrivial": 2, "reverse-inclusion": 3, "comparability": 1},
         [("binary-split", (1, 3, 4), SPLIT), (ORDER[0], (4,), ORDER[1]), (EMPTY[0], (4,), EMPTY[1]),
          ("reverse-inclusion", (1, 3), RI), ("reverse-inclusion", (2, 4), RI),
          ("reverse-inclusion", (3, 4), RI),
          ("comparability", (2, 3), "overlapping intervals on incomparable nodes")]),
    ),
    "reversed-root": (
        FiniteChain(5),
        [(0, 4, 0, ZERO, None), (1, 4, 2, ONE, 0), (2, 2, 0, ONE, 0)],
        (False, {"root": 1, "nontrivial": 6, "binary-split": 1, "reverse-inclusion": 2},
         [("root", (0,), "root interval is not the whole space"), (ORDER[0], (0,), ORDER[1]),
          (EMPTY[0], (0,), EMPTY[1]), ("binary-split", (0, 2, 1), SPLIT), (ORDER[0], (1,), ORDER[1]),
          (EMPTY[0], (1,), EMPTY[1]), (ORDER[0], (2,), ORDER[1]), (EMPTY[0], (2,), EMPTY[1]),
          ("reverse-inclusion", (0, 1), RI), ("reverse-inclusion", (0, 2), RI)]),
    ),
}


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_broken_tree_verdicts_are_pinned(name):
    K, rows, want = BROKEN[name]
    tree = make_tree(K, rows)
    if isinstance(want, str):
        with pytest.raises(DomainError) as err:
            verify_admissible(tree)
        assert str(err.value) == want
    else:
        assert verdict_rows(verify_admissible(tree)) == want


# the DomainError text of a one-level cut, or None when the cut succeeds
STAGED_CUTS = {
    "finite-high-outside": "7 is not a point of FiniteChain(size=5, labels=None)",
    "finite-root-outside": "7 is not a point of FiniteChain(size=5, labels=None)",
    "finite-leaf-outside": None,
    "ordinal-outside": "Ordinal(terms=((1, 1), (0, 1))) is not a point of "
                       "OrdinalInterval(alpha=Ordinal(terms=((1, 1),)))",
    "reversed-leaf": "payload of 2 out of order",
    "reversed-split": None,
    "reversed-root": "interval endpoints out of order",
}


@pytest.mark.parametrize("name", sorted(STAGED_CUTS))
def test_cuts_of_broken_trees_are_pinned(name):
    K, rows, _ = BROKEN[name]
    tree = make_tree(K, rows)
    if STAGED_CUTS[name] is None:
        assert len(to_staged(tree, 1, {0}).nodes()) == 3
    else:
        with pytest.raises(DomainError) as err:
            to_staged(tree, 1, {0})
        assert str(err.value) == STAGED_CUTS[name]


def staged(parent, level, payload):
    return StagedTree(parent=parent, level=level, top_level=max(level.values()), pool=frozenset({0}),
                      payload={i: ClosedInterval(*p) for i, p in payload.items()},
                      space=FiniteChain(5))


FORK = ({0: None, 1: 0, 2: 0}, {0: 0, 1: 1, 2: 1})
PATH = ({5: None, 3: 5, 1: 3}, {5: 0, 3: 1, 1: 2})  # the child comes first in id order
STAGED_PAYLOADS = {
    "child-outside": (FORK, {0: (0, 4), 1: (0, 2), 2: (2, 9)},
                      "9 is not a point of FiniteChain(size=5, labels=None)"),
    "parent-hi-outside": (PATH, {5: (0, 4), 3: (0, 7), 1: (0, 2)},
                          "7 is not a point of FiniteChain(size=5, labels=None)"),
    "parent-lo-outside": (PATH, {5: (0, 4), 3: (-1, 4), 1: (0, 2)},
                          "-1 is not a point of FiniteChain(size=5, labels=None)"),
    "escape-before-parent-hi": (PATH, {5: (0, 4), 3: (1, 7), 1: (0, 2)}, "payload of 1 escapes its parent"),
    "reversed": (FORK, {0: (0, 4), 1: (2, 0), 2: (2, 4)}, "payload of 1 out of order"),
    "trivial": (FORK, {0: (0, 4), 1: (0, 0), 2: (0, 4)}, "payload of 1 is trivial"),
    "root-not-whole": (FORK, {0: (0, 3), 1: (0, 2), 2: (2, 3)}, "root payload must be the whole space"),
    "escapes": (({0: None, 1: 0, 2: 0, 3: 1, 4: 1}, {0: 0, 1: 1, 2: 1, 3: 2, 4: 2}),
                {0: (0, 4), 1: (0, 2), 2: (2, 4), 3: (0, 1), 4: (1, 3)}, "payload of 4 escapes its parent"),
    "overlap": (FORK, {0: (0, 4), 1: (0, 3), 2: (2, 4)}, "same-level payloads of 1 and 2 overlap nontrivially"),
}


@pytest.mark.parametrize("name", sorted(STAGED_PAYLOADS))
def test_staged_payload_errors_are_pinned(name):
    (parent, level), payload, want = STAGED_PAYLOADS[name]
    with pytest.raises(DomainError) as err:
        staged(parent, level, payload).validate()
    assert str(err.value) == want


def leftish(space, iv):
    return iv.lo + 1


def test_custom_split_tree_is_pinned():
    tree = build_tree(FiniteChain(6), 100, split=leftish)
    assert digest(tree) == "c30de97b2f0bb1686311c8e2e12c91156832caf74b7f22e7a14caf21a9c8ddc4"
    assert verdict_rows(verify_admissible(tree)) == (True, {}, [])


@pytest.mark.parametrize("split, finite, ordinal", [
    (lambda K, iv: iv.lo, "split callback returned 0, not strictly inside",
     "split callback returned 0, not strictly inside"),
    (lambda K, iv: iv.hi, "split callback returned 5, not strictly inside",
     "split callback returned w, not strictly inside"),
    (lambda K, iv: 99, "99 is not a point of FiniteChain(size=6, labels=None)",
     "99 is not a point of OrdinalInterval(alpha=Ordinal(terms=((1, 1),)))"),
    (lambda K, iv: "3", "'3' is not a point of FiniteChain(size=6, labels=None)",
     "'3' is not a point of OrdinalInterval(alpha=Ordinal(terms=((1, 1),)))"),
    (lambda K, iv: parse("w+5"),
     "Ordinal(terms=((1, 1), (0, 5))) is not a point of FiniteChain(size=6, labels=None)",
     "Ordinal(terms=((1, 1), (0, 5))) is not a point of OrdinalInterval(alpha=Ordinal(terms=((1, 1),)))"),
], ids=["low-end", "high-end", "outside", "string", "ordinal-outside"])
def test_bad_split_callbacks_raise_pinned_errors(split, finite, ordinal):
    for K, want in ((FiniteChain(6), finite), (OrdinalInterval(W), ordinal)):
        with pytest.raises(DomainError) as err:
            build_tree(K, 100, split=split)
        assert str(err.value) == want


@pytest.mark.parametrize("kind", sorted(SPACES))
@pytest.mark.parametrize("split", [None, "callback"])
def test_each_endpoint_is_validated_once(monkeypatch, kind, split):
    """Building and verifying an n-node tree validates at most 2n points
    of its space plus a constant: one per endpoint in the verifier, and
    none in the builder unless a split callback returns the point."""
    K = SPACES[kind]
    calls = []
    validate = sp.validate_point

    def counting(space, p):
        if space is K:
            calls.append(p)
        return validate(space, p)

    monkeypatch.setattr(sp, "validate_point", counting)
    rule = None if split is None else (lambda space, iv: space.split(iv.lo, iv.hi, space.count(iv.lo, iv.hi)))
    tree = build_tree(K, 301, split=rule)
    assert verify_admissible(tree).ok
    n = len(tree.nodes)
    assert n == 301
    expanded = sum(1 for node in tree.nodes.values() if node.children)
    assert len(calls) <= 2 * n + (expanded if split else 0) + 8
