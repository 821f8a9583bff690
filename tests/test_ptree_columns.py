"""Partition trees kept as columns, held to the node records they replace.

`reference_build_tree` is the node-by-node construction the columns
replaced: a breadth-first queue that makes one `TreeNode` and one
`ClosedInterval` per node. A built tree's `nodes` view must equal its
dict, and `verify_admissible` on a column tree must give the verdict it
gives on the same tree assembled from that dict of nodes, and the
verdict of the definitional oracle.
"""

import pickle
import random
from collections import deque

import pytest
from hypothesis import given, settings

from ordfrag import ordinal as ord_
from ordfrag import space as sp
from ordfrag.bruteforce import definitional_verify_admissible
from ordfrag.ordinal import parse
from ordfrag.ptree import PartitionTree, TreeNode, build_tree, tree_from_json, tree_to_json, verify_admissible
from ordfrag.space import ClosedInterval, FiniteChain, OrderSum, OrdinalInterval, SplitChain
from test_ptree import mutated_trees, outcome
from test_ptree_pins import MUTANT_DIGESTS, seeded_mutants


def reference_build_tree(space, budget: int) -> dict:
    """id -> TreeNode of the tree `build_tree(space, budget)` makes, built
    node by node from a breadth-first queue of (id, interval, level,
    parent): each node becomes a TreeNode when it leaves the queue."""
    queue = deque([(0, sp.whole_interval(space), ord_.ZERO, None)])
    nodes = {}
    next_id = 1
    while queue and next_id + 2 <= budget:
        nid, iv, lvl, parent = queue.popleft()
        cnt = space.count(iv.lo, iv.hi)
        if cnt <= 2:
            nodes[nid] = TreeNode(nid, iv, lvl, parent)
            continue
        w = space.split(iv.lo, iv.hi, cnt)
        succ = ord_.add(lvl, ord_.ONE)
        queue.append((next_id, ClosedInterval(iv.lo, w), succ, nid))
        queue.append((next_id + 1, ClosedInterval(w, iv.hi), succ, nid))
        nodes[nid] = TreeNode(nid, iv, lvl, parent, (next_id, next_id + 1))
        next_id += 2
    while queue:  # the budget is spent: the rest are leaves
        nid, iv, lvl, parent = queue.popleft()
        nodes[nid] = TreeNode(nid, iv, lvl, parent)
    return nodes


def seeded_space(kind: str, rng: random.Random):
    if kind == "finite":
        return FiniteChain(rng.randint(2, 90))
    if kind == "split":
        return SplitChain(rng.randint(1, 40))
    alpha = ord_.Ordinal(((rng.randint(1, 3), rng.randint(1, 4)), (0, rng.randint(1, 6))))
    if kind == "ordinal":
        return OrdinalInterval(alpha)
    return OrderSum((FiniteChain(rng.randint(1, 9)), OrdinalInterval(alpha), SplitChain(rng.randint(1, 5))))


KINDS = ("finite", "split", "ordinal", "sum")


@pytest.mark.parametrize("kind", KINDS)
def test_the_node_view_equals_the_reference_construction(kind):
    """Over seeded spaces and budgets: 1 to 3, random ones, and one far
    past what a finite space can use, so that the queue empties before
    the budget does."""
    for seed in range(12):
        rng = random.Random(f"{kind}:{seed}")
        K = seeded_space(kind, rng)
        for budget in (1, 2, 3, rng.randint(4, 40), rng.randint(41, 400), 5000):
            if sp.space_size(K) == 1:
                continue
            tree, want = build_tree(K, budget), reference_build_tree(K, budget)
            assert len(tree.nodes) == len(want)
            assert list(tree.nodes) == list(want)
            assert tree.nodes == want and dict(tree.nodes) == want
            assert list(tree.nodes.items()) == list(want.items())
            assert tree.nodes[0] == want[0] and 0 in tree.nodes and len(want) not in tree.nodes


def test_the_view_is_lazy_read_only_and_keeps_what_it_built():
    tree = build_tree(OrdinalInterval(parse("w^2*3+5")), 61)
    view = tree.nodes
    assert len(view) == 61 and view._built == {}  # len() builds no node
    assert 60 in view and 61 not in view and 1.0 in view and view._built == {}
    node = view[7]
    assert view[7] is node and list(view._built) == [7]
    with pytest.raises(KeyError):
        view[61]
    assert view.get(61) is None
    with pytest.raises(TypeError):
        view[3] = node
    assert list(view.values()) == [view[i] for i in range(61)]
    assert view[7] is node  # a full walk keeps the nodes already built
    assert tree.nodes is view


def test_a_dict_fixture_keeps_its_own_nodes():
    """`PartitionTree(space, nodes, root)` derives the columns from the
    dict once, and its view hands back the dict's own node objects in id
    order, whatever order the dict was filled in."""
    built = build_tree(FiniteChain(9), 15)
    nodes = {i: built.nodes[i] for i in sorted(built.nodes, reverse=True)}
    tree = PartitionTree(built.space, nodes, 0, 15)
    assert list(tree.nodes) == list(range(15))
    assert all(tree.nodes[i] is nodes[i] for i in nodes)
    assert tree.columns == built.columns._replace(ids=list(range(15)))
    assert tree == built


def column_copy(tree):
    """The same tree with its columns only: pickling drops the view, so
    the copy's nodes are built from the columns."""
    copy = pickle.loads(pickle.dumps(tree))
    assert copy.nodes == tree.nodes
    return copy


def same_verdicts(tree):
    """Whole outcomes on the column tree, on the tree assembled from its
    dict of nodes and from the oracle agree, and so do those of a
    column-only copy of the dict tree."""
    from_dict = PartitionTree(tree.space, dict(tree.nodes), tree.root_id, tree.budget)
    want = outcome(definitional_verify_admissible, tree)
    assert outcome(verify_admissible, tree) == want
    assert outcome(verify_admissible, from_dict) == want
    assert outcome(verify_admissible, column_copy(from_dict)) == want
    return want


@pytest.mark.parametrize("space_name, kind", sorted(MUTANT_DIGESTS))
def test_seeded_mutants_verify_alike_as_columns_and_as_nodes(space_name, kind):
    for tree in seeded_mutants(space_name, kind):
        same_verdicts(tree)


@given(mutated_trees())
@settings(max_examples=200, deadline=None)
def test_hypothesis_trees_verify_alike_as_columns_and_as_nodes(tree):
    same_verdicts(tree)


@pytest.mark.parametrize("fault", ["repeated-child", "float-child", "missing-parent"])
def test_malformed_node_dicts_verify_alike_as_columns(fault):
    """Node dicts that no rows can describe: a child listed twice, a
    child id 1.0 that only equals a node's id, and a parent id that is
    no node. Their columns keep what the nodes say."""
    t = build_tree(FiniteChain(5), 3)
    nodes = dict(t.nodes)
    root = nodes[0]
    if fault == "repeated-child":
        nodes[0] = TreeNode(0, root.interval, root.level, None, (1, 1, 2))
    elif fault == "float-child":
        nodes[0] = TreeNode(0, root.interval, root.level, None, (1.0, 2))
    else:
        n = nodes[1]
        nodes[1] = TreeNode(1, n.interval, n.level, 99)
    tree = PartitionTree(t.space, nodes, 0)
    assert tree.columns.children[0] == nodes[0].children and tree.columns.parent[1] == nodes[1].parent
    verdict = same_verdicts(tree)
    assert verdict[0] is (fault == "float-child")  # 1.0 == 1 names the node
    assert outcome(verify_admissible, column_copy(tree)) == verdict


def test_a_decoded_tree_verifies_on_its_codec_keys():
    """A decoded tree hands its codec's keys to `verify_admissible`, which
    then validates nothing; a copy, whose points are new objects, has no
    keys and validates its endpoints itself."""
    tree = tree_from_json(tree_to_json(build_tree(SplitChain(40), 61)))
    assert tree._keys
    copy = pickle.loads(pickle.dumps(tree))
    assert copy._keys is None
    assert verify_admissible(copy) == verify_admissible(tree)
