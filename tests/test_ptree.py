"""Partition tree construction, verification and staging."""

import bisect
import copy
import dataclasses
import itertools
import pickle
import random
import re
import time
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from ordfrag import generators as gen
from ordfrag import ptree
from ordfrag import space as sp
from ordfrag.bruteforce import definitional_verify_admissible
from ordfrag.errors import DomainError, InsufficientMaterialization, plain_int, read_int, read_kind, read_list
from ordfrag.ordinal import ZERO, add, from_int, parse
from ordfrag.ptree import (
    PartitionTree,
    StagedTree,
    TreeNode,
    Verdict,
    Violation,
    build_tree,
    make_tree,
    staged_from_json,
    staged_to_dot,
    staged_to_json,
    to_staged,
    tree_from_json,
    tree_to_dot,
    tree_to_json,
    verify_admissible,
)
from ordfrag.space import (
    ClosedInterval,
    FiniteChain,
    OrderSum,
    OrdinalInterval,
    SplitChain,
    render_point,
)
from test_ptree_pins import MUTANT_SPACES
from test_ptree_pins import SPACES as PIN_SPACES

W = parse("w")
W2 = parse("w^2")


def root_of(st):
    """The node of the stage whose parent is None."""
    return next(i for i, up in st.parent.items() if up is None)


def intervals_of(tree):
    K = tree.space
    return sorted(
        (render_point(K, n.interval.lo), render_point(K, n.interval.hi))
        for n in tree.nodes.values()
    )


class TestBuild:
    def test_three_chain(self):
        t = build_tree(FiniteChain(3), 10)
        assert intervals_of(t) == [("0", "1"), ("0", "2"), ("1", "2")]
        root = t.nodes[t.root_id]
        assert root.level == ZERO and root.parent is None
        assert len(root.children) == 2

    def test_omega_budget_seven(self):
        t = build_tree(OrdinalInterval(W), 7)
        assert intervals_of(t) == sorted(
            [("0", "w"), ("0", "1"), ("1", "w"), ("1", "2"), ("2", "w"), ("2", "3"), ("3", "w")]
        )

    def test_omega_squared_budget_three(self):
        t = build_tree(OrdinalInterval(W2), 3)
        assert intervals_of(t) == sorted([("0", "w^2"), ("0", "w"), ("w", "w^2")])

    def test_budget_is_respected_exactly(self):
        for b in [1, 2, 3, 4, 5, 6, 7, 100]:
            t = build_tree(OrdinalInterval(W), b)
            # children come in pairs, so odd budgets fill exactly
            assert len(t.nodes) == b if b % 2 == 1 else len(t.nodes) == b - 1

    def test_finite_tree_saturates(self):
        t = build_tree(FiniteChain(8), 1000)
        # median splits at shared endpoints: 1 + 2 + 4 + 6 nodes, 7 leaves
        assert len(t.nodes) == 13
        leaves = [n for n in t.nodes.values() if not n.children]
        assert len(leaves) == 7
        assert all(n.interval.hi - n.interval.lo == 1 for n in leaves)

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            build_tree(FiniteChain(3), 0)
        with pytest.raises(DomainError):
            build_tree(FiniteChain(1), 5)


class TestTreeNodeRecord:
    """TreeNode is a frozen value: these pin its record semantics."""

    NODE = TreeNode(1, ClosedInterval(ZERO, W), from_int(1), 0, (3, 4))

    @pytest.mark.parametrize("name", ["id", "interval", "level", "parent", "children"])
    def test_fields_cannot_be_assigned(self, name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(self.NODE, name, None)
        assert self.NODE.children == (3, 4)

    def test_equal_values_compare_and_hash_equal(self):
        twin = TreeNode(id=1, interval=ClosedInterval(ZERO, parse("w")), level=add(ZERO, from_int(1)),
                        parent=0, children=(3, 4))
        assert twin == self.NODE and hash(twin) == hash(self.NODE)
        assert TreeNode(1, ClosedInterval(ZERO, W), from_int(1), 0) != self.NODE
        assert len({self.NODE, twin}) == 1

    def test_repr(self):
        assert repr(self.NODE) == (
            "TreeNode(id=1, interval=ClosedInterval(lo=Ordinal(terms=()), hi=Ordinal(terms=((1, 1),))), "
            "level=Ordinal(terms=((0, 1),)), parent=0, children=(3, 4))")
        built = build_tree(OrdinalInterval(W2), 3).nodes[0]
        assert repr(built) == (
            "TreeNode(id=0, interval=ClosedInterval(lo=Ordinal(terms=()), hi=Ordinal(terms=((2, 1),))), "
            "level=Ordinal(terms=()), parent=None, children=(1, 2))")

    def test_replace_pickle_default_and_match(self):
        leaf = TreeNode(2, ClosedInterval(0, 1), ZERO, None)
        assert leaf.children == ()
        assert dataclasses.replace(self.NODE, children=()) == TreeNode(1, ClosedInterval(ZERO, W),
                                                                       from_int(1), 0)
        assert pickle.loads(pickle.dumps(self.NODE)) == self.NODE
        tree = build_tree(FiniteChain(9), 15)
        assert pickle.loads(pickle.dumps(tree)) == tree
        match self.NODE:
            case TreeNode(i, iv, level, parent, kids):
                assert (i, iv.hi, level, parent, kids) == (1, W, from_int(1), 0, (3, 4))
        assert not hasattr(self.NODE, "__dict__")


class TestVerify:
    def test_builder_output_admissible(self):
        rng = random.Random(515)
        menu = [
            FiniteChain(2),
            FiniteChain(37),
            SplitChain(9),
            OrdinalInterval(W),
            OrdinalInterval(parse("w^2*3+5")),
            OrderSum((FiniteChain(5), OrdinalInterval(W), SplitChain(3))),
        ]
        for K in menu:
            for b in [1, 3, rng.randint(4, 60), 121]:
                v = verify_admissible(build_tree(K, b))
                assert v.ok, v.violations

    def test_single_child_rejected(self):
        t = make_tree(FiniteChain(5), [(0, 0, 4, ZERO, None), (1, 0, 2, from_int(1), 0)])
        v = verify_admissible(t)
        assert not v.ok
        assert "binary-split" in v.counts

    def test_sibling_overlap_rejected(self):
        t = make_tree(
            FiniteChain(5),
            [
                (0, 0, 4, ZERO, None),
                (1, 0, 2, from_int(1), 0),
                (2, 1, 4, from_int(1), 0),
            ],
        )
        v = verify_admissible(t)
        assert not v.ok
        assert "level-overlap" in v.counts
        assert "comparability" in v.counts

    def test_equal_interval_child_breaks_reverse_inclusion(self):
        t = make_tree(FiniteChain(5), [(0, 0, 4, ZERO, None), (1, 0, 4, from_int(1), 0)])
        v = verify_admissible(t)
        assert not v.ok
        assert "reverse-inclusion" in v.counts

    def test_two_point_node_must_be_leaf(self):
        t = make_tree(
            FiniteChain(2),
            [(0, 0, 1, ZERO, None), (1, 0, 0, from_int(1), 0), (2, 0, 1, from_int(1), 0)],
        )
        v = verify_admissible(t)
        assert not v.ok
        assert "two-point-leaf" in v.counts
        assert "nontrivial" in v.counts  # the [0,0] child

    def test_root_clause(self):
        t = make_tree(FiniteChain(5), [(0, 1, 4, ZERO, None)])
        v = verify_admissible(t)
        assert not v.ok and "root" in v.counts

    @pytest.mark.parametrize("root_level, child_levels, at_zero", [
        (ZERO, (from_int(1), ZERO), [2]),
        (from_int(1), (ZERO, from_int(2)), [1]),
        (from_int(1), (ZERO, ZERO), [1, 2]),
        (from_int(1), (from_int(2), from_int(2)), []),
    ])
    def test_non_root_nodes_at_level_zero(self, root_level, child_levels, at_zero):
        rows = [(0, 0, 4, root_level, None), (1, 0, 2, child_levels[0], 0),
                (2, 2, 4, child_levels[1], 0)]
        t = make_tree(FiniteChain(5), rows)
        v = verify_admissible(t)
        assert [x.nodes for x in v.violations
                if x.detail == "non-root node at level 0"] == [(i,) for i in at_zero]
        assert v == definitional_verify_admissible(t)

    def test_level_step_clause(self):
        t = make_tree(
            FiniteChain(5),
            [
                (0, 0, 4, ZERO, None),
                (1, 0, 2, from_int(2), 0),
                (2, 2, 4, from_int(2), 0),
            ],
        )
        v = verify_admissible(t)
        assert not v.ok and "level-step" in v.counts

    def test_materialized_limit_level_is_caught(self):
        K = OrdinalInterval(W2)
        t = make_tree(
            K,
            [
                (0, ZERO, W2, ZERO, None),
                (1, ZERO, W, from_int(1), 0),
                (2, W, W2, from_int(1), 0),
                (3, W, parse("w*2"), parse("w"), 2),
            ],
        )
        v = verify_admissible(t)
        assert not v.ok
        assert "limit-intersection" in v.counts

    def test_repeated_row_id_is_refused(self):
        with pytest.raises(DomainError, match="node id 1 is repeated"):
            make_tree(FiniteChain(5), [(0, 0, 4, ZERO, None), (1, 0, 2, from_int(1), 0),
                                       (1, 2, 4, from_int(1), 0)])

    def test_child_listed_twice_is_walked_once(self):
        t = build_tree(FiniteChain(5), 3)
        root = t.nodes[0]
        nodes = dict(t.nodes)
        nodes[0] = TreeNode(0, root.interval, root.level, None, (1, 1, 2))
        v = verify_admissible(PartitionTree(t.space, nodes, 0))
        assert v.counts == {"binary-split": 1}
        assert v == definitional_verify_admissible(PartitionTree(t.space, nodes, 0))

    def test_two_node_cycle_below_the_root_is_unreachable(self, monkeypatch):
        # 3 and 4 are each other's parent and child: the links are
        # mirrored and 0 is the only root, but the walk from it misses both
        rows = [(0, 0, 4, ZERO, None), (1, 0, 2, from_int(1), 0), (2, 2, 4, from_int(1), 0),
                (3, 0, 1, from_int(2), 4), (4, 1, 2, from_int(2), 3)]
        t = make_tree(FiniteChain(5), rows)
        assert (t.nodes[3].children, t.nodes[4].children) == ((4,), (3,))
        walks = _count_walks(monkeypatch)
        want = Verdict(False, (Violation("linkage", (3, 4), "2 nodes unreachable from root"),),
                       {"linkage": 1})
        assert verify_admissible(t) == want
        assert definitional_verify_admissible(t) == want
        assert walks == [5]

    @pytest.mark.parametrize("mutation", ["swap", "whole", "equal", "reversed", "one-point"])
    def test_rising_levels_walk_only_when_the_intervals_ask(self, monkeypatch, mutation):
        """Levels rise on every edge, so reachability needs no walk; the
        pairwise enumeration walks the tree once, and only when an
        interval fails a per-node clause (nontrivial, two-point-leaf or
        binary-split), as each mutation here makes one do."""
        tree = build_tree(FiniteChain(9), 15)
        walks = _count_walks(monkeypatch)
        assert verify_admissible(tree).ok and walks == []
        rows = {i: [i, n.interval.lo, n.interval.hi, n.level, n.parent] for i, n in tree.nodes.items()}
        if mutation == "swap":  # same level, different parents
            rows[3][1:3], rows[5][1:3] = rows[5][1:3], rows[3][1:3]
        elif mutation == "whole":
            rows[4][1:3] = rows[0][1:3]
        elif mutation == "equal":
            rows[6][1:3] = rows[5][1:3]
        elif mutation == "reversed":
            rows[2][1], rows[2][2] = rows[2][2], rows[2][1]
        else:
            rows[7][2] = rows[7][1]
        mutant = make_tree(tree.space, [tuple(r) for r in rows.values()])
        assert all(n.parent is None or n.level > mutant.nodes[n.parent].level
                   for n in mutant.nodes.values())
        fast = verify_admissible(mutant)
        assert walks == [15]
        oracle = definitional_verify_admissible(mutant)
        assert not fast.ok
        assert fast.violations == oracle.violations
        assert list(fast.counts.items()) == list(oracle.counts.items())

    @pytest.mark.parametrize("change", ["float-id", "float-parent", "bool-id", "float-child"])
    def test_ids_that_only_equal_positions_keep_their_verdicts(self, change):
        """An id, parent or child such as 1.0 or True equals a position
        without being an int, and keeps the verdict the oracle gives.
        tree_from_json refuses such rows, so make_tree assembles them."""
        tree = build_tree(FiniteChain(6), 9)
        for swap in (False, True):
            rows = [[n.id, n.interval.lo, n.interval.hi, n.level, n.parent]
                    for _, n in sorted(tree.nodes.items())]
            if swap:  # intervals of two same-level nodes under different parents
                a, b = rows[3], rows[5]
                a[1:3], b[1:3] = b[1:3], a[1:3]
            if change == "float-id":
                rows[1][0] = 1.0
            elif change == "float-parent":
                rows[3][4] = float(rows[3][4])
            elif change == "bool-id":
                rows[1][0] = True
            t = make_tree(tree.space, rows)
            if change == "float-child":
                root = t.nodes[0]
                nodes = dict(t.nodes)
                nodes[0] = TreeNode(0, root.interval, root.level, None, (1.0, 2))
                t = PartitionTree(t.space, nodes, 0)
            fast, oracle = verify_admissible(t), definitional_verify_admissible(t)
            assert fast == oracle
            assert fast.ok != swap

    def test_missing_parent_is_a_linkage_violation(self):
        # make_tree refuses such rows, so the tree is assembled by hand
        t = build_tree(FiniteChain(5), 3)
        nodes = dict(t.nodes)
        n = nodes[1]
        nodes[1] = TreeNode(1, n.interval, n.level, 99)
        t = PartitionTree(t.space, nodes, 0)
        want = Verdict(False, (Violation("linkage", (0, 1), "child link not mirrored"),
                               Violation("linkage", (1,), "parent 99 missing")), {"linkage": 2})
        assert verify_admissible(t) == want
        assert definitional_verify_admissible(t) == want

    def test_linkage_violations_short_circuit(self):
        t = PartitionTree(FiniteChain(3), {}, 0)
        assert not verify_admissible(t).ok

    def test_pair_report_cap_and_order(self):
        # twenty equal siblings: every pair of them breaks all three pair clauses
        sibs = [3 * k + 7 for k in range(20)]
        rows = [(1000, 0, 4, ZERO, None)] + [(i, 0, 3, from_int(1), 1000) for i in sibs]
        t = make_tree(FiniteChain(5), rows)
        v = verify_admissible(t)
        pairs = list(itertools.combinations(sibs, 2))
        assert v.counts == {"binary-split": 1, "reverse-inclusion": 190,
                            "level-overlap": 190, "comparability": 190}
        for clause in ("reverse-inclusion", "level-overlap", "comparability"):
            assert [x.nodes for x in v.violations if x.clause == clause] == pairs[:100]
        assert [x.clause for x in v.violations][1::100] == ["reverse-inclusion", "level-overlap",
                                                            "comparability"]
        assert v == definitional_verify_admissible(t)


def _count_walks(monkeypatch) -> list[int]:
    """Record the node count of every DFS walk `verify_admissible` makes."""
    walks = []
    walk = ptree._walk

    def counting(row, pos, root):
        walks.append(len(row))
        return walk(row, pos, root)

    monkeypatch.setattr(ptree, "_walk", counting)
    return walks


SMALL_SPACES = (
    FiniteChain(2),
    FiniteChain(7),
    FiniteChain(12),
    SplitChain(5),
    OrdinalInterval(W2),
    OrderSum((FiniteChain(3), OrdinalInterval(W), SplitChain(2))),
)
MUTATIONS = ("level-step", "binary-split", "linkage", "root", "swap", "whole",
             "equal", "one-point", "reversed", "limit-level", "level-shift", "limit-subtree",
             "limit-meet", "outside")
LIMITS = (W, parse("w+1"), parse("w*2"), W2, parse("w^2+w"))


def non_points(K):
    """Values that are not points of K: out-of-range ints, tuples of the
    wrong shape, strings, and ordinals above alpha such as w^3 in w^2."""
    if isinstance(K, FiniteChain):
        return [-1, K.size, K.size + 7, "1"]
    if isinstance(K, SplitChain):
        return [(K.size, 0), (0, 2), (0,), (0, 0, 0), 1, "a"]
    if isinstance(K, OrdinalInterval):
        return [parse("w^3"), add(K.alpha, from_int(1)), 1, "w"]
    return [(len(K.parts), 0), (0, K.parts[0].size), (1, parse("w+1")), (2, (2, 0)), (0,), "a"]


@hst.composite
def mutated_trees(draw):
    """Small built trees with up to three seeded mutations, admissible
    ones included: the five kinds the benchmark applies (level-step,
    binary-split, linkage, root, swapped or widened intervals), equal,
    one-point and reversed intervals and limit levels, and the three
    limit kinds of `test_ptree_pins.seeded_mutants`: every non-root
    level shifted up by one, a limit level L on a node (and on its
    parent too, drawn) and L + k on its descendants k levels down, and
    a limit node under a parent widened to the whole space. The
    `outside` kind puts a value that is not a point of the space at one
    endpoint."""
    K = draw(hst.sampled_from(SMALL_SPACES))
    tree = build_tree(K, draw(hst.integers(1, 41)))
    rows = {i: [i, n.interval.lo, n.interval.hi, n.level, n.parent] for i, n in tree.nodes.items()}
    ids = sorted(rows)
    for kind in draw(hst.lists(hst.sampled_from(MUTATIONS), max_size=3)):
        a, b = draw(hst.sampled_from(ids)), draw(hst.sampled_from(ids))
        parent = rows[a][4]
        if kind == "level-step" and parent is not None:
            rows[a][3] = add(rows[parent][3], from_int(2))
        elif kind == "binary-split" and parent is not None:
            rows[a][2] = rows[parent][2]
        elif kind == "linkage":
            rows[a][4] = b
        elif kind == "root":
            rows[a][3] = ZERO
        elif kind == "swap":
            rows[a][1:3], rows[b][1:3] = rows[b][1:3], rows[a][1:3]
        elif kind == "whole":
            rows[a][1:3] = rows[tree.root_id][1:3]
        elif kind == "equal":
            rows[b][1:3] = rows[a][1:3]
        elif kind == "one-point":
            rows[a][2] = rows[a][1]
        elif kind == "reversed":
            rows[a][1], rows[a][2] = rows[a][2], rows[a][1]
        elif kind == "limit-level":
            rows[a][3] = draw(hst.sampled_from([W, parse("w+1"), W2]))
        elif kind == "level-shift":
            for r in rows.values():
                if r[4] is not None:
                    r[3] = add(r[3], from_int(1))
        elif kind == "limit-subtree":
            limit, todo, seen = draw(hst.sampled_from(LIMITS)), [(a, 0)], set()
            if parent is not None and draw(hst.booleans()):  # L repeats on the edge above a
                rows[parent][3] = limit
            while todo:
                i, k = todo.pop()
                if i not in seen:
                    seen.add(i)
                    rows[i][3] = add(limit, from_int(k))
                    todo.extend((c, k + 1) for c, r in rows.items() if r[4] == i)
        elif kind == "limit-meet" and parent is not None and rows[parent][4] is not None:
            rows[parent][1:3] = rows[tree.root_id][1:3]
            rows[a][1:3] = rows[draw(hst.sampled_from([rows[parent][4], tree.root_id]))][1:3]
            rows[a][3] = draw(hst.sampled_from(LIMITS))
        elif kind == "outside":
            rows[a][draw(hst.sampled_from([1, 2]))] = draw(hst.sampled_from(non_points(K)))
    return make_tree(K, [tuple(r) for r in rows.values()], tree.budget)


def outcome(verify, tree):
    """The whole outcome of verifying a tree: the verdict, with its
    counts in order, or the text of the DomainError raised for an
    endpoint outside the space."""
    try:
        v = verify(tree)
    except DomainError as err:
        return str(err)
    return v.ok, v.violations, list(v.counts.items())


class TestVerifyPairwiseClauses:
    @pytest.mark.parametrize("fault", [None, "level-step"])
    @pytest.mark.parametrize("K", SMALL_SPACES[1:], ids=lambda K: type(K).__name__)
    def test_admissible_trees_neither_walk_nor_sweep(self, monkeypatch, K, fault):
        """With every per-node interval clause holding and levels rising
        on every edge, the pairwise clauses cannot fail, so the endpoints
        are neither ranked nor swept; a level-step fault that keeps levels
        rising (a leaf at its parent's level + 2) does not change that."""
        tree = build_tree(K, 31)
        if fault:
            rows = {i: [i, n.interval.lo, n.interval.hi, n.level, n.parent]
                    for i, n in tree.nodes.items()}
            leaf = max(i for i, n in tree.nodes.items() if not n.children)
            rows[leaf][3] = add(rows[rows[leaf][4]][3], from_int(2))
            tree = make_tree(K, [tuple(r) for r in rows.values()], tree.budget)
        want = definitional_verify_admissible(tree)

        def refuse(*args):
            raise AssertionError("the pairwise clauses were enumerated")

        for name in ("_pair_clauses", "_walk", "_crossing_pairs", "_level_overlaps"):
            monkeypatch.setattr(ptree, name, refuse)
        got = verify_admissible(tree)
        assert got == want
        assert got.counts == ({} if fault is None else {"level-step": 1})

    @pytest.mark.parametrize("case", ["unary", "two-point", "three-children"])
    def test_laminar_trees_failing_only_per_node_clauses_keep_their_verdicts(self, monkeypatch,
                                                                             case):
        """Trees whose intervals are nested or share at most a point, but
        that fail a per-node interval clause, take the enumeration path
        and give the oracle's verdict: a unary node strictly inside its
        parent, a two-point node split into its two points, and a node
        with three children."""
        if case == "unary":
            rows = [(0, 0, 4, ZERO, None), (1, 0, 2, from_int(1), 0)]
            want = {"binary-split": 1}
        elif case == "two-point":  # the one-point children are nontrivial faults too
            rows = [(0, 0, 1, ZERO, None), (1, 0, 0, from_int(1), 0), (2, 1, 1, from_int(1), 0)]
            want = {"nontrivial": 2, "two-point-leaf": 1, "binary-split": 1}
        else:
            rows = [(0, 0, 6, ZERO, None), (1, 0, 2, from_int(1), 0), (2, 2, 4, from_int(1), 0),
                    (3, 4, 6, from_int(1), 0)]
            want = {"binary-split": 1}
        tree = make_tree(FiniteChain(rows[0][2] + 1), rows)
        walks = _count_walks(monkeypatch)
        got = verify_admissible(tree)
        assert got == definitional_verify_admissible(tree)
        assert got.counts == want
        assert walks == [len(rows)]


class TestBrokenMirroring:
    @pytest.mark.parametrize("fault", ["foreign-child", "dropped-child", "missing-parent"])
    @pytest.mark.parametrize("space_name", sorted(MUTANT_SPACES))
    def test_links_that_do_not_mirror_are_linkage_verdicts(self, space_name, fault):
        """Built trees whose TreeNodes are replaced so that the child and
        parent links disagree, which rows passed through make_tree never
        do: a child tuple naming a node whose parent is elsewhere, a node
        dropped from its parent's children, or a parent id that is no
        node. Each verdict is the oracle's and counts `linkage`."""
        K = MUTANT_SPACES[space_name]
        for seed in range(9):
            rng = random.Random(f"{space_name}:{fault}:{seed}")
            tree = build_tree(K, rng.randint(3, 61))
            nodes = dict(tree.nodes)
            if fault == "foreign-child":
                a, c = rng.choice([(a, c) for a in nodes for c, n in nodes.items()
                                   if n.parent not in (None, a) and c != a])
                n = nodes[a]
                nodes[a] = TreeNode(a, n.interval, n.level, n.parent, n.children + (c,))
            elif fault == "dropped-child":
                a = rng.choice([i for i, n in nodes.items() if n.children])
                n = nodes[a]
                drop = rng.choice(n.children)
                nodes[a] = TreeNode(a, n.interval, n.level, n.parent,
                                    tuple(c for c in n.children if c != drop))
            else:
                c = rng.choice([i for i in nodes if i != tree.root_id])
                n = nodes[c]
                nodes[c] = TreeNode(c, n.interval, n.level, max(nodes) + rng.randint(1, 5),
                                    n.children)
            mutant = PartitionTree(K, nodes, tree.root_id, tree.budget)
            got = verify_admissible(mutant)
            assert got == definitional_verify_admissible(mutant)
            assert "linkage" in got.counts


class TestVerifyAgainstDefinitionalOracle:
    @given(mutated_trees())
    @settings(max_examples=300, deadline=None)
    def test_whole_verdicts_agree(self, tree):
        assert outcome(verify_admissible, tree) == outcome(definitional_verify_admissible, tree)


def whole_tree_pair_clauses(lo, hi, lvl, par, times, nested, split_faults):
    """`ptree._pair_clauses` as it enumerated before it marked damaged
    nodes, kept as the differential reference: every node bisects every
    piece of its root path that it does not join, and every node
    queries two max trees over all earlier nodes in the sweep.
    `split_faults` is not read."""
    logs = {clause: ptree._PairLog() for clause in ptree._PAIR_CLAUSES}
    if not nested:
        tin, tout = times()
        n = len(lo)
        inclusion, comparability = logs["reverse-inclusion"], logs["comparability"]
        path, pieces = [], []  # pieces: (start in path, lows, -highs)
        for v in sorted(range(n), key=tin.__getitem__):
            p = par[v]
            while path and path[-1] != p:
                path.pop()
                _start, lows, neg_highs = pieces[-1]
                lows.pop()
                neg_highs.pop()
                if not lows:
                    pieces.pop()
            joins = p >= 0 and lo[p] <= lo[v] and hi[v] <= hi[p] and (lo[p] < lo[v] or hi[v] < hi[p])
            for start, lows, neg_highs in pieces[:-1] if joins else pieces:
                cut = min(bisect.bisect_right(lows, lo[v]), bisect.bisect_right(neg_highs, -hi[v]))
                for k in range(cut, len(lows)):
                    inclusion.add(path[start + k], v)
                if cut and lows[cut - 1] == lo[v] and neg_highs[cut - 1] == -hi[v]:
                    inclusion.add(path[start + cut - 1], v)
            if not joins:
                pieces.append((len(path), [], []))
            path.append(v)
            pieces[-1][1].append(lo[v])
            pieces[-1][2].append(-hi[v])
        by_tout = sorted(range(n), key=tout.__getitem__)
        by_tin = sorted(range(n), key=tin.__getitem__)
        touts = [tout[v] for v in by_tout]
        tins = [tin[v] for v in by_tin]
        tout_slot = {v: k for k, v in enumerate(by_tout)}
        tin_slot = {v: k for k, v in enumerate(by_tin)}
        before, after = ptree._MaxTree(n), ptree._MaxTree(n)
        for v in sorted(range(n), key=lambda v: (lo[v], -hi[v], tin[v])):
            reach = lo[v] + 1 if lo[v] < hi[v] else hi[v]
            met = [by_tout[k] for k in before.reaching(0, bisect.bisect_left(touts, tin[v]), reach)]
            met += [by_tin[k] for k in after.reaching(bisect.bisect_right(tins, tout[v]), n, reach)]
            for u in met:
                if (lo[u] <= lo[v] and hi[v] <= hi[u]) or (lo[v] <= lo[u] and hi[u] <= hi[v]):
                    inclusion.add(u, v)
                if max(lo[u], lo[v]) < min(hi[u], hi[v]):
                    comparability.add(u, v)
            before.raise_to(tout_slot[v], hi[v])
            after.raise_to(tin_slot[v], hi[v])
    ptree._level_overlaps(lo, hi, lvl, logs["level-overlap"])
    return {clause: log.result() for clause, log in logs.items()}


TREE_VERIFY_MUTATIONS = ("level-step", "binary-split", "linkage", "root", "reverse-inclusion")


def tree_verify_mutant(rng, tree, kinds):
    """A copy of `tree` with each named mutation applied in turn, as the
    tree-verify benchmark applies one: a level two above the parent's, a
    left child widened to its parent's high end, a parent link turned
    back to a child, a second level-0 node, and two same-level intervals
    under different parents swapped (or, with no such pair, one widened
    to the whole space). Nodes are chosen on the unmutated tree."""
    K, nodes = tree.space, tree.nodes
    rows = {i: [i, n.interval.lo, n.interval.hi, n.level, n.parent] for i, n in nodes.items()}
    non_root = [i for i, n in nodes.items() if n.parent is not None]
    for kind in kinds:
        if kind == "level-step":
            i = rng.choice(non_root)
            rows[i][3] = add(nodes[nodes[i].parent].level, from_int(2))
        elif kind == "binary-split":
            i = rng.choice([i for i, n in nodes.items() if n.children])
            a = min(nodes[i].children, key=lambda c: K.key(nodes[c].interval.lo))
            rows[a][2] = nodes[i].interval.hi
        elif kind == "linkage":
            internal = [i for i in non_root if nodes[i].children]
            if internal:
                i = rng.choice(internal)
                rows[i][4] = nodes[i].children[0]
        elif kind == "root":
            rows[rng.choice(non_root)][3] = ZERO
        else:
            a = rng.choice(non_root)
            others = [b for b in non_root
                      if nodes[b].level == nodes[a].level and nodes[b].parent != nodes[a].parent]
            if others:
                b = rng.choice(others)
                rows[a][1:3], rows[b][1:3] = rows[b][1:3], rows[a][1:3]
            else:
                rows[a][1:3] = rows[tree.root_id][1:3]
    return make_tree(K, [tuple(r) for r in rows.values()], tree.budget)


def damaged_nodes(tree) -> set:
    """The nodes whose interval is not proper or that lie below a node
    failing binary-split, read off the tree through order keys and
    parent links (a cycle ends the climb)."""
    nodes, key = tree.nodes, tree.space.key

    def splits(i):
        kids = nodes[i].children
        if not kids:
            return True
        if len(kids) != 2:
            return False
        a, b = sorted(kids, key=lambda c: key(nodes[c].interval.lo))
        p, l, r = nodes[i].interval, nodes[a].interval, nodes[b].interval
        return key(p.lo) == key(l.lo) < key(l.hi) == key(r.lo) < key(r.hi) == key(p.hi)

    damaged = set()
    for i, n in nodes.items():
        hurt, seen, q = key(n.interval.lo) >= key(n.interval.hi), {i}, n.parent
        while not hurt and q in nodes and q not in seen:
            hurt = not splits(q)
            seen.add(q)
            q = nodes[q].parent
        if hurt:
            damaged.add(i)
    return damaged


class TestDamagedSweep:
    @pytest.mark.parametrize("space_name", sorted(PIN_SPACES))
    def test_sweep_matches_the_whole_tree_enumeration(self, monkeypatch, space_name):
        """Seeded single and double mutations of the five tree-verify
        kinds: every `_pair_clauses` call gives the whole-tree
        enumeration's counts and first pairs for every clause."""
        K = PIN_SPACES[space_name]
        sweep, compared = ptree._pair_clauses, []

        def both(*args):
            got = sweep(*args)
            assert got == whole_tree_pair_clauses(*args)
            compared.append(args[5])  # nested: only same-level pairs are enumerated
            return got

        monkeypatch.setattr(ptree, "_pair_clauses", both)
        for kind in TREE_VERIFY_MUTATIONS:
            for seed in range(8):
                rng = random.Random(f"{space_name}:{kind}:{seed}")
                kinds = [kind] + [rng.choice(TREE_VERIFY_MUTATIONS)] * (seed % 2)
                tree = tree_verify_mutant(rng, build_tree(K, rng.randint(31, 301)), kinds)
                assert not verify_admissible(tree).ok
        assert compared.count(False) >= 12

    @given(mutated_trees())
    @settings(max_examples=300, deadline=None)
    def test_every_violating_pair_has_a_damaged_end(self, tree):
        """The oracle lists every pair on these small trees (41 nodes at
        most; a tree with a clause past the report cap of 100 is
        skipped): each
        reverse-inclusion and comparability pair, and each level-overlap
        pair when levels rise on every edge, has a damaged end."""
        try:
            verdict = definitional_verify_admissible(tree)
        except DomainError:
            return
        nodes = tree.nodes
        rising = all(n.parent not in nodes or n.level > nodes[n.parent].level
                     for n in nodes.values())
        clauses = {"reverse-inclusion", "comparability"} | ({"level-overlap"} if rising else set())
        pairs = [x.nodes for x in verdict.violations if x.clause in clauses]
        assume(all(verdict.counts.get(c, 0) <= 100 for c in clauses))
        damaged = damaged_nodes(tree) if pairs else set()
        for u, v in pairs:
            assert u in damaged or v in damaged, (u, v)

    def test_only_damaged_nodes_query_the_trees_over_all_nodes(self, monkeypatch):
        """A binary-split mutant of a 601-node tree damages the subtree
        below one node: only those nodes query the two max trees that
        every node is raised into, and the verdict is unchanged."""
        K = PIN_SPACES["finite"]
        tree = build_tree(K, 601)
        i = max(i for i, n in tree.nodes.items() if n.children)  # a node of the last split level
        i = tree.nodes[tree.nodes[i].parent].parent
        left = min(tree.nodes[i].children, key=lambda c: tree.nodes[c].interval.lo)
        rows = {j: [j, n.interval.lo, n.interval.hi, n.level, n.parent] for j, n in tree.nodes.items()}
        rows[left][2] = tree.nodes[i].interval.hi
        mutant = make_tree(K, [tuple(r) for r in rows.values()], tree.budget)
        damaged = damaged_nodes(mutant)
        assert 2 <= len(damaged) <= 14
        raised, queried = {}, {}
        raise_to, reaching = ptree._MaxTree.raise_to, ptree._MaxTree.reaching

        def counting_raise(self, slot, value):
            raised[id(self)] = raised.get(id(self), 0) + 1
            return raise_to(self, slot, value)

        def counting_reach(self, a, b, threshold):
            queried[id(self)] = queried.get(id(self), 0) + 1
            return reaching(self, a, b, threshold)

        monkeypatch.setattr(ptree._MaxTree, "raise_to", counting_raise)
        monkeypatch.setattr(ptree._MaxTree, "reaching", counting_reach)
        verdict = verify_admissible(mutant)
        assert verdict == definitional_verify_admissible(mutant)
        assert "binary-split" in verdict.counts
        whole = [t for t, k in raised.items() if k == len(mutant.nodes)]
        assert len(whole) == 2
        assert sum(queried.get(t, 0) for t in whole) <= 2 * len(damaged)
        assert sum(queried.values()) < len(mutant.nodes)  # the whole-tree sweep made 2n


def comb_rows(n):
    """An admissible comb over FiniteChain(n + 1) with 2n - 1 nodes:
    the spine [k, n] splits into the leaf [k, k + 1] and the spine [k + 1, n]."""
    rows = [(0, 0, n, ZERO, None)]
    spine = 0
    for k in range(n - 1):
        rows.append((2 * k + 1, k, k + 1, from_int(k + 1), spine))
        rows.append((2 * k + 2, k + 1, n, from_int(k + 1), spine))
        spine = 2 * k + 2
    return rows


class TestVerifyMemory:
    @pytest.mark.parametrize("make", [
        lambda: build_tree(FiniteChain(20001), 20000),
        lambda: make_tree(FiniteChain(1002), comb_rows(1001)),
    ], ids=["finite-20000", "comb-2001"])
    def test_large_admissible_trees_verify_in_bounded_memory(self, make):
        tree = make()
        assert len(tree.nodes) in (19999, 2001)
        tracemalloc.start()
        try:
            verdict = verify_admissible(tree)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verdict.ok, verdict.violations
        assert peak < 64 * 2**20


class TestStaging:
    def test_finite_chain_stage(self):
        t = build_tree(FiniteChain(8), 100)
        st = to_staged(t, 2, {0, 1})
        assert len(st.nodes()) == 7
        assert st.tops() == [3, 4, 5, 6]
        assert st.level[root_of(st)] == 0
        assert st.has_designated_limit
        st.validate()

    def test_single_node_stage(self):
        t = build_tree(FiniteChain(8), 100)
        st = to_staged(t, 0, set())
        assert len(st.nodes()) == 1
        assert not st.has_designated_limit  # a single level is never a limit stage

    def test_pool_must_sit_below_top(self):
        t = build_tree(FiniteChain(8), 100)
        with pytest.raises(DomainError):
            to_staged(t, 2, {0, 2})
        with pytest.raises(DomainError):
            to_staged(t, 0, {0})

    def test_a_cut_above_the_tree_is_refused_at_once(self):
        """Nodes are grouped by the levels the tree has, so a top level
        far above its deepest node costs nothing per level in between;
        an unexpanded wide node is still refused before the empty top."""
        t = build_tree(FiniteChain(8), 100)
        start = time.perf_counter()
        for m in (5, 10**12):
            with pytest.raises(DomainError, match=f"tree has no node at the top level {m}$"):
                to_staged(t, m, {0, 3})
        assert time.perf_counter() - start < 0.5
        with pytest.raises(InsufficientMaterialization, match="node 4 at level 2 is unexpanded"):
            to_staged(build_tree(FiniteChain(8), 7), 10**12, {0})

    @pytest.mark.parametrize("m", [0, 1])
    def test_cut_node_whose_parent_lies_outside_the_cut(self, m):
        # a level-3 node relabelled to level 0 sits in every cut, its parent in none below 2
        t = build_tree(FiniteChain(16), 29)
        node = t.nodes[min(i for i, n in t.nodes.items() if n.level == from_int(3))]
        nodes = dict(t.nodes)
        nodes[node.id] = TreeNode(node.id, node.interval, ZERO, node.parent, node.children)
        with pytest.raises(DomainError) as err:
            to_staged(PartitionTree(t.space, nodes, t.root_id), m, set(range(m)))
        assert str(err.value) == f"parent {node.parent} of node {node.id} lies outside the cut at level {m}"

    def test_top_level_without_nodes_is_refused(self):
        t = build_tree(FiniteChain(16), 64)
        deepest = max(n.level for n in t.nodes.values()).as_int()
        assert len(to_staged(t, deepest, {0}).tops()) > 0
        for m in (deepest + 1, 30):
            with pytest.raises(DomainError) as err:
                to_staged(t, m, {0})
            assert str(err.value) == f"tree has no node at the top level {m}"

    def test_unexpanded_frontier_blocks_staging(self):
        t = build_tree(OrdinalInterval(W), 5)
        with pytest.raises(InsufficientMaterialization):
            to_staged(t, 3, {0, 1})
        st = to_staged(t, 2, {1})
        assert len(st.nodes()) == 5

    def test_dead_branches_are_fine(self):
        # FiniteChain(3): level 2 exists only under the wider child
        t = build_tree(FiniteChain(3), 100)
        st = to_staged(t, 1, {0})
        assert len(st.tops()) == 2

    def test_origin_maps_back(self):
        t = build_tree(FiniteChain(8), 100)
        st = to_staged(t, 2, {0, 1})
        for new, old in st.origin.items():
            assert st.payload[new] == t.nodes[old].interval

    def test_navigation_helpers(self):
        t = build_tree(FiniteChain(8), 100)
        st = to_staged(t, 2, {0, 1})
        x = st.tops()[0]
        assert st.ancestor_at(x, 0) == root_of(st)
        assert st.level[st.ancestor_at(x, 1)] == 1
        seg = st.branch_segment(x, 0)
        assert seg[0] == root_of(st) and seg[-1] == x and len(seg) == 3
        a, b = st.tops()[0], st.tops()[-1]
        assert st.meet(a, b) == root_of(st)
        sibs = st.children(st.ancestor_at(x, 1))
        if len(sibs) == 2:
            assert st.meet(sibs[0], sibs[1]) == st.ancestor_at(x, 1)

    def test_validate_catches_payload_overlap(self):
        st = StagedTree(
            parent={0: None, 1: 0, 2: 0},
            level={0: 0, 1: 1, 2: 1},
            top_level=1,
            pool=frozenset({0}),
            payload={
                0: ClosedInterval(0, 4),
                1: ClosedInterval(0, 2),
                2: ClosedInterval(1, 4),
            },
            space=FiniteChain(5),
        )
        with pytest.raises(DomainError):
            st.validate()

    @given(hst.lists(hst.tuples(hst.integers(0, 9), hst.integers(1, 5)), min_size=2, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_validate_names_the_first_overlapping_pair(self, spans):
        K = FiniteChain(16)
        payload = {0: ClosedInterval(0, 15)}
        payload.update({i: ClosedInterval(a, a + w) for i, (a, w) in enumerate(spans, 1)})
        kids = range(1, len(spans) + 1)
        st = StagedTree(
            parent={0: None, **{i: 0 for i in kids}},
            level={0: 0, **{i: 1 for i in kids}},
            top_level=1,
            pool=frozenset({0}),
            payload=payload,
            space=K,
        )
        clash = next(
            ((a, b) for a, b in itertools.combinations(kids, 2)
             if max(payload[a].lo, payload[b].lo) < min(payload[a].hi, payload[b].hi)),
            None,
        )
        if clash is None:
            st.validate()
        else:
            with pytest.raises(DomainError) as err:
                st.validate()
            assert str(err.value) == f"same-level payloads of {clash[0]} and {clash[1]} overlap nontrivially"

    @pytest.mark.parametrize("spans, pair", [
        ({1: (0, 3), 2: (8, 11), 3: (12, 15), 4: (2, 5)}, (1, 4)),
        ({1: (4, 6), 2: (0, 2), 3: (4, 9)}, (1, 3)),
        ({1: (0, 4), 2: (4, 8), 3: (1, 7)}, (1, 3)),
        ({1: (1, 7), 2: (0, 4), 3: (4, 8)}, (1, 2)),
    ], ids=["non-adjacent-ids", "equal-low-ends", "wide-over-two", "wide-first"])
    def test_an_overlap_refusal_names_the_pair_first_overlap_does(self, monkeypatch, spans, pair):
        """Neighbours in low-key order decide same-level overlap, and
        `_first_overlap` names the smallest overlapping pair: here the
        pair in low-key order differs from it, or two low ends tie."""
        K = FiniteChain(16)
        payload = {0: ClosedInterval(0, 15), **{i: ClosedInterval(a, b) for i, (a, b) in spans.items()}}
        st = StagedTree(parent={0: None, **{i: 0 for i in spans}}, level={0: 0, **{i: 1 for i in spans}},
                        top_level=1, pool=frozenset({0}), payload=payload, space=K)
        calls = []
        first_overlap = ptree._first_overlap
        monkeypatch.setattr(ptree, "_first_overlap", lambda *a: calls.append(a) or first_overlap(*a))
        with pytest.raises(DomainError) as err:
            st.validate()
        assert str(err.value) == f"same-level payloads of {pair[0]} and {pair[1]} overlap nontrivially"
        lo, hi = st.payload_keys
        assert len(calls) == 1 and first_overlap(list(spans), lo, hi) == pair

    def test_the_lowest_overlapping_level_is_named(self):
        """Levels 1 and 2 both overlap; level 1 is named, though level 2
        holds the smaller ids."""
        K = FiniteChain(16)
        st = StagedTree(parent={0: None, 5: 0, 6: 0, 1: 5, 2: 5}, level={0: 0, 5: 1, 6: 1, 1: 2, 2: 2},
                        top_level=2, pool=frozenset({0}), space=K,
                        payload={0: ClosedInterval(0, 15), 5: ClosedInterval(0, 8), 6: ClosedInterval(7, 15),
                                 1: ClosedInterval(0, 4), 2: ClosedInterval(2, 8)})
        with pytest.raises(DomainError, match="same-level payloads of 5 and 6 overlap nontrivially"):
            st.validate()

    def test_an_accepted_stage_never_calls_first_overlap(self, monkeypatch):
        calls = []
        monkeypatch.setattr(ptree, "_first_overlap", lambda *a: calls.append(a))
        for doc in staged_corpus():
            staged_from_json(doc).validate()
        assert calls == []

    def test_deep_cut_of_a_4097_chain_is_fast(self):
        t = build_tree(FiniteChain(4097), 10_000)
        start = time.perf_counter()
        st = to_staged(t, 12, set(range(12)))
        assert time.perf_counter() - start < 10
        assert len(st.nodes()) == 8191 and len(st.tops()) == 4096

    def test_validate_catches_limit_claim_on_single_level(self):
        st = StagedTree(parent={0: None}, level={0: 0}, top_level=0, pool=frozenset(), limit_top=True)
        with pytest.raises(DomainError):
            st.validate()


class TestSerialization:
    def test_tree_json_roundtrip(self):
        rng = random.Random(616)
        for K in [FiniteChain(9), OrdinalInterval(W2), SplitChain(4)]:
            t = build_tree(K, rng.choice([3, 15, 41]))
            doc = tree_to_json(t)
            assert doc["v"] == 1
            t2 = tree_from_json(doc)
            assert intervals_of(t2) == intervals_of(t)
            assert verify_admissible(t2).ok

    def test_staged_json_roundtrip(self):
        t = build_tree(FiniteChain(8), 100)
        st = to_staged(t, 2, {0, 1})
        doc = staged_to_json(st)
        st2 = staged_from_json(doc)
        assert st2.parent == st.parent
        assert st2.level == st.level
        assert st2.pool == st.pool
        assert st2.payload == st.payload

    @pytest.mark.parametrize("field,value", [("id", "1"), ("id", 1.0), ("id", True),
                                             ("parent", "0"), ("parent", 0.0), ("parent", True)])
    def test_ids_and_parents_must_be_ints(self, field, value):
        tree = build_tree(FiniteChain(8), 9)
        st = to_staged(tree, 2, {0, 1})
        for doc, decode in ((tree_to_json(tree), tree_from_json), (staged_to_json(st), staged_from_json)):
            doc["nodes"][1][field] = value
            with pytest.raises(DomainError, match=re.escape(f"node row 1: {field} {value!r} is not an int")):
                decode(doc)

    @pytest.mark.parametrize("value", ["no", 0, 1, None])
    def test_limit_top_must_be_a_bool(self, value):
        doc = staged_to_json(to_staged(build_tree(FiniteChain(8), 9), 2, {0, 1}))
        doc["limit_top"] = value
        with pytest.raises(DomainError, match=re.escape(f"limit_top {value!r} is not a bool")):
            staged_from_json(doc)

    def test_a_huge_top_level_is_refused_at_once(self):
        """The pool is compared with the top level, not with a set of
        every level below it, and a top level that holds no node is
        refused after `validate`."""
        m = 10**12
        doc = {"v": 1, "kind": "staged", "top_level": m, "pool": [0, m - 1], "limit_top": True,
               "nodes": [{"id": 0, "parent": None, "level": 0}, {"id": 1, "parent": 0, "level": 1}]}
        start = time.perf_counter()
        with pytest.raises(DomainError) as err:
            staged_from_json(doc)
        assert str(err.value) == f"staged tree has no node at the top level {m}"
        doc["pool"] = [m]
        with pytest.raises(DomainError) as err:
            staged_from_json(doc)
        assert str(err.value) == f"pool [{m}] must lie strictly below the top level {m}"
        assert time.perf_counter() - start < 0.5

    def test_dot_outputs(self):
        t = build_tree(FiniteChain(4), 100)
        d = tree_to_dot(t)
        assert d.startswith("digraph") and "->" in d
        st = to_staged(t, 1, {0})
        d2 = staged_to_dot(st, cell_of={i: 0 for i in st.nodes()})
        assert "fillcolor" in d2


# -- staged decoding against the two-pass reference ----------------------------


def two_pass_staged_from_json(doc):
    """`ptree.staged_from_json` as it decoded before the codec's keys
    seeded `StagedTree.validate`, kept as the differential reference:
    every id and parent goes through `_row_id`, each row's ends are keyed
    by the space, and `two_pass_validate` then validates and keys every
    payload endpoint again. It accepts a stage whose top level holds no
    node."""
    read_kind(doc, "staged", "top_level", "pool", "nodes")
    K = sp.space_from_json(doc["space"]) if "space" in doc else None
    codec = None if K is None else sp.PointCodec(K)
    parent, level, payload = {}, {}, {}
    for k, r in enumerate(ptree._node_rows(doc)):
        i = ptree._row_id(r, k, "id")
        if i in parent:
            raise DomainError(f"node id {i} is repeated")
        parent[i] = ptree._row_id(r, k, "parent")
        level[i] = r.get("level")
        if "payload" in r:
            if codec is None:
                raise DomainError("payload rows need a space")
            iv = r["payload"]
            if type(iv) is not list or len(iv) != 2:
                raise DomainError(f"payload {iv!r} is not a pair of points")
            lo, hi = codec.read(iv[0]), codec.read(iv[1])
            if K.key(lo) > K.key(hi):
                raise DomainError(f"interval endpoints out of order: {codec.write(lo)} > {codec.write(hi)}")
            payload[i] = ClosedInterval(lo, hi)
    limit_top = doc.get("limit_top", True)
    if not isinstance(limit_top, bool):
        raise DomainError(f"limit_top {limit_top!r} is not a bool")
    st = StagedTree(
        parent=parent,
        level=level,
        top_level=doc["top_level"],
        pool=frozenset(read_int(l, "pool level") for l in read_list(doc["pool"], "pool")),
        payload=payload if payload else None,
        space=K,
        limit_top=limit_top,
    )
    two_pass_validate(st)
    return st


def two_pass_validate(st):
    """`StagedTree.validate` as it checked a stage in separate node,
    payload and level passes: the pool against `set(range(top_level))`,
    and same-level overlap by `_first_overlap` on every level."""
    ids = set(st.parent)
    if not ids:
        raise DomainError("staged tree has no nodes")
    if set(st.level) != ids:
        raise DomainError("level table does not match node set")
    roots = [i for i in ids if st.parent[i] is None]
    if len(roots) != 1:
        raise DomainError(f"expected one root, found {len(roots)}")
    if st.level[roots[0]] != 0:
        raise DomainError("root must sit at level 0")
    if not plain_int(st.top_level) or st.top_level < 0:
        raise DomainError(f"bad top level {st.top_level!r}")
    for i in ids:
        l = st.level[i]
        if not plain_int(l):
            raise DomainError(f"node {i} level {l!r} is not an int")
        if not 0 <= l <= st.top_level:
            raise DomainError(f"node {i} level {l!r} outside 0..{st.top_level}")
        p = st.parent[i]
        if p is not None:
            if p not in ids:
                raise DomainError(f"node {i} has missing parent {p}")
            if st.level[p] != l - 1:
                raise DomainError(f"edge {p}->{i} does not step one level")
    for l in sorted(st.pool, key=repr):
        read_int(l, "pool level")
    if not st.pool <= set(range(st.top_level)):
        raise DomainError(f"pool {sorted(st.pool)} must lie strictly below the top level {st.top_level}")
    if st.top_level == 0 and st.limit_top:
        raise DomainError("a single-level stage cannot designate its top as a limit")
    if st.payload is not None:
        if st.space is None:
            raise DomainError("payload intervals need a space")
        if set(st.payload) != ids:
            raise DomainError("payload table does not match node set")
        K = st.space
        order = sorted(ids)
        lo, hi = ptree._endpoint_keys(K, [st.payload[i].lo for i in order],
                                      [st.payload[i].hi for i in order])
        lo, hi = dict(zip(order, lo)), dict(zip(order, hi))
        st.payload_keys = lo, hi
        whole = sp.whole_interval(K)
        wlo, whi = K.key(whole.lo), K.key(whole.hi)
        for i in ids:
            if lo[i] > hi[i]:
                raise DomainError(f"payload of {i} out of order")
            if lo[i] == hi[i]:
                raise DomainError(f"payload of {i} is trivial")
            p = st.parent[i]
            if p is None:
                if lo[i] != wlo or hi[i] != whi:
                    raise DomainError("root payload must be the whole space")
            elif lo[p] > lo[i] or hi[i] > hi[p]:
                raise DomainError(f"payload of {i} escapes its parent")
        rows: dict[int, list[int]] = {}
        for i in sorted(ids):
            rows.setdefault(st.level[i], []).append(i)
        for lvl in sorted(rows):
            clash = ptree._first_overlap(rows[lvl], lo, hi)
            if clash is not None:
                raise DomainError(f"same-level payloads of {clash[0]} and {clash[1]} overlap nontrivially")


def staged_corpus() -> list[dict]:
    """A single-node stage, staged documents from every generator, and
    `to_staged` cuts with seeded pools over every space kind of the
    pinned trees."""
    stages = [StagedTree(parent={0: None}, level={0: 0}, top_level=0, pool=frozenset(), limit_top=False)]
    stages += [gen.gen_split_miniature(depth) for depth in range(2, 7)]
    for seed in range(8):
        stages += [gen.gen_comb(seed), gen.gen_broom(seed), gen.gen_sibling_tops(seed),
                   gen.gen_random_staged(seed), gen.gen_two_comb(seed)[0]]
    rng = random.Random(2718)
    for kind, K in sorted(PIN_SPACES.items()):
        tree = build_tree(K, 127)
        for m in (2, 3, 4):
            pool = rng.sample(range(m), rng.randint(0, m))
            stages.append(to_staged(tree, m, pool, limit_top=rng.random() < 0.5))
    return [staged_to_json(st) for st in stages]


def outside_text(K) -> str:
    """The text of a value just past the space: it parses but is no point."""
    if isinstance(K, FiniteChain):
        return str(K.size)
    if isinstance(K, SplitChain):
        return f"({K.size},-)"
    if isinstance(K, OrdinalInterval):
        return render_point(OrdinalInterval(add(K.alpha, from_int(1))), add(K.alpha, from_int(1)))
    return f"part0:{outside_text(K.parts[0])}"


def corruptions(rng, doc) -> list[dict]:
    """Copies of doc, each with one field changed: an id, a parent, a
    level, the pool, the top level, limit_top, or payload texts swapped
    between two nodes, reversed, widened or sent outside the space."""
    rows = doc["nodes"]
    ids = [r["id"] for r in rows]
    m = doc["top_level"]
    out = []

    def change(edit):
        d = copy.deepcopy(doc)
        edit(d, rng.randrange(len(rows)))
        out.append(d)

    for value in (rng.choice(ids), max(ids) + 1, 10**6, -1, "1", 1.0, True, None):
        change(lambda d, k, v=value: d["nodes"][k].update(id=v))
    for value in (rng.choice(ids), None, max(ids) + 5, "0", 0.5, "del"):
        change(lambda d, k, v=value: d["nodes"][k].pop("parent") if v == "del"
               else d["nodes"][k].update(parent=v))
    for delta in (-1, 1, 2):
        change(lambda d, k, v=delta: d["nodes"][k].update(level=d["nodes"][k]["level"] + v))
    for value in (0, m, m + 1, -1, "2", None):
        change(lambda d, k, v=value: d["nodes"][k].update(level=v))
    for pool in ([m], [-1], [], [0, 0], ["1"], [True], [10**12], list(range(m + 1))):
        change(lambda d, k, v=pool: d.update(pool=v))
    # the reference builds set(range(top_level)), so no top level here is
    # large; test_a_huge_top_level_is_refused_at_once covers one
    for top in (m - 1, m + 1, m + 3, 0, -1, "3", None):
        change(lambda d, k, v=top: d.update(top_level=v))
    for value in (not doc["limit_top"], 1, None):
        change(lambda d, k, v=value: d.update(limit_top=v))
    if "space" in doc and len(rows) > 1:
        K = sp.space_from_json(doc["space"])
        whole = sp.PointCodec(K).write_interval(sp.whole_interval(K))

        def swap(d, k):
            j = rng.randrange(len(rows))
            d["nodes"][k]["payload"], d["nodes"][j]["payload"] = d["nodes"][j]["payload"], d["nodes"][k]["payload"]

        for _ in range(3):
            change(swap)
        change(lambda d, k: d["nodes"][k]["payload"].reverse())
        change(lambda d, k: d["nodes"][k]["payload"].__setitem__(0, whole[0]))
        change(lambda d, k: d["nodes"][k]["payload"].__setitem__(1, whole[1]))
        change(lambda d, k: d["nodes"][k]["payload"].__setitem__(1, outside_text(K)))
        change(lambda d, k: d["nodes"][k]["payload"].__setitem__(0, d["nodes"][k]["payload"][1]))
        change(lambda d, k: d["nodes"][k].pop("payload"))
    return out


def decode_outcome(decode, doc):
    """("refused", text), or what the decoded stage holds."""
    try:
        st = decode(doc)
    except DomainError as err:
        return "refused", str(err)
    keys = st.payload_keys if st.payload is not None else None
    return "decoded", st.parent, st.level, st.payload, keys


def expected_outcome(doc):
    """The reference's outcome, with the top-level rule the decoder adds:
    a stage whose top level holds no node is refused."""
    got = decode_outcome(two_pass_staged_from_json, doc)
    if got[0] == "decoded" and doc["top_level"] not in got[2].values():
        return "refused", f"staged tree has no node at the top level {doc['top_level']}"
    return got


class TestStagedDecodeAgainstTwoPass:
    def test_the_corpus_decodes_as_the_reference_does(self):
        corpus = staged_corpus()
        assert len(corpus) == 61
        for doc in corpus:
            want = expected_outcome(doc)
            assert want[0] == "decoded"
            assert decode_outcome(staged_from_json, doc) == want

    def test_single_field_corruptions_decode_as_the_reference_does(self):
        rng = random.Random(31)
        seen = set()
        for doc in staged_corpus():
            for bad in corruptions(rng, doc):
                want = expected_outcome(bad)
                assert decode_outcome(staged_from_json, bad) == want, bad
                seen.add(want[1] if want[0] == "refused" else "decoded")
        # each rule of the decoder and of validate refuses some corruption
        for text in ("is repeated", "is not an int", "expected one root", "root must sit at level 0",
                     "outside 0..", "has missing parent", "does not step one level",
                     "pool level", "must lie strictly below", "cannot designate its top",
                     "is not a bool", "bad top level", "out of order", "is not a point",
                     "escapes its parent", "overlap nontrivially", "has no node at the top level",
                     "payload table does not match", "root payload must be the whole space"):
            assert any(text in s for s in seen), text
        assert "decoded" in seen
