"""Open partitions: construction, verification, rank, and stages."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ordfrag import bruteforce as bf
from ordfrag import generators as gen
from ordfrag import space as sp
from ordfrag.errors import DomainError, NoRoom, NotSimpleError
from ordfrag.openpart import (
    OpenPartition,
    partition_from_json,
    partition_open,
    partition_to_json,
    rank,
    verify_open_partition,
)
from ordfrag.ptree import staged_to_dot
from ordfrag.simple import verify_hall_violator


def comb(seed=3, teeth=4, room=3):
    return gen.gen_comb(seed, teeth=teeth, room=room)


def no_limit_stage():
    b = gen._Builder()
    root = b.add(None, 0)
    a = b.add(root, 1)
    b.add(root, 1)
    b.add(a, 2)
    return b.staged(2, [0], limit_top=False)


class TestPartitionOpen:
    def test_without_designated_limit_everything_is_single(self):
        st = no_limit_stage()
        p = partition_open(st)
        assert all(len(c) == 1 for c in p.cells)
        assert len(p) == len(st.nodes())
        assert verify_open_partition(st, p) == []

    def test_comb_glues_one_segment_per_tip(self):
        st = comb()
        p = partition_open(st)
        assert verify_open_partition(st, p) == []
        tops = st.tops()
        seg_cells = {p.index_of(y) for y in tops}
        assert len(seg_cells) == len(tops)
        for y in tops:
            cell = p.cells[p.index_of(y)]
            assert len(cell) > 1
            assert min(st.level[v] for v in cell) == min(st.pool) + 1
        # everything outside the glued segments is a singleton
        for c in p.cells:
            assert len(c) == 1 or any(y in c for y in tops)

    def test_refuses_on_counting_deficit(self):
        st = gen.gen_split_miniature(3)
        with pytest.raises(NotSimpleError):
            partition_open(st)

    def test_refuses_without_headroom(self):
        st = gen.gen_sibling_tops(1)
        with pytest.raises(NoRoom):
            partition_open(st)

    @given(hst.integers(min_value=0, max_value=3000))
    @settings(max_examples=50, deadline=None)
    def test_seeded_combs_verify(self, seed):
        st = gen.gen_comb(seed)
        assert verify_open_partition(st, partition_open(st)) == []

    def test_cell_relation_is_an_equivalence(self):
        st = comb(seed=2, teeth=4, room=2)
        assert len(st.nodes()) <= 60
        p = partition_open(st)
        nodes = st.nodes()
        same = {(a, b) for a in nodes for b in nodes if p.index_of(a) == p.index_of(b)}
        assert all((a, a) in same for a in nodes)
        assert all((b, a) in same for a, b in same)
        for a, b in same:
            for c in nodes:
                if (b, c) in same:
                    assert (a, c) in same


class TestRefusalSoundness:
    def test_depth_three_miniature_has_27_dead_candidates(self):
        st = gen.gen_split_miniature(3)
        candidates = list(bf.exhaustive_chain_partitions(st))
        assert len(candidates) == 27
        for cells in candidates:
            problems = verify_open_partition(st, OpenPartition(cells))
            assert problems
            assert all(p.startswith("openness") for p in problems)

    def test_sibling_tops_have_no_open_candidate(self):
        for seed in range(6):
            st = gen.gen_sibling_tops(seed)
            assert all(
                verify_open_partition(st, OpenPartition(cells))
                for cells in bf.exhaustive_chain_partitions(st)
            )

    def test_random_successes_verify_and_refusals_are_structured(self):
        refused = 0
        for seed in range(60):
            st = gen.gen_random_staged(seed, max_nodes=12)
            try:
                p = partition_open(st)
            except NotSimpleError as e:
                refused += 1
                assert verify_hall_violator(st, st.tops(), e.violator) == [], seed
            except NoRoom as e:
                refused += 1
                assert e.node in st.parent
                assert e.bound_level in range(st.top_level), seed
            else:
                assert verify_open_partition(st, p) == [], seed
        assert refused > 0

    def test_pooled_parent_level_refusals_are_conservative(self):
        # siblings under a pooled parent: no closed-segment map exists,
        # yet the discrete partition is open through that parent
        b = gen._Builder()
        root = b.add(None, 0)
        mid = b.add(root, 1)
        b.add(mid, 2)
        b.add(mid, 2)
        st = b.staged(2, [0, 1])
        with pytest.raises(NoRoom):
            partition_open(st)
        assert bf.exhaustive_segment_assignment(st, frozenset(st.tops())) is None
        discrete = OpenPartition(tuple(frozenset((v,)) for v in sorted(st.nodes())))
        assert verify_open_partition(st, discrete) == []

    def test_strict_bound_refusals_are_conservative_across_branches(self):
        # two tops meeting only at the root, one pool level: segments
        # through distinct pooled nodes are disjoint, but the strict
        # level bound wants headroom above them and refuses
        b = gen._Builder()
        root = b.add(None, 0)
        left = b.add(root, 1)
        right = b.add(root, 1)
        b.add(left, 2)
        b.add(right, 2)
        st = b.staged(2, [1])
        with pytest.raises(NoRoom):
            partition_open(st)
        found = bf.exhaustive_segment_assignment(st, frozenset(st.tops()))
        assert found is not None


class TestVerifier:
    def test_flags_empty_unknown_and_missing(self):
        st = comb()
        p = partition_open(st)
        padded = OpenPartition(p.cells + (frozenset(),))
        assert any("empty" in msg for msg in verify_open_partition(st, padded))
        alien = OpenPartition(p.cells + (frozenset((10_000,)),))
        assert any("unknown node" in msg for msg in verify_open_partition(st, alien))
        hollow = OpenPartition(p.cells[1:])
        assert any(msg.startswith("cover") for msg in verify_open_partition(st, hollow))

    def test_duplicate_membership_cannot_be_built(self):
        with pytest.raises(DomainError, match="two cells"):
            OpenPartition((frozenset((1, 2)), frozenset((2, 3))))

    def test_flags_incomparable_cells(self):
        st = gen.gen_split_miniature(3, pool_mode="full")
        tips = sorted(st.tops())
        rest = [v for v in st.nodes() if v not in tips[:2]]
        glued = OpenPartition(
            (frozenset(tips[:2]),) + tuple(frozenset((v,)) for v in rest)
        )
        assert any(msg.startswith("chain") for msg in verify_open_partition(st, glued))

    def test_flags_convexity_gaps(self):
        st = comb(teeth=3, room=3)
        p = partition_open(st)
        y = st.tops()[0]
        cell = sorted(p.cells[p.index_of(y)], key=lambda v: st.level[v])
        assert len(cell) >= 3
        gap = frozenset((cell[0], cell[-1]))
        out = [cell[1]] if len(cell) == 3 else cell[1:-1]
        others = tuple(c for c in p.cells if c != p.cells[p.index_of(y)])
        broken = OpenPartition(others + (gap,) + tuple(frozenset((v,)) for v in out))
        assert any(msg.startswith("convexity") for msg in verify_open_partition(st, broken))

    def test_flags_closed_tops(self):
        # pool {0} only: a singleton top cell admits no pooled tail
        st = gen.gen_split_miniature(3)
        discrete = OpenPartition(tuple(frozenset((v,)) for v in sorted(st.nodes())))
        problems = verify_open_partition(st, discrete)
        assert problems and all(msg.startswith("openness") for msg in problems)
        assert len(problems) == len(st.tops())


def pairwise_shape_clauses(st, p) -> dict[int, set[str]]:
    """The chain and convexity clauses as first written: a chain problem
    for every pair of incomparable members, through their meet, and a
    convexity problem for every member, by level, whose parent is not
    the one before it. Cell index to the clauses it fails."""
    out = {}
    for k, cell in enumerate(p.cells):
        members = sorted((v for v in cell if v in st.parent), key=lambda v: st.level[v])
        clauses = set()
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                if st.meet(members[i], members[j]) not in (members[i], members[j]):
                    clauses.add("chain")
        for u, v in zip(members, members[1:]):
            if st.parent[v] != u:
                clauses.add("convexity")
        out[k] = clauses
    return out


def random_cells(st, rng) -> OpenPartition:
    """Each node, by level, joins its parent's cell, the cell of a
    deeper ancestor, any cell so far, or a cell of its own."""
    cell_of = {}
    for v in sorted(st.parent, key=lambda v: (st.level[v], v)):
        up, r = st.parent[v], rng.random()
        if up is not None and r < 0.45:
            cell_of[v] = cell_of[up]
        elif up is not None and r < 0.6:
            cell_of[v] = cell_of[st.ancestor_at(v, rng.randrange(st.level[v]))]
        elif r < 0.75 and cell_of:
            cell_of[v] = rng.choice(sorted(cell_of.values()))
        else:
            cell_of[v] = v
    cells = {}
    for v, c in cell_of.items():
        cells.setdefault(c, set()).add(v)
    return OpenPartition(tuple(frozenset(c) for _, c in sorted(cells.items())))


class TestShapeAgainstThePairwiseDefinition:
    @pytest.mark.parametrize("kind", ["random", "comb", "miniature"])
    def test_the_same_cells_fail_the_same_clauses(self, kind):
        """One pass over consecutive members, by level, flags a cell
        `chain` exactly when some pair in it is incomparable, and flags it
        at all exactly when the pairwise definition does."""
        rng = random.Random(f"shape:{kind}")
        seen = set()
        for i in range(500):
            if kind == "random":
                st = gen.gen_random_staged(rng.randrange(2**32), max_nodes=rng.randint(4, 24))
            elif kind == "comb":
                st = gen.gen_comb(rng.randrange(2**32), teeth=rng.randint(1, 4),
                                  room=rng.randint(1, 3))
            else:
                st = gen.gen_split_miniature(rng.randint(2, 5), rng.choice(("full", "no_parent")))
            p = random_cells(st, rng)
            want = pairwise_shape_clauses(st, p)
            got = {k: set() for k in range(len(p))}
            for msg in verify_open_partition(st, p):
                m = re.match(r"(chain|convexity): cell (\d+) ", msg)
                if m:
                    got[int(m[2])].add(m[1])
            for k in want:
                assert ("chain" in got[k]) == ("chain" in want[k]), (i, k)
                assert bool(got[k]) == bool(want[k]), (i, k)
                seen.add(frozenset(want[k]))
        assert {frozenset(), frozenset({"convexity"}), frozenset({"chain", "convexity"})} <= seen


class TestRank:
    def test_root_starts_at_one(self):
        st = comb()
        p = partition_open(st)
        root = next(i for i, up in st.parent.items() if up is None)
        assert rank(st, p, root) == 1

    def test_tips_count_the_pinched_prefix(self):
        # singletons at levels 0..t, then one glued segment
        st = comb(teeth=4, room=3)
        p = partition_open(st)
        for y in st.tops():
            assert rank(st, p, y) == min(st.pool) + 2

    def test_discrete_rank_is_level_plus_one(self):
        st = no_limit_stage()
        p = partition_open(st)
        for v in st.nodes():
            assert rank(st, p, v) == st.level[v] + 1

    def test_monotone_along_branches(self):
        st = comb(seed=9, teeth=5, room=2)
        p = partition_open(st)
        for v in st.nodes():
            parent = st.parent[v]
            if parent is not None:
                assert rank(st, p, parent) <= rank(st, p, v) <= rank(st, p, parent) + 1

    def test_unknown_node_is_rejected(self):
        st = comb()
        with pytest.raises(DomainError):
            rank(st, partition_open(st), 10_000)


class TestExport:
    def test_json_round_trip(self):
        st = comb()
        p = partition_open(st)
        doc = partition_to_json(p)
        assert partition_from_json(doc) == p
        with pytest.raises(DomainError):
            partition_from_json({"kind": "nope"})
        with pytest.raises(DomainError):
            partition_from_json({"v": 1, "kind": "open-partition", "cells": "x"})

    @pytest.mark.parametrize("doc, message", [
        ({"kind": "open-partition"}, "open-partition document has no 'v'"),
        ({"v": 1, "kind": "open-partition"}, "open-partition document has no 'cells'"),
        ({"v": 1, "kind": "open-partition", "cells": [[0], 1]}, "cell is not a list"),
        ({"v": 1, "kind": "open-partition", "cells": [[0, "1"]]}, "cell node '1' is not an int"),
    ], ids=["no-v", "no-cells", "cell-not-a-list", "string-node"])
    def test_a_malformed_document_names_its_field(self, doc, message):
        """A document without cells once raised KeyError."""
        with pytest.raises(DomainError, match=re.escape(message)):
            partition_from_json(doc)

    def test_dot_coloring_uses_the_cells(self):
        st = comb(teeth=3, room=2)
        p = partition_open(st)
        dot = staged_to_dot(st, cell_of=p.as_cell_index())
        assert dot.count("fillcolor") == len(st.nodes())

    def test_cell_lookup_errors(self):
        p = partition_open(comb())
        with pytest.raises(DomainError, match="no cell"):
            p.index_of(10_000)
