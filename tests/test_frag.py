"""Decomposition levels, gap identities, scatteredness, fragmentation."""

import itertools
import random
from fractions import Fraction

import pytest

from ordfrag import bruteforce as bf
from ordfrag import generators as gen
from ordfrag import space as sp
from ordfrag import suite
from ordfrag.errors import DomainError
from ordfrag.frag import (
    delta_pairs,
    density_sweep,
    fragment_check,
    levels_from_json,
    levels_to_json,
    ln_decomposition,
    verify_decomposition,
    verify_delta_identity,
    verify_density,
    verify_scattered_closed,
    weight_bound,
)
from ordfrag.openpart import OpenPartition, partition_open
from ordfrag.ordinal import Ordinal, degree, parse
from ordfrag.ptree import build_tree, to_staged
from ordfrag.space import FiniteChain, OrdinalInterval, SplitChain


def chain_stage(n=8, m=2):
    """Saturated finite-chain tree, truncated with no designated limit."""
    K = FiniteChain(n)
    tree = build_tree(K, budget=4 * n)
    st = to_staged(tree, m, pool=range(max(m - 1, 1)), limit_top=False)
    return st, partition_open(st)


class TestDecomposition:
    def test_eight_chain_truncation_pinned(self):
        st, p = chain_stage(8, m=2)
        levels = ln_decomposition(st, p)
        assert [sorted(pts) for pts in levels] == [
            [0, 7],
            [0, 7],
            [0, 3, 7],
            [0, 1, 3, 5, 7],
        ]

    def test_full_depth_reaches_every_point(self):
        st, p = chain_stage(8, m=3)
        levels = ln_decomposition(st, p)
        assert sorted(levels[-1]) == list(range(8))

    def test_nesting_and_gap_identity(self):
        for m in (1, 2, 3):
            st, p = chain_stage(8, m=m)
            levels = ln_decomposition(st, p)
            assert verify_decomposition(st.space, levels) == []
            assert verify_delta_identity(st.space, levels) == []

    def test_glued_partitions_also_decompose(self):
        for seed in range(10):
            st = gen.gen_comb(seed)
            p = partition_open(st)
            levels = ln_decomposition(st, p)
            assert verify_decomposition(st.space, levels) == []
            assert verify_delta_identity(st.space, levels) == []

    def test_partition_is_reverified(self):
        st, _ = chain_stage(8, m=2)
        alien = OpenPartition((frozenset(sorted(st.parent)),))
        with pytest.raises(DomainError, match="partition rejected"):
            ln_decomposition(st, alien)

    def test_payload_is_required(self):
        bare = gen.gen_random_staged(3)
        with pytest.raises(DomainError):
            ln_decomposition(bare, partition_open(bare))

    def test_verifiers_flag_tampering(self):
        st, p = chain_stage(8, m=2)
        K = st.space
        levels = ln_decomposition(st, p)
        assert verify_decomposition(K, [levels[2], levels[1]] + levels[2:])
        assert verify_decomposition(K, [(0, 5)] + levels[1:])
        assert verify_delta_identity(K, [levels[1], (0, 1, 7), (0, 1, 7)]) == []
        stray = [levels[0], (0, 7), (0, 7, 7)]
        assert verify_decomposition(K, stray)
        # a new point beyond the last point of the level below sits in no gap
        assert verify_delta_identity(FiniteChain(8), [(0, 5), (0, 5, 7)]) == [
            "level 1 points ['7'] fall outside every gap of level 0"
        ]


class TestDeltaPairs:
    def test_pinned_five_chain(self):
        K = FiniteChain(5)
        assert delta_pairs(K, (0, 4)) == ((0, 4),)
        assert delta_pairs(K, (0, 2, 4)) == ((0, 2), (2, 4))
        assert delta_pairs(K, (2,)) == ()
        assert delta_pairs(K, ()) == ()


class TestDensity:
    def test_saturated_levels_are_dense(self):
        st, p = chain_stage(8, m=3)
        K = st.space
        final = ln_decomposition(st, p)[-1]
        pairs = [(u, v) for u in range(8) for v in range(8) if u < v]
        assert verify_density(K, final, pairs) is None

    def test_truncation_leaves_a_witnessed_gap(self):
        st, p = chain_stage(8, m=2)
        K = st.space
        final = ln_decomposition(st, p)[-1]  # {0, 1, 3, 5, 7}
        assert verify_density(K, final, [(3, 4)]) == (3, 4)
        assert verify_density(K, final, [(0, 1), (3, 4)]) == (3, 4)

    def test_malformed_pairs_are_rejected(self):
        with pytest.raises(DomainError):
            verify_density(FiniteChain(5), (0, 4), [(3, 3)])

    def test_the_adjacent_sweep_matches_every_pair(self):
        rng = random.Random("density-sweep")
        verdicts = set()
        for _ in range(400):
            K = rng.choice((FiniteChain, SplitChain))(rng.randint(1, 9))
            pts = sp.enumerate_points(K)
            level = rng.sample(pts, rng.randint(0, len(pts)))
            pairs = [(u, v) for i, u in enumerate(pts) for v in pts[i + 1:]]
            expect = (len(pairs), verify_density(K, level, pairs))
            assert density_sweep(K, level) == expect, (K, level)
            verdicts.add(expect[1] is None)
        assert verdicts == {True, False}


class TestScattered:
    def test_finite_sets_empty_in_one_round(self):
        K = FiniteChain(8)
        rep = verify_scattered_closed(K, (0, 3, 7))
        assert rep == verify_scattered_closed(K, (0, 1, 2, 3))
        assert rep.emptied and rep.closed

    def test_empty_set_is_vacuous(self):
        rep = verify_scattered_closed(FiniteChain(3), ())
        assert rep.emptied and rep.closed

    def test_the_cb_rank_oracle_matches_the_closed_form(self):
        # every ordinal below w^3 with coefficients at most 3
        K = OrdinalInterval(parse("w^3"))
        for coefficients in itertools.product(range(4), repeat=3):
            a = Ordinal(tuple((e, c) for e, c in zip((2, 1, 0), coefficients) if c))
            assert bf.cb_rank(K, a) == suite._cb_rank(a), a
        assert bf.cb_rank(K, parse("w^2")) == 2
        # the leading exponent is not the rank
        assert bf.cb_rank(K, parse("w+1")) == 0 < degree(parse("w+1"))

    def test_ordinal_interval_points_scatter_symbolically(self):
        # explicit finite subsets of an ordinal interval go the literal
        # way; the ranks of its points are the oracle test's
        K = OrdinalInterval(parse("w^2"))
        pts = (parse("0"), parse("w"), parse("w*2"), parse("w^2"))
        rep = verify_scattered_closed(K, pts)
        assert rep.emptied and rep.closed


class TestFragmentCheck:
    def test_leftmost_singleton_is_the_canonical_witness(self):
        K = FiniteChain(5)
        members = (0, 1, 2, 3, 4)
        w = fragment_check(K, members, Fraction(1))
        assert w.lo is None and w.hi == 1
        assert w.inside == (0,) and w.diameter == 0

    def test_matches_an_independent_enumeration(self):
        K = FiniteChain(9)
        d = lambda u, v: Fraction(abs(u - v), 4)
        for members in [(2, 5, 7), (0, 8), (4,), tuple(range(9))]:
            eps = Fraction(1, 2)
            got = fragment_check(K, members, eps)
            pts = sorted(members)
            cuts = [None] + pts + [None]
            expect = None
            for width in range(2, len(cuts)):
                for i in range(len(cuts) - width):
                    lo, hi = cuts[i], cuts[i + width]
                    inside = [
                        q
                        for q in pts
                        if (lo is None or q > lo) and (hi is None or q < hi)
                    ]
                    diam = max(
                        (d(u, v) for j, u in enumerate(inside) for v in inside[j + 1 :]),
                        default=Fraction(0),
                    )
                    if inside and diam < eps and expect is None:
                        expect = (lo, hi, tuple(inside), diam)
            assert (got.lo, got.hi, got.inside, got.diameter) == expect

    def test_zero_metric_qualifies_the_whole_window(self):
        K = FiniteChain(6)
        members = tuple(range(6))
        zero = lambda u, v: Fraction(0)
        w = fragment_check(K, members, Fraction(1, 100))
        assert w.diameter == 0
        whole = max(
            (zero(u, v) for i, u in enumerate(members) for v in members[i + 1 :]),
            default=Fraction(0),
        )
        assert whole < Fraction(1, 100)

    def test_input_validation(self):
        K = FiniteChain(4)
        with pytest.raises(DomainError, match="positive"):
            fragment_check(K, (0, 1), 0)
        with pytest.raises(DomainError, match="nothing"):
            fragment_check(K, (), Fraction(1))


class TestWeightBound:
    def test_split_miniature_deficit_by_one(self):
        for k in (2, 3, 4, 5):
            st = gen.gen_split_miniature(k + 1, pool_mode="full")
            rep = weight_bound(st)
            assert not rep.simple
            assert rep.n_tops == 2 ** k
            assert rep.n_pooled == 2 ** k - 1
            assert rep.margin == -1
            assert rep.hall == (2 ** k, 2 ** k - 1)

    def test_combs_carry_positive_margin(self):
        st = gen.gen_comb(4, teeth=3, room=2)
        rep = weight_bound(st)
        assert rep.simple and rep.hall is None
        assert rep.n_tops == 3 and rep.n_pooled == 6 and rep.margin == 3

    def test_every_simple_instance_respects_the_bound(self):
        for seed in range(150):
            st = gen.gen_random_staged(seed)
            rep = weight_bound(st)
            if rep.simple:
                assert rep.margin >= 0, seed


class TestLevelsJson:
    def test_round_trip_over_ordinals(self):
        K = OrdinalInterval(parse("w^2"))
        levels = [
            (Ordinal(()), parse("w^2")),
            (Ordinal(()), parse("w*2+1"), parse("w^2")),
        ]
        doc = levels_to_json(K, levels)
        assert doc["levels"][1][1] == "w*2+1"
        assert levels_from_json(K, doc) == levels
        with pytest.raises(DomainError):
            levels_from_json(K, {"kind": "decomposition?"})
