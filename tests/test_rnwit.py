"""Step-function families, pseudo-metrics, dense sets, approximation."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import ordfrag
from ordfrag import rnwit as rn
from ordfrag import space as sp
from ordfrag.errors import DomainError
from ordfrag.frag import fragment_check, ln_decomposition, verify_density
from ordfrag.openpart import partition_open
from ordfrag.ordinal import parse
from ordfrag.ptree import build_tree, to_staged
from ordfrag.space import FiniteChain, OrdinalInterval

TOY_LEVELS = [(0, 4), (0, 4), (0, 2, 4)]


def farey_bracket(t, bound):
    """Nearest fractions strictly below and above t with denominator <=
    bound, by trying every denominator: the reference for the closed form."""
    qs = range(1, bound + 1)
    below = max(Fraction(math.ceil(t * q) - 1, q) for q in qs)
    above = min(Fraction(math.floor(t * q) + 1, q) for q in qs)
    return below, above


def toy_family():
    return rn.separating_family(FiniteChain(5), TOY_LEVELS)


def chain_pipeline(size=8, m=3):
    K = FiniteChain(size)
    tree = build_tree(K, budget=6 * size)
    st = to_staged(tree, m, pool=range(max(m - 1, 1)), limit_top=False)
    levels = ln_decomposition(st, partition_open(st))
    return K, levels, rn.separating_family(K, levels)


def ordinal_pipeline():
    K = OrdinalInterval(parse("w^2"))
    tree = build_tree(K, budget=60)
    st = to_staged(tree, 2, pool=range(1, 2), limit_top=False)
    levels = ln_decomposition(st, partition_open(st))
    return K, levels, rn.separating_family(K, levels)


def all_pairs(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


class TestStepFunctions:
    def test_toy_family_pinned(self):
        K = FiniteChain(5)
        fam = toy_family()
        assert [(f.tag, f.cuts) for f in fam] == [
            ((0, 4, 1), ((0, 1, Fraction(1)),)),
            ((0, 2, 2), ((0, 1, Fraction(1, 2)),)),
            ((2, 4, 2), ((2, 3, Fraction(1, 2)),)),
        ]
        for f in fam:
            assert rn.verify_step_function(K, f) == []

    def test_boundary_values(self):
        fam = toy_family()
        f = fam[0]
        assert f.value(0) == 0
        assert [f.value(w) for w in range(1, 5)] == [1, 1, 1, 1]

    def test_ordinal_gap_jumps_at_the_left_edge(self):
        K = OrdinalInterval(parse("w"))
        lv = [(parse("0"), parse("w")), (parse("0"), parse("w"))]
        (f,) = rn.separating_family(K, lv)
        assert f.cuts == ((parse("0"), parse("1"), Fraction(1)),)
        assert f.value(parse("w")) == 1 and f.value(parse("0")) == 0
        # limits are approached from below, values settle before them
        assert f.value(parse("w*2") if False else parse("5")) == 1

    def test_audit_catches_tampering(self):
        K = FiniteChain(5)
        good = toy_family()[0]
        bad_cut = rn.StepFunction(K, ((0, 2, Fraction(1)),), (0, 4, 1))
        assert any("adjacent" in p for p in rn.verify_step_function(K, bad_cut))
        bad_total = rn.StepFunction(K, ((0, 1, Fraction(1, 3)),), (0, 4, 1))
        assert any("climb" in p for p in rn.verify_step_function(K, bad_total))
        escaped = rn.StepFunction(K, ((3, 4, Fraction(1, 2)),), (0, 2, 2))
        assert any("escapes" in p for p in rn.verify_step_function(K, escaped))
        neg = rn.StepFunction(K, good.cuts, (4, 0, 1))
        assert any("increasing" in p for p in rn.verify_step_function(K, neg))


class TestSeparation:
    def test_saturated_chain_separates_everything(self):
        K, levels, fam = chain_pipeline()
        assert len(fam) == 14
        assert rn.check_separation(K, fam, all_pairs(8)) is None

    def test_unsaturated_levels_leave_a_pair(self):
        # {0,2,4} misses the cut between 1 and 2; density fails the same way
        K = FiniteChain(5)
        fam = toy_family()
        assert rn.check_separation(K, fam, all_pairs(5)) == (1, 2)
        assert verify_density(K, (0, 2, 4), [(1, 2)]) == (1, 2)

    def test_dropping_the_deepest_level_is_detected(self):
        K, levels, fam = chain_pipeline()
        thinned = rn.drop_level(fam, len(levels) - 1)
        assert rn.check_separation(K, thinned, all_pairs(8)) == (2, 3)

    def test_density_implies_separation(self):
        # cross-check on every pipeline instance in this file
        for K, levels, fam in (chain_pipeline(8), chain_pipeline(16), chain_pipeline(8, m=2)):
            pairs = all_pairs(K.size)
            if verify_density(K, levels[-1], pairs) is None:
                assert rn.check_separation(K, fam, pairs) is None

    def test_vacuous_and_malformed(self):
        K = FiniteChain(1)
        assert rn.check_separation(K, (), []) is None
        with pytest.raises(DomainError, match="strictly increasing"):
            rn.check_separation(FiniteChain(5), toy_family(), [(3, 3)])


class TestPseudoMetric:
    def test_pinned_depth_two_distance(self):
        fam = [f for f in toy_family() if f.level == 2]
        d = rn.pseudo_metric(fam)
        assert d.distance(1, 3) == Fraction(1, 2)
        assert d.distance(3, 1) == Fraction(1, 2)
        assert d.distance(2, 2) == 0

    def test_empty_family_is_identically_zero(self):
        assert rn.pseudo_metric(()).distance(0, 4) == 0

    def test_metric_axioms_on_random_triples(self):
        K, _levels, fam = chain_pipeline(16, m=3)
        d = rn.pseudo_metric(fam).distance
        rng = random.Random(7)
        for _ in range(10_000):
            u, v, w = (rng.randrange(16) for _ in range(3))
            duv, dvw, duw = d(u, v), d(v, w), d(u, w)
            assert duv == d(v, u)
            assert duw <= duv + dvw
            assert d(u, u) == 0

    def test_monotone_coherence_within_gaps(self):
        # all functions at depth <= i agree on points of one open depth-i gap
        K, levels, fam = chain_pipeline()
        for f in fam:
            x, y, i = f.tag
            inside = [w for w in range(8) if x < w < y]
            shallow = [g for g in fam if g.level <= i]
            for a in inside:
                for b in inside:
                    assert all(g.value(a) == g.value(b) for g in shallow)


class TestDenseSet:
    def test_toy_record_pinned(self):
        K = FiniteChain(5)
        fam = toy_family()
        D = rn.dense_set(K, fam, TOY_LEVELS)
        assert D.points == (0, 2, 4)
        assert D.n_cap == 8
        assert D.m_sets == ((1, (0, 4)), (2, (0, 2, 4)))
        picks = {(s.level, s.gap, s.j): s.z for s in D.selections}
        assert picks == {
            (1, (0, 4), 1): 2,
            (2, (0, 2), 2): 2,
            (2, (2, 4), 1): 2,
            (2, (2, 4), 2): 4,
        }

    def test_farey_boxes_pinned(self):
        K = FiniteChain(5)
        D = rn.dense_set(K, toy_family(), TOY_LEVELS)
        by = {(s.level, s.gap, s.j): rn._value_boxes(s.level, s.j, D.denominator_bound)
              for s in D.selections}
        one = (Fraction(15, 16), Fraction(17, 16))
        half = (Fraction(7, 15), Fraction(8, 15))
        zero = (Fraction(-1, 16), Fraction(1, 16))
        assert by[(1, (0, 4), 1)] == (one,)
        assert by[(2, (0, 2), 2)] == (one, half)
        assert by[(2, (2, 4), 1)] == (one, zero)

    def test_boxes_never_overlap_below_the_cap(self):
        # the cap exists exactly so the 1/n box clears the zero box
        boxes = rn._value_boxes(9, 8, 16)
        zero_hi = boxes[8][1]
        for lo, _hi in boxes[:8]:
            assert lo > zero_hi

    def test_closed_form_boxes_match_the_farey_search(self):
        for bound in range(4, 65):
            depth = 3 * bound
            ones = rn._value_boxes(depth, depth, bound)
            zeros = rn._value_boxes(depth, 0, bound)
            assert zeros == (farey_bracket(Fraction(0), bound),) * depth
            for i in range(1, depth + 1):
                assert ones[i - 1] == farey_bracket(Fraction(1, i), bound), (bound, i)

    def test_stair_regions_hold_their_point(self):
        K, levels, fam = chain_pipeline()
        D = rn.dense_set(K, fam, levels)
        for s in D.selections:
            lo, hi = s.region
            assert lo < s.z <= hi

    def test_input_validation(self):
        K = FiniteChain(5)
        fam = toy_family()
        with pytest.raises(DomainError, match="at least 4"):
            rn.dense_set(K, fam, TOY_LEVELS, denominator_bound=2)
        with pytest.raises(DomainError, match="beyond the decomposition"):
            rn.dense_set(K, fam, TOY_LEVELS[:2])
        forged = rn.StepFunction(K, ((1, 2, Fraction(1, 2)),), (1, 3, 2))
        with pytest.raises(DomainError, match="not a gap"):
            rn.dense_set(K, (forged,), TOY_LEVELS)

    def test_two_point_space_is_just_the_extremes(self):
        K = FiniteChain(2)
        levels = [(0, 1), (0, 1)]
        D = rn.dense_set(K, rn.separating_family(K, levels), levels)
        assert D.points == (0, 1)


class TestApproximate:
    def test_toy_choices_pinned(self):
        K = FiniteChain(5)
        fam = toy_family()
        D = rn.dense_set(K, fam, TOY_LEVELS)
        picks = {(w, n): rn.approximate(K, w, n, fam, D)
                 for w in range(5) for n in (1, 2, 8)}
        assert picks[(1, 1)] == 2 and picks[(1, 8)] == 2
        assert picks[(3, 1)] == 2  # shallow queries may stop at the near fence
        assert picks[(3, 2)] == 4 and picks[(3, 8)] == 4
        for w in (0, 2, 4):
            assert picks[(w, 1)] == w  # dense points answer for themselves

    def test_guarantee_holds_exhaustively(self):
        K, levels, fam = chain_pipeline()
        D = rn.dense_set(K, fam, levels)
        d = rn.pseudo_metric(fam).distance
        for w in range(8):
            for n in range(1, D.n_cap + 1):
                z = rn.approximate(K, w, n, fam, D)
                assert D.contains(z)
                assert d(w, z) < Fraction(1, n)

    @settings(max_examples=60, deadline=None)
    @given(hst.integers(0, 31), hst.integers(1, 8), hst.integers(2, 4))
    def test_guarantee_on_wider_chains(self, w, n, m):
        K, levels, fam = chain_pipeline(32, m=m)
        D = rn.dense_set(K, fam, levels)
        z = rn.approximate(K, w, n, fam, D)
        assert rn.pseudo_metric(fam).distance(w, z) < Fraction(1, n)

    def test_ordinal_pipeline_pinned(self):
        K, levels, fam = ordinal_pipeline()
        assert [[sp.render_point(K, p) for p in lv] for lv in levels] == [
            ["0", "w^2"],
            ["0", "w^2"],
            ["0", "w", "w^2"],
            ["0", "1", "w", "w*2", "w^2"],
        ]
        D = rn.dense_set(K, fam, levels)
        assert [sp.render_point(K, p) for p in D.points] == ["0", "1", "w", "w*2", "w^2"]
        want = {"0": "0", "1": "1", "w": "w", "w+1": "w*2",
                "w*2": "w*2", "w*3+4": "w^2", "w*7": "w^2", "w^2": "w^2"}
        for text, out in want.items():
            z = rn.approximate(K, parse(text), 8, fam, D)
            assert sp.render_point(K, z) == out, text

    @staticmethod
    def rigged():
        K = FiniteChain(5)
        f = rn.StepFunction(K, ((0, 1, Fraction(1)),), (0, 4, 1))
        D = rn.DenseSetRecord(
            K, (0, 4),
            ((1, (0, 4)),),
            (rn.ZSelection(1, (0, 4), 1, (0, 4), 0),),
            16)
        return K, (f,), D

    def test_corrupted_dense_set_is_caught(self):
        K, fam, rigged = self.rigged()
        with pytest.raises(rn.GuaranteeFailure) as err:
            rn.approximate(K, 2, 1, fam, rigged)
        bad = err.value
        assert bad.w == 2 and bad.z == 0 and bad.distance == 1
        assert bad.k == 1 and bad.gap == (0, 4)

    def test_package_guarantee_failure_is_the_raised_one(self):
        K, fam, rigged = self.rigged()
        try:
            rn.approximate(K, 2, 1, fam, rigged)
        except ordfrag.GuaranteeFailure as caught:
            assert isinstance(caught, ordfrag.OrdfragError)
        else:
            pytest.fail("except ordfrag.GuaranteeFailure missed the failure")

    def test_depth_and_family_guards(self):
        K = FiniteChain(5)
        fam = toy_family()
        D = rn.dense_set(K, fam, TOY_LEVELS)
        with pytest.raises(DomainError, match="outside"):
            rn.approximate(K, 1, 9, fam, D)
        with pytest.raises(DomainError, match="outside"):
            rn.approximate(K, 1, 0, fam, D)
        # D built for the depth-1 function alone never saw the depth-2
        # gaps: it steers by its own, and the literal re-check against the
        # whole family keeps the answer or refuses it
        D_sub = rn.dense_set(K, fam[:1], TOY_LEVELS)
        assert not D_sub.contains(1)
        d = rn.pseudo_metric(fam).distance
        kept = missed = 0
        for w in range(5):
            for n in range(1, D_sub.n_cap + 1):
                try:
                    z = rn.approximate(K, w, n, fam, D_sub)
                except rn.GuaranteeFailure as bad:
                    assert bad.distance == d(w, bad.z) >= Fraction(1, n)
                    missed += 1
                    continue
                assert D_sub.contains(z) and d(w, z) < Fraction(1, n)
                kept += 1
        assert rn.approximate(K, 1, 2, fam, D_sub) == 2
        assert kept and missed


class TestNamioka:
    def test_full_construction_passes(self):
        K, levels, fam = chain_pipeline()
        rep = rn.namioka_check(K, fam, levels, subsets=20)
        assert rep.ok
        assert rep.norm_problems == () and rep.unseparated is None
        assert rep.pairs_checked == 28
        assert rep.subsets_checked == 20 and rep.points_checked == 160
        assert rep.density_failures == ()

    def test_scaled_family_fails_the_norm_clause(self):
        K, levels, fam = chain_pipeline()
        rep = rn.namioka_check(K, rn.scale_family(fam, 3), levels, subsets=3)
        assert not rep.ok
        assert any("climbs to 3" in p for p in rep.norm_problems)
        assert rep.subsets_checked == 0  # later clauses short-circuit

    def test_deleted_level_fails_separation_with_a_witness(self):
        K, levels, fam = chain_pipeline()
        rep = rn.namioka_check(K, rn.drop_level(fam, len(levels) - 1), levels, subsets=3)
        assert not rep.ok and rep.unseparated == (2, 3)

    def test_determinism(self):
        K, levels, fam = chain_pipeline()
        a = rn.namioka_check(K, fam, levels, subsets=8, seed=5)
        b = rn.namioka_check(K, fam, levels, subsets=8, seed=5)
        assert a == b

    def test_infinite_space_needs_explicit_samples(self):
        K, levels, fam = ordinal_pipeline()
        with pytest.raises(DomainError, match="pairs"):
            rn.namioka_check(K, fam, levels)

    def test_ordinal_run_with_samples(self):
        # separation pairs come from the materialized level points: a
        # depth truncation cannot split an unrefined gap from within,
        # so arbitrary interior pairs are out of its scope by design
        K, levels, fam = ordinal_pipeline()
        lvl_pts = sorted(levels[-1], key=lambda p: sp.point_key(K, p))
        pairs = [(u, v) for i, u in enumerate(lvl_pts) for v in lvl_pts[i + 1:]]
        pts = [parse(s) for s in ("0", "1", "5", "w", "w+1", "w*2", "w*3+4", "w^2")]
        rep = rn.namioka_check(K, fam, levels, pairs=pairs, sample_points=pts, subsets=6)
        assert rep.ok and rep.points_checked == 6 * len(pts)

    def test_interior_pair_of_an_unrefined_gap_is_reported(self):
        K, levels, fam = ordinal_pipeline()
        five, w = parse("5"), parse("w")
        assert rn.check_separation(K, fam, [(five, w)]) == (five, w)
        assert rn.pseudo_metric(fam).distance(five, w) == 0


class TestFragmentBridge:
    def test_every_subset_fragments_under_the_induced_metric(self):
        K, _levels, fam = chain_pipeline()
        d = rn.pseudo_metric(fam).distance
        eps = Fraction(1, 8)
        for mask in range(1, 256):
            members = tuple(i for i in range(8) if mask >> i & 1)
            w = fragment_check(K, members, eps)
            diam = max((d(u, v) for i, u in enumerate(w.inside) for v in w.inside[i + 1:]),
                       default=0)
            assert w.diameter == diam < eps

    def test_singleton_family_matches_its_own_difference(self):
        fam = toy_family()[:1]
        d = rn.pseudo_metric(fam).distance
        f = fam[0]
        assert d(0, 4) == abs(f.value(0) - f.value(4)) == 1


class TestSerialization:
    def test_family_round_trip(self):
        K, levels, fam = chain_pipeline()
        doc = rn.witness_bundle_to_json(K, fam, rn.dense_set(K, fam, levels), levels)
        assert doc["v"] == 1 and doc["kind"] == "rn-witness"
        assert doc["family"][0] == {"gap": ["0", "7"], "n": 1, "cut": ["0", "1"]}
        assert rn.witness_bundle_from_json(K, doc)[0] == tuple(
            sorted(fam, key=lambda f: rn._tag_key(K, f)))

    def test_witness_bundle_round_trip_over_ordinals(self):
        K, levels, fam = ordinal_pipeline()
        D = rn.dense_set(K, fam, levels)
        doc = rn.witness_bundle_to_json(K, fam, D, levels)
        fam2, D2, levels2 = rn.witness_bundle_from_json(K, doc)
        assert fam2 == tuple(sorted(fam, key=lambda f: rn._tag_key(K, f)))
        assert D2 == D and levels2 == levels
        # the decoded record carries the same index
        assert [D2.m_upto(n) for n in range(len(levels) + 1)] == \
            [D.m_upto(n) for n in range(len(levels) + 1)]
        keys = [K.key(parse(t)) for t in ("1", "w+1", "w*3+4", "w*7")]
        found = [D.deepest_gap(kw, n) for kw in keys for n in range(1, D.n_cap + 1)]
        assert [D2.deepest_gap(kw, n) for kw in keys for n in range(1, D.n_cap + 1)] == found
        assert any(k for k, _gap, _z in found)

    def test_dense_doc_carries_boxes_as_strings(self):
        K = FiniteChain(5)
        D = rn.dense_set(K, toy_family(), TOY_LEVELS)
        doc = rn.dense_to_json(K, D)
        assert doc["z"][0]["box"] == [["15/16", "17/16"]]
        assert rn.dense_from_json(sp.PointCodec(K), doc) == D

    def test_kind_guards(self):
        K = FiniteChain(5)
        with pytest.raises(DomainError):
            rn.witness_bundle_from_json(K, {"v": 1, "kind": "rn-dense", "family": []})
        with pytest.raises(DomainError):
            rn.dense_from_json(sp.PointCodec(K), {"v": 2, "kind": "rn-dense"})
        with pytest.raises(DomainError):
            rn.witness_bundle_from_json(K, {"v": 1, "kind": "bundle"})

    def test_multi_cut_functions_refuse_to_serialize(self):
        K = FiniteChain(5)
        f = rn.StepFunction(
            K, ((0, 1, Fraction(1, 2)), (2, 3, Fraction(1, 2))), (0, 4, 1))
        with pytest.raises(DomainError, match="single-cut"):
            rn.witness_bundle_to_json(K, (f,), rn.dense_set(K, toy_family(), TOY_LEVELS), TOY_LEVELS)
