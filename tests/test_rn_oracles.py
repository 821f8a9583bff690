"""The indexed density pipeline against exhaustive oracles.

`PseudoMetric.distance` evaluates only the functions a bisection finds
posted between its arguments, `check_separation` confirms candidates the
same way, a dense set finds the gap `approximate` steers by with one
bisection per depth, and `namioka_check` sweeps only adjacent pairs when
every jump is positive. Each is compared here with `bruteforce`, which
evaluates every function on every pair, on finite, split and ordinal
stages and on the negative controls. A call-count guard keeps `namioka_check` linear.
"""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ordfrag import bruteforce as bf
from ordfrag import rnwit as rn
from ordfrag import space as sp
from ordfrag.frag import ln_decomposition
from ordfrag.openpart import partition_open
from ordfrag.ordinal import Ordinal, parse
from ordfrag.ptree import build_tree, to_staged

STAGES = [("finite", 6), ("finite", 13), ("finite", 24), ("split", 5), ("split", 9),
          ("ordinal", 0)]
VARIANTS = ["full", "scaled", "dropped", "subset", "zigzag"]


@functools.cache
def stage(kind, size):
    """(K, levels, family) of a top-level cut, as the cli-staged benchmark cuts."""
    if kind == "ordinal":
        K = sp.OrdinalInterval(parse("w^2"))
        st = to_staged(build_tree(K, 120), 3, range(1, 3), limit_top=False)
    else:
        K = sp.FiniteChain(size) if kind == "finite" else sp.SplitChain(size)
        tree = build_tree(K, 4 * sp.space_size(K))
        m = max(n.level.terms[0][1] for n in tree.nodes.values() if n.level.terms)
        st = to_staged(tree, m, range(max(m - 1, 1)), limit_top=False)
    levels = ln_decomposition(st, partition_open(st))
    return K, levels, rn.separating_family(K, levels)


def zigzag(K, levels):
    """One function with a cut after every point (every final-level
    point on an infinite space), jumping +1/2 and -1/2 in turn: it
    separates every adjacent pair and no pair two steps apart."""
    if sp.is_finite_space(K):
        pts = sp.enumerate_points(K)
    else:
        pts = sorted(levels[-1], key=lambda p: sp.point_key(K, p))
    cuts = tuple((lo, sp.adjacency(K, lo)[1], Fraction(1 if i % 2 == 0 else -1, 2))
                 for i, lo in enumerate(pts[:-1]))
    return rn.StepFunction(K, cuts, (pts[0], pts[-1], 1))


def family(draw, kind, size, variant):
    K, levels, fam = stage(kind, size)
    if variant == "scaled":
        return rn.scale_family(fam, 3)
    if variant == "dropped":
        return rn.drop_level(fam, len(levels) - 1)
    if variant == "full":
        return fam
    picked = tuple(f for f in fam if draw(hst.booleans()))
    return picked + (zigzag(K, levels),) if variant == "zigzag" else picked


def points(K):
    if sp.is_finite_space(K):
        return sp.enumerate_points(K)
    small = [Ordinal(tuple(t for t in ((1, a), (0, b)) if t[1] > 0))
             for a in range(5) for b in (0, 1, 2, 7)]
    return small + [parse("w^2")]


def pairs_of(draw, K, count):
    pts = points(K)
    out = []
    for _ in range(count):
        i = draw(hst.integers(0, len(pts) - 2))
        out.append((pts[i], pts[draw(hst.integers(i + 1, len(pts) - 1))]))
    return out


def all_pairs(pts):
    return [(u, v) for i, u in enumerate(pts) for v in pts[i + 1:]]


CASE = hst.tuples(hst.sampled_from(STAGES), hst.sampled_from(VARIANTS))


@settings(max_examples=120, deadline=None)
@given(CASE, hst.data())
def test_distance_matches_the_oracle(case, data):
    (kind, size), variant = case
    fam = family(data.draw, kind, size, variant)
    K = stage(kind, size)[0]
    d = rn.pseudo_metric(fam)
    for u, v in pairs_of(data.draw, K, 6):
        assert d.distance(u, v) == d.distance(v, u) == bf.all_function_distance(fam, u, v)


@settings(max_examples=120, deadline=None)
@given(CASE, hst.data())
def test_check_separation_matches_the_oracle(case, data):
    (kind, size), variant = case
    fam = family(data.draw, kind, size, variant)
    K = stage(kind, size)[0]
    pairs = pairs_of(data.draw, K, 12)
    if sp.is_finite_space(K) and data.draw(hst.booleans()):
        pairs = all_pairs(points(K))
    assert rn.check_separation(K, fam, pairs) == bf.all_pairs_separation(fam, pairs)


@settings(max_examples=120, deadline=None)
@given(CASE.filter(lambda c: c[1] != "zigzag"), hst.data())
def test_deepest_gap_matches_the_oracle(case, data):
    (kind, size), variant = case
    K, levels, _fam = stage(kind, size)
    members = data.draw(hst.permutations(family(data.draw, kind, size, variant)))
    D = rn.dense_set(K, members, levels)
    for w in data.draw(hst.lists(hst.sampled_from(points(K)), min_size=1, max_size=6)):
        n = data.draw(hst.integers(1, len(levels)))
        assert D.deepest_gap(sp.point_key(K, w), n)[:2] == bf.deepest_containing_gap(members, w, n)


@settings(max_examples=80, deadline=None)
@given(CASE.filter(lambda c: c[1] != "zigzag"), hst.data())
def test_approximate_meets_its_bound_under_the_oracle(case, data):
    (kind, size), variant = case
    K, levels, _fam = stage(kind, size)
    fam = family(data.draw, kind, size, variant)
    D = rn.dense_set(K, fam, levels)
    members = {sp.point_key(K, p) for p in D.points}
    for w in data.draw(hst.lists(hst.sampled_from(points(K)), min_size=1, max_size=6)):
        n = data.draw(hst.integers(1, D.n_cap))
        try:
            z = rn.approximate(K, w, n, fam, D)
        except rn.GuaranteeFailure as bad:
            assert bf.all_function_distance(fam, w, bad.z) == bad.distance >= Fraction(1, n)
            continue
        assert sp.point_key(K, z) in members
        assert bf.all_function_distance(fam, w, z) < Fraction(1, n)


@settings(max_examples=60, deadline=None)
@given(CASE, hst.data())
def test_namioka_check_matches_the_oracle(case, data):
    (kind, size), variant = case
    K, levels, _fam = stage(kind, size)
    fam = family(data.draw, kind, size, variant)
    ordered = sorted(fam, key=lambda f: rn._tag_key(K, f))
    if sp.is_finite_space(K):
        kw = {}
        pairs = all_pairs(points(K))
    else:
        pairs = pairs_of(data.draw, K, 12)
        kw = {"pairs": pairs, "sample_points": points(K)}
    rep = rn.namioka_check(K, fam, levels, subsets=2, seed=data.draw(hst.integers(0, 9)), **kw)
    assert rep.unseparated == bf.all_pairs_separation(ordered, pairs)
    assert rep.pairs_checked == len(pairs)
    if rep.ok:
        assert rep.subsets_checked == 2 and rep.density_failures == ()


@pytest.mark.parametrize("kind, size", [s for s in STAGES if s[0] != "ordinal"])
def test_a_non_positive_jump_keeps_the_per_pair_sweep(kind, size):
    K, levels, _fam = stage(kind, size)
    zig = zigzag(K, levels)
    pts = points(K)
    # every adjacent pair is separated, so only the per-pair sweep finds this
    assert rn.check_separation(K, (zig,), zip(pts, pts[1:])) is None
    rep = rn.namioka_check(K, (zig,), levels)
    assert rep.unseparated == (pts[0], pts[2]) == bf.all_pairs_separation((zig,), all_pairs(pts))
    assert any("non-positive" in p for p in rep.norm_problems)


@pytest.mark.parametrize("size", [129, 257])
def test_namioka_check_makes_linearly_many_evaluations(size, monkeypatch):
    # the all-pairs sweep made 16,946 and 65,792 calls on these stages
    calls = []
    value = rn.StepFunction.value
    monkeypatch.setattr(rn.StepFunction, "value", lambda f, w: calls.append(w) or value(f, w))
    K = sp.FiniteChain(size)
    tree = build_tree(K, 4 * size)
    m = max(n.level.terms[0][1] for n in tree.nodes.values() if n.level.terms)
    st = to_staged(tree, m, range(max(m - 1, 1)), limit_top=False)
    levels = ln_decomposition(st, partition_open(st))
    rep = rn.namioka_check(K, rn.separating_family(K, levels), levels, subsets=2)
    assert rep.ok and rep.pairs_checked == size * (size - 1) // 2
    assert len(calls) <= 4 * size
