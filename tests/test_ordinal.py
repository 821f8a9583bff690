"""Ordinal CNF arithmetic tests.

The addition oracle below is a separate algorithm (local rewriting to a
fixpoint) so the expected values for derived examples are not produced
by the code under test.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordfrag.bruteforce import left_subtract
from ordfrag.errors import DomainError, RangeError
from ordfrag.ordinal import (
    EXPONENT_BOUND,
    ONE,
    ZERO,
    Ordinal,
    add,
    degree,
    from_int,
    fundamental_sequence,
    parse,
    render,
)
from ordfrag.space import INFINITE, OrdinalInterval

OMEGA = Ordinal(((1, 1),))


def absorb_sum(a: Ordinal, b: Ordinal) -> Ordinal:
    """Oracle for add: concatenate term lists, then repeatedly rewrite the
    leftmost adjacent violation (absorb a smaller-exponent left term, merge
    equal exponents) until the list is a valid CNF again."""
    out = list(a.terms) + list(b.terms)
    while True:
        for i in range(len(out) - 1):
            (e1, c1), (e2, c2) = out[i], out[i + 1]
            if e1 < e2:
                out[i : i + 2] = [(e2, c2)]
                break
            if e1 == e2:
                out[i : i + 2] = [(e1, c1 + c2)]
                break
        else:
            return Ordinal(tuple(out))


def ordinals(max_exp=4, max_terms=4, max_coeff=9):
    """Hypothesis strategy for small CNF ordinals."""

    def build(pairs):
        exps = sorted({e for e, _ in pairs}, reverse=True)
        coeff = dict(pairs)
        return Ordinal(tuple((e, coeff[e]) for e in exps))

    pair = st.tuples(st.integers(0, max_exp), st.integers(1, max_coeff))
    return st.lists(pair, max_size=max_terms).map(build)


def random_ordinal(rng, max_exp=4):
    n_terms = rng.randint(0, 3)
    exps = sorted(rng.sample(range(max_exp + 1), min(n_terms, max_exp + 1)), reverse=True)
    return Ordinal(tuple((e, rng.randint(1, 9)) for e in exps))


class TestConstruction:
    def test_zero_is_empty(self):
        assert ZERO.terms == ()
        assert ZERO.is_zero() and ZERO.as_int() == 0

    def test_rejects_nonincreasing_exponents(self):
        with pytest.raises(DomainError):
            Ordinal(((1, 1), (1, 2)))
        with pytest.raises(DomainError):
            Ordinal(((0, 1), (2, 1)))

    def test_rejects_bad_coefficients(self):
        with pytest.raises(DomainError):
            Ordinal(((1, 0),))
        with pytest.raises(DomainError):
            Ordinal(((-1, 2),))

    def test_exponent_bound_enforced(self):
        Ordinal(((EXPONENT_BOUND, 1),))  # at the bound: fine
        with pytest.raises(RangeError):
            Ordinal(((EXPONENT_BOUND + 1, 1),))
        with pytest.raises(RangeError):
            parse("w^9")

    def test_from_int(self):
        assert from_int(0) == ZERO
        assert from_int(7) == Ordinal(((0, 7),))
        with pytest.raises(DomainError):
            from_int(-1)


class TestCompare:
    def test_pinned(self):
        assert parse("w*2+1") > parse("w*2")
        assert ZERO == ZERO and not ZERO < ZERO
        assert parse("w^2") > parse("w*5+7")

    def test_rich_comparisons_match(self):
        a, b = parse("w*3"), parse("w^2")
        assert a < b and not b < a and a != b

    def test_trichotomy_and_transitivity_bulk(self):
        rng = random.Random(20260816)
        for _ in range(10_000):
            a, b, c = (random_ordinal(rng) for _ in range(3))
            assert [a < b, a == b, b < a].count(True) == 1
            assert (a < b) == (b > a) and (a == b) == (b == a)
            if a <= b <= c:
                assert a <= c

    def test_finite_agrees_with_int_order(self):
        for m in range(12):
            for n in range(12):
                assert (from_int(m) < from_int(n)) == (m < n)
                assert (from_int(m) == from_int(n)) == (m == n)


class TestAdd:
    def test_absorption_pinned(self):
        assert add(ONE, OMEGA) == OMEGA
        assert add(parse("w*2+3"), OMEGA) == parse("w*3")

    def test_derived_example_frozen(self):
        # oracle (absorb_sum) computed w^2+w*5+1; frozen here
        a, b = parse("w^2+w*2"), parse("w*3+1")
        expected = parse("w^2+w*5+1")
        assert absorb_sum(a, b) == expected
        assert add(a, b) == expected

    def test_identities(self):
        for s in ["0", "5", "w", "w^2*3+w*2+5", "w^4+1"]:
            a = parse(s)
            assert add(a, ZERO) == a
            assert add(ZERO, a) == a

    @given(ordinals(), ordinals())
    def test_matches_rewrite_oracle(self, a, b):
        assert add(a, b) == absorb_sum(a, b)

    @given(ordinals(), ordinals())
    def test_monotone_right(self, a, b):
        assert add(a, b) >= a
        if not b.is_zero():
            assert add(a, b) > a

    def test_associative_bulk(self):
        rng = random.Random(99173)
        for _ in range(10_000):
            a, b, c = (random_ordinal(rng) for _ in range(3))
            assert add(add(a, b), c) == add(a, add(b, c))

    def test_plus_operator(self):
        assert parse("w") + 2 == parse("w+2")
        assert parse("w+1") + parse("w") == parse("w*2")


class TestClassify:
    def test_pinned(self):
        assert ZERO.kind == "zero"
        assert from_int(4).kind == "successor"
        assert from_int(4).predecessor() == from_int(3)
        assert OMEGA.kind == "limit"
        assert parse("w^2+w").kind == "limit"
        assert parse("w^2+1").kind == "successor"
        assert parse("w^2+1").predecessor() == parse("w^2")

    def test_predecessor_of_limit_rejected(self):
        with pytest.raises(DomainError):
            OMEGA.predecessor()

    @given(ordinals())
    def test_successor_roundtrip(self, a):
        s = add(a, ONE)
        assert s.kind == "successor" and s.predecessor() == a


class TestFundamentalSequence:
    def test_pinned(self):
        assert fundamental_sequence(OMEGA, 3) == from_int(3)
        assert fundamental_sequence(parse("w^2"), 3) == parse("w*3")

    def test_derived_example(self):
        # (b + w^e)[i] = b + w^(e-1)*i with b = w^2+w here
        assert fundamental_sequence(parse("w^2+w*2"), 5) == parse("w^2+w+5")

    def test_rejects_non_limits(self):
        for s in ["0", "3", "w+1"]:
            with pytest.raises(DomainError):
                fundamental_sequence(parse(s), 1)

    def test_strictly_increasing_and_below(self):
        rng = random.Random(5511)
        limits = [
            parse(s)
            for s in ["w", "w*2", "w^2", "w^2+w", "w^3+w^2*2", "w^4", "w^3*7+w*2"]
        ]
        for a in limits:
            prev = None
            for i in range(65):
                v = fundamental_sequence(a, i)
                assert v < a
                if prev is not None:
                    assert prev < v
                prev = v
        # and on random limits up to w^4
        for _ in range(2_000):
            a = random_ordinal(rng)
            if a.kind != "limit":
                a = add(a, OMEGA)
            i = rng.randint(0, 63)
            assert fundamental_sequence(a, i) < fundamental_sequence(a, i + 1) < a


class TestDegree:
    def test_pinned(self):
        assert degree(parse("w^2*3+w")) == 2
        assert degree(from_int(7)) == 0
        assert degree(parse("w^3")) == 3
        assert degree(ZERO) == 0


class TestLeftSubtract:
    def test_basic(self):
        assert left_subtract(from_int(2), OMEGA) == OMEGA
        assert left_subtract(parse("w"), parse("w+5")) == from_int(5)
        assert left_subtract(parse("w*2"), parse("w^2")) == parse("w^2")
        assert left_subtract(parse("w+3"), parse("w+3")) == ZERO

    def test_rejects_larger_left(self):
        with pytest.raises(DomainError):
            left_subtract(OMEGA, from_int(3))

    @given(ordinals(), ordinals())
    def test_inverts_add(self, a, g):
        assert add(a, left_subtract(a, add(a, g))) == add(a, g)

    @given(ordinals(), ordinals())
    def test_total_on_ordered_pairs(self, a, b):
        lo, hi = (a, b) if a <= b else (b, a)
        assert add(lo, left_subtract(lo, hi)) == hi


def exponent_scan(lo, hi):
    """The split point as ordinal arithmetic: lo + w^e for the largest e
    with lo + w^e < hi, or None."""
    for e in range(degree(hi), -1, -1):
        w = add(lo, Ordinal(((e, 1),)))
        if w < hi:
            return w
    return None


class TestIntervalTermsAgainstArithmetic:
    """`OrdinalInterval.count` and `split` read the CNF term tuples;
    these hold them to left subtraction and the exponent scan below w^4."""

    K = OrdinalInterval(parse("w^4"))

    @given(ordinals(max_exp=3), ordinals(max_exp=3))
    @settings(max_examples=400)
    def test_count_matches_left_subtract(self, a, b):
        if a > b:
            with pytest.raises(DomainError) as want:
                left_subtract(a, b)
            with pytest.raises(DomainError) as got:
                self.K.count(a, b)
            assert str(got.value) == str(want.value)
        else:
            g = left_subtract(a, b)
            assert self.K.count(a, b) == (g.as_int() + 1 if degree(g) == 0 else INFINITE)

    @given(ordinals(max_exp=3))
    def test_count_of_equal_endpoints(self, a):
        assert self.K.count(a, a) == 1 == left_subtract(a, a).as_int() + 1

    @given(ordinals(max_exp=3), ordinals(max_exp=3))
    @settings(max_examples=400)
    def test_split_matches_exponent_scan(self, a, b):
        lo, hi = (a, b) if a <= b else (b, a)
        try:
            got = self.K.split(lo, hi, self.K.count(lo, hi))
        except DomainError:
            got = None
        assert got == exponent_scan(lo, hi)

    @pytest.mark.parametrize("lo, hi", [
        ("0", "0"), ("w", "w"), ("w^3*2+w+7", "w^3*2+w+7"),  # equal
        ("0", "1"), ("w", "w+1"), ("w^2*2+w+4", "w^2*2+w+5"), ("w^3+w^2", "w^3+w^2+1"),  # adjacent
    ])
    def test_split_refuses_equal_and_adjacent_points(self, lo, hi):
        """No point lies strictly between equal or adjacent endpoints: the
        exponent scan finds none and `split` refuses, also when the ends
        share every term but the last."""
        lo, hi = parse(lo), parse(hi)
        assert exponent_scan(lo, hi) is None
        with pytest.raises(DomainError, match="no splitting exponent found"):
            self.K.split(lo, hi, self.K.count(lo, hi))

    @pytest.mark.parametrize("lo, hi, want", [
        ("w^3+w", "w^3+w^2", "w^3+w*2"),  # hi's first differing term is w^2; the split is at w
        ("w^3*2+5", "w^3*2+w", "w^3*2+6"),
        ("w^2+w*3+1", "w^2*2", "w^2+w*4"),
        ("w+3", "w^2", "w*2"),
    ])
    def test_split_below_a_shared_prefix(self, lo, hi, want):
        lo, hi = parse(lo), parse(hi)
        assert self.K.split(lo, hi, self.K.count(lo, hi)) == exponent_scan(lo, hi) == parse(want)

    def test_pinned(self):
        assert self.K.count(parse("w+3"), parse("w+5")) == 3
        assert self.K.count(parse("w"), parse("w+5")) == 6
        assert self.K.count(from_int(2), OMEGA) is INFINITE
        assert self.K.split(parse("w^2+w*3+1"), parse("w^3"), INFINITE) == parse("w^2*2")
        assert self.K.split(parse("w+1"), parse("w+4"), 4) == parse("w+2")


class TestParseRender:
    def test_pinned_renderings(self):
        assert render(parse("w^2*3+w*2+5")) == "w^2*3+w*2+5"
        assert render(ZERO) == "0"
        assert render(OMEGA) == "w"
        assert render(parse("w^3")) == "w^3"
        assert str(parse("w*2")) == "w*2"

    @given(ordinals(max_exp=EXPONENT_BOUND))
    def test_roundtrip(self, a):
        assert parse(render(a)) == a

    @pytest.mark.parametrize(
        "bad",
        ["", "w^", "w**2", "2w", "w+w", "w+w^2", "0+1", "w^1", "w*1", "w^0*3", "w^2*0", "+w", "w^-1"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(DomainError):
            parse(bad)

    def test_whitespace_tolerated_at_edges(self):
        assert parse(" w*2+1 ") == parse("w*2+1")
