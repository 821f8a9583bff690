"""Order space semantics: comparison, adjacency, counting, splitting."""

import dataclasses
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordfrag import generators as gen
from ordfrag.bruteforce import canonical_split
from ordfrag.errors import DomainError
from ordfrag.ordinal import ZERO, from_int, parse
from ordfrag.space import (
    INFINITE,
    MINUS,
    PLUS,
    ClosedInterval,
    FiniteChain,
    OrderSum,
    OrdinalInterval,
    PointCodec,
    SplitChain,
    adjacency,
    compare_points,
    enumerate_interval,
    enumerate_points,
    is_finite_space,
    parse_point,
    point_count,
    point_key,
    render_point,
    space_from_json,
    validate_point,
    whole_interval,
)

W = parse("w")
W2 = parse("w^2")

SMALL_SPACES = [
    FiniteChain(1),
    FiniteChain(8),
    SplitChain(3),
    OrderSum((FiniteChain(2), FiniteChain(2))),
    OrderSum((FiniteChain(3), SplitChain(2), FiniteChain(1))),
    OrderSum((OrderSum((FiniteChain(2), FiniteChain(2))), FiniteChain(3))),
]


def sample_space(seed, max_chain=64):
    """A small assorted space: chain, ordinal interval, split chain or a
    two-level order sum."""
    rng = gen.rng_of(seed)
    roll = rng.randrange(5)
    if roll == 0:
        return FiniteChain(rng.randint(1, max_chain))
    if roll == 1:
        return OrdinalInterval(parse(rng.choice(gen.ALPHA_MENU)))
    if roll == 2:
        return SplitChain(rng.randint(1, max_chain // 2 + 1))
    parts = tuple(
        sample_space(rng, max_chain=max(2, max_chain // 4))
        if roll == 4 and d == 0 and rng.random() < 0.3
        else _flat_space(rng, max_chain=max(2, max_chain // 4))
        for d in range(rng.randint(1, 4))
    )
    return OrderSum(parts)


def _flat_space(rng, max_chain):
    roll = rng.randrange(3)
    if roll == 0:
        return FiniteChain(rng.randint(1, max_chain))
    if roll == 1:
        return OrdinalInterval(parse(rng.choice(gen.ALPHA_MENU)))
    return SplitChain(rng.randint(1, max_chain // 2 + 1))


def sample_interval(rng, space, min_points=1) -> ClosedInterval:
    """A random interval of the space with at least `min_points` points."""
    for _ in range(200):
        p, q = gen.sample_point(rng, space), gen.sample_point(rng, space)
        if compare_points(space, p, q) == "greater":
            p, q = q, p
        iv = ClosedInterval(p, q)
        cnt = point_count(space, iv)
        if cnt is INFINITE or cnt >= min_points:
            return iv
    raise DomainError(f"could not sample an interval with {min_points} points from {space}")


def test_descriptor_validation():
    with pytest.raises(DomainError):
        FiniteChain(0)
    with pytest.raises(DomainError):
        SplitChain(-1)
    with pytest.raises(DomainError):
        OrderSum(())
    with pytest.raises(DomainError):
        FiniteChain(3, labels=("a", "b"))


def test_point_validation():
    K = OrdinalInterval(W)
    validate_point(K, W)
    with pytest.raises(DomainError):
        validate_point(K, parse("w+1"))
    with pytest.raises(DomainError):
        validate_point(FiniteChain(4), 4)
    with pytest.raises(DomainError):
        validate_point(SplitChain(2), (2, MINUS))
    with pytest.raises(DomainError):
        validate_point(OrderSum((FiniteChain(2),)), (0, 2))


class TestCompare:
    def test_pinned_sum_order(self):
        K = OrderSum((FiniteChain(2), FiniteChain(2)))
        assert compare_points(K, (0, 1), (1, 0)) == "less"

    def test_split_order(self):
        K = SplitChain(3)
        assert compare_points(K, (0, MINUS), (0, PLUS)) == "less"
        assert compare_points(K, (0, PLUS), (1, MINUS)) == "less"
        assert compare_points(K, (2, PLUS), (2, PLUS)) == "equal"

    def test_ordinal_points(self):
        K = OrdinalInterval(W2)
        assert compare_points(K, W, parse("w+1")) == "less"
        assert compare_points(K, W2, W) == "greater"

    def test_total_order_bulk(self):
        rng = random.Random(4242)
        menu = SMALL_SPACES + [OrdinalInterval(W2), OrdinalInterval(parse("w^2*3+5"))]
        for _ in range(10_000):
            K = rng.choice(menu)
            a, b, c = (gen.sample_point(rng, K) for _ in range(3))
            rel = compare_points(K, a, b)
            flip = {"less": "greater", "greater": "less", "equal": "equal"}
            assert compare_points(K, b, a) == flip[rel]
            if rel != "greater" and compare_points(K, b, c) != "greater":
                assert compare_points(K, a, c) != "greater"


class TestAdjacency:
    def test_pinned(self):
        K = OrdinalInterval(W2)
        assert adjacency(K, W) == (None, parse("w+1"))
        assert adjacency(FiniteChain(8), 3) == (2, 4)
        assert adjacency(SplitChain(3), (0, PLUS)) == ((0, MINUS), (1, MINUS))

    def test_endpoints(self):
        for K in SMALL_SPACES:
            assert adjacency(K, K.minimum())[0] is None
            assert adjacency(K, K.maximum())[1] is None

    def test_seam_crossing(self):
        K = OrderSum((FiniteChain(2), SplitChain(2)))
        assert adjacency(K, (0, 1))[1] == (1, (0, MINUS))
        assert adjacency(K, (1, (0, MINUS)))[0] == (0, 1)

    def test_limit_has_no_pred_even_inside_sum(self):
        K = OrderSum((OrdinalInterval(W), FiniteChain(2)))
        pred, succ = adjacency(K, (0, W))
        assert pred is None
        assert succ == (1, 0)

    def test_exhaustive_coherence_finite(self):
        for K in SMALL_SPACES:
            pts = enumerate_points(K)
            assert pts[0] == K.minimum() and pts[-1] == K.maximum()
            assert sorted(map(lambda p: point_key(K, p), pts)) == [point_key(K, p) for p in pts]
            for a, b in zip(pts, pts[1:]):
                assert adjacency(K, a)[1] == b
                assert adjacency(K, b)[0] == a

    def test_sampled_coherence_ordinal(self):
        rng = random.Random(77)
        K = OrdinalInterval(parse("w^3"))
        for _ in range(500):
            p = gen.sample_point(rng, K)
            pred, succ = adjacency(K, p)
            if succ is not None:
                assert adjacency(K, succ)[0] == p
                assert point_count(K, ClosedInterval(p, succ)) == 2
            if pred is not None:
                assert adjacency(K, pred)[1] == p


class TestCounting:
    def test_pinned(self):
        K = OrdinalInterval(W)
        assert point_count(K, ClosedInterval(W, W)) == 1
        assert point_count(K, ClosedInterval(from_int(2), W)) is INFINITE
        assert point_count(SplitChain(3), ClosedInterval((0, MINUS), (1, PLUS))) == 4

    def test_infinite_is_one_count_above_every_finite_one(self):
        assert INFINITE > 10**400 and not INFINITE <= 2 and INFINITE == float("inf")
        assert repr(INFINITE) == str(INFINITE) == f"{INFINITE}" == "INFINITE"
        assert type(INFINITE)() is INFINITE
        assert pickle.loads(pickle.dumps(INFINITE)) is INFINITE

    def test_ordinal_finite_windows(self):
        K = OrdinalInterval(W2)
        assert point_count(K, ClosedInterval(W, parse("w+5"))) == 6
        assert point_count(K, ClosedInterval(ZERO, from_int(9))) == 10
        assert point_count(K, ClosedInterval(W, W2)) is INFINITE

    def test_sum_seams(self):
        K = OrderSum((FiniteChain(3), OrdinalInterval(W), FiniteChain(2)))
        assert point_count(K, ClosedInterval((0, 1), (1, from_int(2)))) == 5
        assert point_count(K, ClosedInterval((0, 0), (2, 1))) is INFINITE
        assert point_count(K, ClosedInterval((1, W), (2, 1))) == 3
        assert not is_finite_space(K)

    def test_enumerate_matches_count(self):
        rng = random.Random(31)
        for K in SMALL_SPACES:
            iv = sample_interval(rng, K)
            pts = enumerate_interval(K, iv)
            assert len(pts) == point_count(K, iv)

    def test_enumerate_infinite_rejected(self):
        K = OrdinalInterval(W)
        with pytest.raises(DomainError):
            enumerate_interval(K, whole_interval(K))


class TestCanonicalSplit:
    def test_pinned(self):
        K = OrdinalInterval(W)
        assert canonical_split(K, whole_interval(K)) == from_int(1)
        K2 = OrdinalInterval(W2)
        assert canonical_split(K2, whole_interval(K2)) == W
        assert canonical_split(FiniteChain(8), ClosedInterval(0, 7)) == 3

    def test_ordinal_tail(self):
        K = OrdinalInterval(W2)
        assert canonical_split(K, ClosedInterval(W, W2)) == parse("w*2")
        assert canonical_split(K, ClosedInterval(from_int(1), W)) == from_int(2)

    def test_too_small_rejected(self):
        with pytest.raises(DomainError):
            canonical_split(FiniteChain(8), ClosedInterval(3, 4))
        with pytest.raises(DomainError):
            canonical_split(FiniteChain(8), ClosedInterval(3, 3))

    def test_strictly_inside_everywhere(self):
        rng = random.Random(6021)
        menu = SMALL_SPACES + [
            OrdinalInterval(W2),
            OrdinalInterval(parse("w^3")),
            OrderSum((OrdinalInterval(W), FiniteChain(4))),
            OrderSum((FiniteChain(1), OrdinalInterval(W), FiniteChain(1))),
        ]
        for _ in range(2_000):
            K = rng.choice(menu)
            try:
                iv = sample_interval(rng, K, min_points=3)
            except DomainError:
                continue  # one-point space
            w = canonical_split(K, iv)
            assert compare_points(K, iv.lo, w) == "less"
            assert compare_points(K, w, iv.hi) == "less"

    def test_sum_boundary_fallbacks(self):
        # lo sits at the right edge of its part: boundary must move right
        K = OrderSum((FiniteChain(2), FiniteChain(2), FiniteChain(2)))
        w = canonical_split(K, ClosedInterval((0, 1), (2, 1)))
        assert compare_points(K, (0, 1), w) == "less"
        # hi is the sole point of its part in the interval
        w2 = canonical_split(K, ClosedInterval((1, 1), (2, 1)))
        assert w2 == (2, 0)

    def test_infinite_part_uses_index_median(self):
        K = OrderSum((FiniteChain(2), OrdinalInterval(W), FiniteChain(2)))
        iv = whole_interval(K)
        w = canonical_split(K, iv)
        assert compare_points(K, iv.lo, w) == "less"
        assert compare_points(K, w, iv.hi) == "less"


class TestRendering:
    @pytest.mark.parametrize(
        "K,p,s",
        [
            (FiniteChain(8), 5, "5"),
            (OrdinalInterval(W2), parse("w*2+1"), "w*2+1"),
            (SplitChain(4), (3, PLUS), "(3,+)"),
            (OrderSum((FiniteChain(9), FiniteChain(2))), (0, 5), "part0:5"),
            (
                OrderSum((OrderSum((FiniteChain(2), OrdinalInterval(W))), FiniteChain(2))),
                (0, (1, W)),
                "part0:part1:w",
            ),
        ],
    )
    def test_roundtrip_pinned(self, K, p, s):
        assert render_point(K, p) == s
        assert parse_point(K, s) == p

    def test_split_point_with_spaces_inside_parses(self):
        assert parse_point(SplitChain(4), "( 3 , + )") == (3, PLUS)

    def test_roundtrip_random(self):
        rng = random.Random(112)
        for _ in range(1_000):
            K = sample_space(rng)
            p = gen.sample_point(rng, K)
            assert parse_point(K, render_point(K, p)) == p

    @pytest.mark.parametrize("K, text", [
        (FiniteChain(3), "\u00b2"),
        (SplitChain(2), "(\u00b2,+)"),
        (OrderSum((FiniteChain(2),)), "part\u00b2:0"),
        (OrdinalInterval(W), "\u00b2"),
        (OrdinalInterval(W2), "w+\u00b2"),
    ])
    def test_digits_int_cannot_read_are_bad_points(self, K, text):
        # "\u00b2" (superscript two) passes str.isdigit but not int()
        with pytest.raises(DomainError):
            parse_point(K, text)

    def test_reject_bad_points(self):
        with pytest.raises(DomainError):
            parse_point(FiniteChain(3), "7")
        with pytest.raises(DomainError):
            parse_point(SplitChain(3), "(1,*)")
        with pytest.raises(DomainError):
            parse_point(OrderSum((FiniteChain(2),)), "part1:0")


class TestJson:
    def test_space_roundtrip(self):
        rng = random.Random(900)
        for _ in range(300):
            K = sample_space(rng)
            assert space_from_json(K.to_json()) == K

    def test_pinned_documents(self):
        assert OrdinalInterval(parse("w^2*3")).to_json() == {"kind": "ordinal", "alpha": "w^2*3"}
        assert FiniteChain(8).to_json() == {"kind": "finite", "size": 8}
        assert space_from_json({"kind": "split", "size": 4}) == SplitChain(4)
        doc = {"kind": "sum", "parts": [{"kind": "finite", "size": 2}, {"kind": "ordinal", "alpha": "w"}]}
        assert space_from_json(doc).to_json() == doc

    def test_interval_roundtrip(self):
        K = OrdinalInterval(W2)
        iv = ClosedInterval(W, parse("w*2"))
        assert PointCodec(K).read_interval(PointCodec(K).write_interval(iv)) == (iv.lo, iv.hi)

    def test_bad_documents(self):
        with pytest.raises(DomainError):
            space_from_json({"kind": "mystery"})
        with pytest.raises(DomainError):
            space_from_json(["finite", 3])


class TestClosedIntervalRecord:
    """ClosedInterval is a frozen value: these pin its record semantics."""

    IV = ClosedInterval(W, (1, PLUS))

    @pytest.mark.parametrize("name", ["lo", "hi"])
    def test_fields_cannot_be_assigned(self, name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(self.IV, name, 3)
        assert self.IV.lo == W and self.IV.hi == (1, PLUS)

    def test_equal_values_compare_and_hash_equal(self):
        twin = ClosedInterval(parse("w"), (1, PLUS))
        assert twin == self.IV and hash(twin) == hash(self.IV)
        assert ClosedInterval(W, (1, MINUS)) != self.IV
        assert len({self.IV, twin, ClosedInterval(lo=W, hi=(1, PLUS))}) == 1

    def test_repr(self):
        assert repr(self.IV) == "ClosedInterval(lo=Ordinal(terms=((1, 1),)), hi=(1, 1))"
        assert repr(ClosedInterval(3, 5)) == "ClosedInterval(lo=3, hi=5)"

    def test_replace_pickle_and_match(self):
        assert dataclasses.replace(self.IV, hi=W2) == ClosedInterval(W, W2)
        assert pickle.loads(pickle.dumps(self.IV)) == self.IV
        match self.IV:
            case ClosedInterval(lo, hi):
                assert (lo, hi) == (W, (1, PLUS))
        assert not hasattr(self.IV, "__dict__")


@given(st.integers(0, 2**32 - 1))
def test_sampling_always_valid(seed):
    K = sample_space(seed)
    p = gen.sample_point(seed + 1 if seed + 1 < 2**32 else 0, K)
    validate_point(K, p)
