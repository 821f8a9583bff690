"""Pinned outputs of the space primitives.

For every point and interval of small spaces of each kind, and for
seeded points of infinite ordinal intervals and sums holding one, a
transcript records the order of point keys, adjacency, point counts,
canonical splits (or the DomainError they raise), the render/parse round
trip and the JSON form. The transcripts are pinned by sha256 digest and
the error texts of bad points literally, so a change to how the space
kinds are implemented must reproduce them byte for byte.
"""

import hashlib
import random

import pytest

from ordfrag import generators as gen
from ordfrag import space as sp
from ordfrag.bruteforce import canonical_split
from ordfrag.errors import DomainError
from ordfrag.ordinal import ONE, ZERO, from_int, parse
from ordfrag.space import ClosedInterval, FiniteChain, OrderSum, OrdinalInterval, SplitChain

W = parse("w")

SMALL = {
    "finite-1": FiniteChain(1),
    "finite-6": FiniteChain(6),
    "finite-labelled": FiniteChain(4, ("a", "b", "c", "d")),
    "split-1": SplitChain(1),
    "split-4": SplitChain(4),
    "ordinal-0": OrdinalInterval(ZERO),
    "ordinal-6": OrdinalInterval(from_int(6)),
    "sum-1": OrderSum((FiniteChain(2),)),
    "sum-3": OrderSum((FiniteChain(3), SplitChain(2), OrdinalInterval(from_int(2)))),
    "sum-nested": OrderSum((SplitChain(1), OrderSum((FiniteChain(2), OrdinalInterval(ONE))), FiniteChain(1))),
    "sum-singletons": OrderSum((OrderSum((FiniteChain(1),)), FiniteChain(1), OrdinalInterval(ZERO))),
}

SEEDED = {
    "ordinal-w2": OrdinalInterval(parse("w^2")),
    "ordinal-w3": OrdinalInterval(parse("w^3")),
    "ordinal-w3-tail": OrdinalInterval(parse("w^3*2+w+3")),
    "sum-ordinal": OrderSum((FiniteChain(3), OrdinalInterval(parse("w^2")), SplitChain(2))),
    "sum-ordinal-nested": OrderSum((OrdinalInterval(W), OrderSum((OrdinalInterval(parse("w^2+1")), FiniteChain(2))))),
}

DIGESTS = {
    "finite-1": "ba859a2a59c996c0c1cb03d5403ae3dbcc929037ec3aa32dfc7ed1191b305a7d",
    "finite-6": "3a7b3a1b6151f226a022082f76b143c2457e80f387aa686ad64932921cb50dfa",
    "finite-labelled": "873fb71c51b3ef2ffb8553c9e1a09732fdc55b0021788a304602cdbb433194b9",
    "split-1": "20e8fa2fd1daaeb8b2f47378acded837afb83b8fb53fafc33212b5e21a38598b",
    "split-4": "7e04f6f3cc4cd3b3d3c12e7863bf903c575572bbf0b722d71a47ac6831733c34",
    "ordinal-0": "a92e5f08be0ab46999cd62d84bc9f35d6beffbd0237b1be1fb1cc5d676e0fd5b",
    "ordinal-6": "56fe2aaea174bb3f6f7768ee4413e74d282c97288a286b7f45d4c71d96c85e86",
    "sum-1": "26cb814edf8bbe14367355ceff025678cf88312d37a3f95935b3ca32b3aa211b",
    "sum-3": "dadf15f4a0a9834f2027e432025fae85580da754df8b570f0af3d06f928db10d",
    "sum-nested": "ef2d96533c054c98089e5879b9d6772697dd80791f9552317699416c4faa52e8",
    "sum-singletons": "94be9bc8bc9055ff8f6afc00dc5da2756bcd13b11f25efcde9feea12881bdff6",
    "ordinal-w2": "3167c0db84bf76406733c9415ed80de6547d76fb28042c0149b1a38d6c053611",
    "ordinal-w3": "5475949341b62f23ee40162d284e30de842d1bf1e88bc48b78d7c95d9fce766a",
    "ordinal-w3-tail": "26941a98828b2440c2c7b0012b8b7892ec2b322df0a142ee43e336ed62396c65",
    "sum-ordinal": "6e84712c5d687e7357d5e9779ba5e2791b5bf9644f9bdb416da19f8a1f7907f8",
    "sum-ordinal-nested": "3222bafc470dddde8e63a61301a93a044384fc134c62bb6938edd03635b2ab9c",
}


def _split(K, iv) -> str:
    try:
        return sp.render_point(K, canonical_split(K, iv))
    except DomainError as err:
        return f"DomainError: {err}"


def transcript(K, points) -> str:
    """Every primitive's output on `points` (distinct, in the space order)
    and on every interval between two of them."""
    r = [sp.render_point(K, p) for p in points]
    lines = [repr(K.to_json()), repr(K), f"size {sp.space_size(K)}", f"finite {sp.is_finite_space(K)}"]
    lines.append(f"min {sp.render_point(K, K.minimum())} max {sp.render_point(K, K.maximum())}")
    keys = [sp.point_key(K, p) for p in points]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    for i, p in enumerate(points):
        assert sp.parse_point(K, r[i]) == p
        assert sp.parse_point(K, f" {r[i]} ") == p
        pred, succ = sp.adjacency(K, p)
        lines.append(
            f"{r[i]} {p!r}: pred {None if pred is None else sp.render_point(K, pred)}"
            f" succ {None if succ is None else sp.render_point(K, succ)}"
        )
        lines.append(" ".join(sp.compare_points(K, p, q)[0] for q in points))
        for j in range(i, len(points)):
            iv = ClosedInterval(p, points[j])
            lines.append(
                f"[{r[i]}, {r[j]}] count {sp.point_count(K, iv)} split {_split(K, iv)}"
                f" json {sp.PointCodec(K).write_interval(iv)}"
            )
    return "\n".join(lines)


def seeded_points(K, n=30):
    rng = random.Random(f"space-pins:{K.to_json()}")
    pts = [K.minimum(), K.maximum()] + [gen.sample_point(rng, K) for _ in range(n)]
    by_key = {sp.point_key(K, p): p for p in pts}
    return [by_key[k] for k in sorted(by_key)]


def test_digest_table_covers_every_space():
    assert set(DIGESTS) == set(SMALL) | set(SEEDED)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_point_and_interval_of_a_small_space(name):
    K = SMALL[name]
    text = transcript(K, sp.enumerate_points(K))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SEEDED))
def test_seeded_points_of_an_infinite_space(name):
    K = SEEDED[name]
    assert not sp.is_finite_space(K)
    text = transcript(K, seeded_points(K))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]


SUM = OrderSum((FiniteChain(2), SplitChain(1)))

BAD_POINTS = [
    (FiniteChain(3), -1, "-1 is not a point of FiniteChain(size=3, labels=None)"),
    (FiniteChain(3), 3, "3 is not a point of FiniteChain(size=3, labels=None)"),
    (FiniteChain(3), True, "True is not a point of FiniteChain(size=3, labels=None)"),
    (FiniteChain(3), "1", "'1' is not a point of FiniteChain(size=3, labels=None)"),
    (FiniteChain(3), 1.0, "1.0 is not a point of FiniteChain(size=3, labels=None)"),
    (SplitChain(2), (2, 0), "(2, 0) is not a point of SplitChain(size=2)"),
    (SplitChain(2), (0, 2), "(0, 2) is not a point of SplitChain(size=2)"),
    (SplitChain(2), (True, 0), "(True, 0) is not a point of SplitChain(size=2)"),
    (SplitChain(2), [0, 0], "[0, 0] is not a point of SplitChain(size=2)"),
    (SplitChain(2), (0,), "(0,) is not a point of SplitChain(size=2)"),
    (OrdinalInterval(W), parse("w+1"), "Ordinal(terms=((1, 1), (0, 1))) is not a point of OrdinalInterval(alpha=Ordinal(terms=((1, 1),)))"),
    (OrdinalInterval(W), 3, "3 is not a point of OrdinalInterval(alpha=Ordinal(terms=((1, 1),)))"),
    (SUM, (2, 0), "(2, 0) is not a point of an order sum with 2 parts"),
    (SUM, (0, 5), "5 is not a point of FiniteChain(size=2, labels=None)"),
    (SUM, (1, (0, 3)), "(0, 3) is not a point of SplitChain(size=1)"),
    (SUM, 0, "0 is not a point of an order sum with 2 parts"),
    (SUM, (True, 0), "(True, 0) is not a point of an order sum with 2 parts"),
    (SUM, (0, 1, 2), "(0, 1, 2) is not a point of an order sum with 2 parts"),
]

BAD_TEXTS = [
    (FiniteChain(3), "x", "bad chain point 'x'"),
    (FiniteChain(3), "-1", "bad chain point '-1'"),
    (FiniteChain(3), " 7 ", "7 is not a point of FiniteChain(size=3, labels=None)"),
    (FiniteChain(3), 5, "expected a string, got 5"),
    (SplitChain(2), "0,+", "bad split point '0,+'"),
    (SplitChain(2), "(0,*)", "bad split point '(0,*)'"),
    (SplitChain(2), "(2,+)", "(2, 1) is not a point of SplitChain(size=2)"),
    (SplitChain(2), "(a,-)", "bad split point '(a,-)'"),
    (SplitChain(2), "(0,+,1)", "bad split point '(0,+,1)'"),
    (OrdinalInterval(W), "w+1", "Ordinal(terms=((1, 1), (0, 1))) is not a point of OrdinalInterval(alpha=Ordinal(terms=((1, 1),)))"),
    (OrdinalInterval(W), "v", "malformed term 'v' in 'v'"),
    (OrdinalInterval(W), "w^^2", "malformed term 'w^^2' in 'w^^2'"),
    (SUM, "1", "bad sum point '1'"),
    (SUM, "part", "bad sum point 'part'"),
    (SUM, "partx:1", "bad sum point 'partx:1'"),
    (SUM, "part3:0", "part index out of range in 'part3:0'"),
    (SUM, "part0:", "bad sum point 'part0:'"),
    (SUM, "part1:(1,+)", "(1, 1) is not a point of SplitChain(size=1)"),
    (SUM, "part0:2", "2 is not a point of FiniteChain(size=2, labels=None)"),
]


@pytest.mark.parametrize("K, p, text", BAD_POINTS)
def test_bad_point_error_texts(K, p, text):
    with pytest.raises(DomainError) as err:
        sp.validate_point(K, p)
    assert str(err.value) == text


@pytest.mark.parametrize("K, s, text", BAD_TEXTS)
def test_bad_text_error_texts(K, s, text):
    with pytest.raises(DomainError) as err:
        sp.parse_point(K, s)
    assert str(err.value) == text

