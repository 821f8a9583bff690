"""Compact linear orders with explicit, comparable points.

Four descriptor kinds:

* FiniteChain(n): points 0..n-1.
* OrdinalInterval(alpha): points are ordinals 0..alpha inclusive.
* SplitChain(n): each of n slots doubled into (i,-) < (i,+).
* OrderSum(parts): concatenation; points are (part_index, inner).

Every space has a minimum and maximum, every point except the maximum
has an immediate successor, and predecessors are missing only at the
minimum and at interior limit points of ordinal intervals. Closed
intervals [lo, hi] are the only sets the rest of the package carves
spaces into.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ordinal as ord_
from .errors import DomainError, document_decoder
from .ordinal import Ordinal


class _Infinite:
    """Sentinel for countably infinite point counts."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITE"


INFINITE = _Infinite()


@dataclass(frozen=True)
class FiniteChain:
    size: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.size, int) or isinstance(self.size, bool) or self.size < 1:
            raise DomainError(f"chain size must be a positive int, got {self.size!r}")
        if self.labels is not None and len(self.labels) != self.size:
            raise DomainError("labels must match size")


@dataclass(frozen=True)
class OrdinalInterval:
    alpha: Ordinal

    def __post_init__(self):
        if not isinstance(self.alpha, Ordinal):
            raise DomainError(f"alpha must be an Ordinal, got {self.alpha!r}")


@dataclass(frozen=True)
class SplitChain:
    size: int

    def __post_init__(self):
        if not isinstance(self.size, int) or isinstance(self.size, bool) or self.size < 1:
            raise DomainError(f"split chain size must be a positive int, got {self.size!r}")


@dataclass(frozen=True)
class OrderSum:
    parts: tuple

    def __post_init__(self):
        if not isinstance(self.parts, tuple) or not self.parts:
            raise DomainError("parts must be a nonempty tuple")
        for p in self.parts:
            if not isinstance(p, (FiniteChain, OrdinalInterval, SplitChain, OrderSum)):
                raise DomainError(f"bad summand {p!r}")


SpaceDescriptor = FiniteChain | OrdinalInterval | SplitChain | OrderSum

MINUS, PLUS = 0, 1


def validate_point(space, p) -> None:
    if isinstance(space, FiniteChain):
        if not isinstance(p, int) or isinstance(p, bool) or not 0 <= p < space.size:
            raise DomainError(f"{p!r} is not a point of {space}")
    elif isinstance(space, OrdinalInterval):
        if not isinstance(p, Ordinal) or p > space.alpha:
            raise DomainError(f"{p!r} is not a point of {space}")
    elif isinstance(space, SplitChain):
        ok = (
            isinstance(p, tuple)
            and len(p) == 2
            and isinstance(p[0], int)
            and not isinstance(p[0], bool)
            and 0 <= p[0] < space.size
            and p[1] in (MINUS, PLUS)
        )
        if not ok:
            raise DomainError(f"{p!r} is not a point of {space}")
    elif isinstance(space, OrderSum):
        ok = (
            isinstance(p, tuple)
            and len(p) == 2
            and isinstance(p[0], int)
            and not isinstance(p[0], bool)
            and 0 <= p[0] < len(space.parts)
        )
        if not ok:
            raise DomainError(f"{p!r} is not a point of an order sum with {len(space.parts)} parts")
        validate_point(space.parts[p[0]], p[1])
    else:
        raise DomainError(f"unknown space descriptor {space!r}")


def point_key(space, p):
    """A sort key implementing the space order. Keys of one space are
    mutually comparable; keys of different spaces are not."""
    if isinstance(space, FiniteChain):
        return p
    if isinstance(space, OrdinalInterval):
        return p
    if isinstance(space, SplitChain):
        return 2 * p[0] + p[1]
    if isinstance(space, OrderSum):
        return (p[0], point_key(space.parts[p[0]], p[1]))
    raise DomainError(f"unknown space descriptor {space!r}")


def compare_points(space, p, q) -> str:
    validate_point(space, p)
    validate_point(space, q)
    kp, kq = point_key(space, p), point_key(space, q)
    if kp == kq:
        return "equal"
    return "less" if kp < kq else "greater"


def minimum(space):
    if isinstance(space, FiniteChain):
        return 0
    if isinstance(space, OrdinalInterval):
        return ord_.ZERO
    if isinstance(space, SplitChain):
        return (0, MINUS)
    if isinstance(space, OrderSum):
        return (0, minimum(space.parts[0]))
    raise DomainError(f"unknown space descriptor {space!r}")


def maximum(space):
    if isinstance(space, FiniteChain):
        return space.size - 1
    if isinstance(space, OrdinalInterval):
        return space.alpha
    if isinstance(space, SplitChain):
        return (space.size - 1, PLUS)
    if isinstance(space, OrderSum):
        return (len(space.parts) - 1, maximum(space.parts[-1]))
    raise DomainError(f"unknown space descriptor {space!r}")


def adjacency(space, p):
    """(predecessor | None, successor | None), immediate neighbours in
    the space order. Successors are missing only at the maximum;
    predecessors also at interior limits of ordinal intervals."""
    validate_point(space, p)
    if isinstance(space, FiniteChain):
        pred = p - 1 if p > 0 else None
        succ = p + 1 if p + 1 < space.size else None
        return pred, succ
    if isinstance(space, OrdinalInterval):
        pred = p.predecessor() if p.kind == "successor" else None
        succ = ord_.add(p, ord_.ONE) if p < space.alpha else None
        return pred, succ
    if isinstance(space, SplitChain):
        lin = 2 * p[0] + p[1]
        pred = _split_decode(lin - 1) if lin > 0 else None
        succ = _split_decode(lin + 1) if lin + 1 < 2 * space.size else None
        return pred, succ
    if isinstance(space, OrderSum):
        idx, inner = p
        part = space.parts[idx]
        ipred, isucc = adjacency(part, inner)
        if inner == minimum(part):
            pred = (idx - 1, maximum(space.parts[idx - 1])) if idx > 0 else None
        else:
            pred = (idx, ipred) if ipred is not None else None
        if inner == maximum(part):
            succ = (idx + 1, minimum(space.parts[idx + 1])) if idx + 1 < len(space.parts) else None
        else:
            succ = (idx, isucc) if isucc is not None else None
        return pred, succ
    raise DomainError(f"unknown space descriptor {space!r}")


def _split_decode(lin: int):
    return (lin // 2, lin % 2)


@dataclass(frozen=True, slots=True)
class ClosedInterval:
    """Endpoint pair; validity against a space is checked at use sites."""

    lo: object
    hi: object


def make_interval(space, lo, hi) -> ClosedInterval:
    if compare_points(space, lo, hi) == "greater":
        raise DomainError(f"interval endpoints out of order: {render_point(space, lo)} > {render_point(space, hi)}")
    return ClosedInterval(lo, hi)


def whole_interval(space) -> ClosedInterval:
    return ClosedInterval(minimum(space), maximum(space))


def interval_contains_point(space, iv: ClosedInterval, p) -> bool:
    return (
        compare_points(space, iv.lo, p) != "greater"
        and compare_points(space, p, iv.hi) != "greater"
    )


def intervals_overlap_nontrivially(space, a: ClosedInterval, b: ClosedInterval) -> bool:
    """True when the intersection has at least two points: max of the lows
    strictly below min of the highs."""
    lo = a.lo if compare_points(space, a.lo, b.lo) != "less" else b.lo
    hi = a.hi if compare_points(space, a.hi, b.hi) != "greater" else b.hi
    return compare_points(space, lo, hi) == "less"


def point_count(space, iv: ClosedInterval):
    """Number of points in [lo, hi]; INFINITE when uncountable by walking."""
    validate_point(space, iv.lo)
    validate_point(space, iv.hi)
    if point_key(space, iv.lo) > point_key(space, iv.hi):
        raise DomainError("interval endpoints out of order")
    return _count(space, iv.lo, iv.hi)


def _count(space, lo, hi):
    if isinstance(space, FiniteChain):
        return hi - lo + 1
    if isinstance(space, OrdinalInterval):
        gap = ord_.left_subtract(lo, hi)
        return gap.as_int() + 1 if gap.is_finite() else INFINITE
    if isinstance(space, SplitChain):
        return (2 * hi[0] + hi[1]) - (2 * lo[0] + lo[1]) + 1
    if isinstance(space, OrderSum):
        (i, a), (j, b) = lo, hi
        if i == j:
            return _count(space.parts[i], a, b)
        total = 0
        pieces = [_count(space.parts[i], a, maximum(space.parts[i]))]
        pieces += [space_size(space.parts[k]) for k in range(i + 1, j)]
        pieces.append(_count(space.parts[j], minimum(space.parts[j]), b))
        for c in pieces:
            if c is INFINITE:
                return INFINITE
            total += c
        return total
    raise DomainError(f"unknown space descriptor {space!r}")


def space_size(space):
    return _count(space, minimum(space), maximum(space))


def is_finite_space(space) -> bool:
    return space_size(space) is not INFINITE


def enumerate_interval(space, iv: ClosedInterval) -> list:
    """All points of [lo, hi] in order. The interval must be finite, even
    if the ambient space is not."""
    n = point_count(space, iv)
    if n is INFINITE:
        raise DomainError("cannot enumerate an infinite interval")
    out = [iv.lo]
    p = iv.lo
    for _ in range(n - 1):
        p = adjacency(space, p)[1]
        out.append(p)
    return out


def enumerate_points(space) -> list:
    if not is_finite_space(space):
        raise DomainError(f"{space} has infinitely many points")
    return enumerate_interval(space, whole_interval(space))


def canonical_split(space, iv: ClosedInterval):
    """The default interior split point w with lo < w < hi.

    Finite kinds take the lower median. Ordinal intervals take
    lo + w^e for the largest exponent e that stays strictly below hi,
    so [lo, w] is a finite block and [w, hi] keeps the tail. Order sums
    split at a part boundary near the middle, falling back one step
    when the boundary collides with an endpoint.
    """
    cnt = point_count(space, iv)
    if cnt is not INFINITE and cnt < 3:
        raise DomainError("need at least three points to split")
    w = _split_point(space, iv, cnt)
    if compare_points(space, iv.lo, w) != "less" or compare_points(space, w, iv.hi) != "less":
        raise DomainError(
            f"split point {render_point(space, w)} not strictly inside "
            f"[{render_point(space, iv.lo)}, {render_point(space, iv.hi)}]"
        )
    return w


def _split_point(space, iv, cnt):
    """`canonical_split` for a valid interval of cnt points, cnt >= 3,
    without validating or checking the result."""
    if isinstance(space, FiniteChain):
        return iv.lo + (cnt - 1) // 2
    if isinstance(space, SplitChain):
        lin = 2 * iv.lo[0] + iv.lo[1]
        return _split_decode(lin + (cnt - 1) // 2)
    if isinstance(space, OrdinalInterval):
        for e in range(ord_.degree(iv.hi), -1, -1):
            w = ord_.add(iv.lo, ord_.omega_power(e))
            if w < iv.hi:
                return w
        raise DomainError("no splitting exponent found")  # unreachable for >= 3 points
    if isinstance(space, OrderSum):
        p_lo, p_hi = iv.lo[0], iv.hi[0]
        if p_lo == p_hi:
            return (p_lo, _split_point(space.parts[p_lo], ClosedInterval(iv.lo[1], iv.hi[1]), cnt))
        mid = _median_part(space, iv, cnt, p_lo, p_hi)
        if mid == p_hi:
            return (p_hi, minimum(space.parts[p_hi]))
        w = (mid, maximum(space.parts[mid]))
        if point_key(space, w) == point_key(space, iv.lo):
            return (mid + 1, minimum(space.parts[mid + 1]))
        return w
    raise DomainError(f"unknown space descriptor {space!r}")


def _median_part(space, iv, cnt, p_lo, p_hi) -> int:
    """Index of the part holding the lower-median point, or the index
    median when counting is impossible."""
    if cnt is INFINITE:
        return (p_lo + p_hi) // 2
    target = (cnt - 1) // 2
    seen = 0
    for k in range(p_lo, p_hi + 1):
        part = space.parts[k]
        lo = iv.lo[1] if k == p_lo else minimum(part)
        hi = iv.hi[1] if k == p_hi else maximum(part)
        c = _count(part, lo, hi)
        if c is INFINITE:
            return (p_lo + p_hi) // 2
        if seen + c > target:
            return k
        seen += c
    raise DomainError("median location failed")  # unreachable


# -- rendering and parsing points -------------------------------------------


def render_point(space, p) -> str:
    validate_point(space, p)
    if isinstance(space, FiniteChain):
        return str(p)
    if isinstance(space, OrdinalInterval):
        return ord_.render(p)
    if isinstance(space, SplitChain):
        return f"({p[0]},{'+' if p[1] == PLUS else '-'})"
    if isinstance(space, OrderSum):
        return f"part{p[0]}:{render_point(space.parts[p[0]], p[1])}"
    raise DomainError(f"unknown space descriptor {space!r}")


def parse_point(space, text: str):
    if not isinstance(text, str):
        raise DomainError(f"expected a string, got {text!r}")
    s = text.strip()
    if isinstance(space, FiniteChain):
        if not s.isdigit():
            raise DomainError(f"bad chain point {text!r}")
        p = int(s)
    elif isinstance(space, OrdinalInterval):
        p = ord_.parse(s)
    elif isinstance(space, SplitChain):
        if not (s.startswith("(") and s.endswith(")")):
            raise DomainError(f"bad split point {text!r}")
        body = s[1:-1].split(",")
        if len(body) != 2 or not body[0].strip().isdigit() or body[1].strip() not in ("+", "-"):
            raise DomainError(f"bad split point {text!r}")
        p = (int(body[0]), PLUS if body[1].strip() == "+" else MINUS)
    elif isinstance(space, OrderSum):
        if not s.startswith("part"):
            raise DomainError(f"bad sum point {text!r}")
        head, _, rest = s[4:].partition(":")
        if not head.isdigit() or not rest:
            raise DomainError(f"bad sum point {text!r}")
        idx = int(head)
        if not 0 <= idx < len(space.parts):
            raise DomainError(f"part index out of range in {text!r}")
        p = (idx, parse_point(space.parts[idx], rest))
    else:
        raise DomainError(f"unknown space descriptor {space!r}")
    validate_point(space, p)
    return p


# -- JSON --------------------------------------------------------------------


def space_to_json(space) -> dict:
    if isinstance(space, FiniteChain):
        d = {"kind": "finite", "size": space.size}
        if space.labels is not None:
            d["labels"] = list(space.labels)
        return d
    if isinstance(space, OrdinalInterval):
        return {"kind": "ordinal", "alpha": ord_.render(space.alpha)}
    if isinstance(space, SplitChain):
        return {"kind": "split", "size": space.size}
    if isinstance(space, OrderSum):
        return {"kind": "sum", "parts": [space_to_json(p) for p in space.parts]}
    raise DomainError(f"unknown space descriptor {space!r}")


@document_decoder
def space_from_json(doc) -> SpaceDescriptor:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise DomainError(f"bad space document {doc!r}")
    kind = doc["kind"]
    if kind == "finite":
        labels = tuple(doc["labels"]) if "labels" in doc else None
        return FiniteChain(doc["size"], labels)
    if kind == "ordinal":
        return OrdinalInterval(ord_.parse(doc["alpha"]))
    if kind == "split":
        return SplitChain(doc["size"])
    if kind == "sum":
        return OrderSum(tuple(space_from_json(p) for p in doc["parts"]))
    raise DomainError(f"unknown space kind {kind!r}")


def interval_to_json(space, iv: ClosedInterval) -> list:
    return [render_point(space, iv.lo), render_point(space, iv.hi)]


def interval_from_json(space, doc) -> ClosedInterval:
    if not isinstance(doc, (list, tuple)) or len(doc) != 2:
        raise DomainError(f"bad interval document {doc!r}")
    return make_interval(space, parse_point(space, doc[0]), parse_point(space, doc[1]))
