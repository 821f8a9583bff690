"""Compact linear orders with explicit, comparable points.

One frozen descriptor class per kind of space:

* FiniteChain(n): points 0..n-1.
* OrdinalInterval(alpha): points are ordinals 0..alpha inclusive.
* SplitChain(n): each of n slots doubled into (i,-) < (i,+).
* OrderSum(parts): concatenation; points are (part_index, inner).

Each descriptor implements the primitives of its kind as methods:
`validate`, `key`, `minimum`, `maximum`, `adjacency`, `count`, `split`,
`render`, `parse` and `to_json`. FiniteChain and SplitChain share the
integer-key arithmetic of a finite chain; a split chain is a labelling
of the chain of twice its size. Apart from `validate` and `parse`, the
methods assume valid points. The module functions below are the
package's interface to points: they validate what enters and then
call the methods. `minimum`, `maximum` and `to_json` take no point, so
callers use those methods directly.

Every space has a minimum and maximum, every point except the maximum
has an immediate successor, and predecessors are missing only at the
minimum and at interior limit points of ordinal intervals. Closed
intervals [lo, hi] are the only sets the rest of the package carves
spaces into.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ordinal as ord_
from .errors import DomainError, plain_int, read_digits, read_list, read_object
from .ordinal import Ordinal


class _Infinite(float):
    """The count of a countably infinite interval: one float infinity,
    so it compares above every finite count, that prints as INFINITE."""

    _instance = None

    def __new__(cls, *_):
        if cls._instance is None:
            cls._instance = super().__new__(cls, "inf")
        return cls._instance

    def __repr__(self):
        return "INFINITE"


INFINITE = _Infinite()

MINUS, PLUS = 0, 1


class _Chain:
    """A finite chain whose points are labelled by their keys 0..length-1
    through `key` and its inverse `point_at`."""

    def minimum(self):
        return self.point_at(0)

    def maximum(self):
        return self.point_at(self.length - 1)

    def adjacency(self, p):
        k = self.key(p)
        pred = self.point_at(k - 1) if k > 0 else None
        succ = self.point_at(k + 1) if k + 1 < self.length else None
        return pred, succ

    def count(self, lo, hi):
        return self.key(hi) - self.key(lo) + 1

    def split(self, lo, hi, cnt):
        return self.point_at(self.key(lo) + (cnt - 1) // 2)


def _is_index(x, n: int) -> bool:
    """x is a plain int in 0..n-1, tested inline: tree verification calls this per endpoint."""
    return isinstance(x, int) and not isinstance(x, bool) and 0 <= x < n


def _check_size(size, what: str) -> None:
    if not plain_int(size) or size < 1:
        raise DomainError(f"{what} size must be a positive int, got {size!r}")


@dataclass(frozen=True)
class FiniteChain(_Chain):
    size: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        _check_size(self.size, "chain")
        if self.labels is not None and len(self.labels) != self.size:
            raise DomainError("labels must match size")

    @property
    def length(self) -> int:
        return self.size

    def validate(self, p) -> None:
        if not _is_index(p, self.size):
            raise DomainError(f"{p!r} is not a point of {self}")

    def key(self, p):
        return p

    def point_at(self, k):
        return k

    def render(self, p) -> str:
        return str(p)

    def parse(self, text: str):
        return read_digits(text.strip(), "chain point")

    def to_json(self) -> dict:
        d = {"kind": "finite", "size": self.size}
        if self.labels is not None:
            d["labels"] = list(self.labels)
        return d


@dataclass(frozen=True)
class SplitChain(_Chain):
    size: int

    def __post_init__(self):
        _check_size(self.size, "split chain")

    @property
    def length(self) -> int:
        return 2 * self.size

    def validate(self, p) -> None:
        if not (isinstance(p, tuple) and len(p) == 2 and _is_index(p[0], self.size) and p[1] in (MINUS, PLUS)):
            raise DomainError(f"{p!r} is not a point of {self}")

    def key(self, p):
        return 2 * p[0] + p[1]

    def point_at(self, k):
        return divmod(k, 2)

    def render(self, p) -> str:
        return f"({p[0]},{'+' if p[1] == PLUS else '-'})"

    def parse(self, text: str):
        s = text.strip()
        if not (s.startswith("(") and s.endswith(")")):
            raise DomainError(f"bad split point {text!r}")
        body = s[1:-1].split(",")
        if len(body) != 2 or not body[0].strip().isdecimal() or body[1].strip() not in ("+", "-"):
            raise DomainError(f"bad split point {text!r}")
        return (read_digits(body[0].strip(), "split point"), PLUS if body[1].strip() == "+" else MINUS)

    def to_json(self) -> dict:
        return {"kind": "split", "size": self.size}


@dataclass(frozen=True)
class OrdinalInterval:
    alpha: Ordinal

    def __post_init__(self):
        if not isinstance(self.alpha, Ordinal):
            raise DomainError(f"alpha must be an Ordinal, got {self.alpha!r}")

    def validate(self, p) -> None:
        if not isinstance(p, Ordinal) or p.terms > self.alpha.terms:
            raise DomainError(f"{p!r} is not a point of {self}")

    def key(self, p):
        # term tuples order as the ordinals do, and hash and compare in C
        return p.terms

    def minimum(self):
        return ord_.ZERO

    def maximum(self):
        return self.alpha

    def adjacency(self, p):
        pred = p.predecessor() if p.kind == "successor" else None
        succ = ord_.add(p, ord_.ONE) if p < self.alpha else None
        return pred, succ

    def count(self, lo, hi):
        """g + 1 for the gap g with lo + g = hi, read off the terms: past
        their common prefix, g is finite only when hi's next term is its
        finite part, and then g is that coefficient less lo's."""
        a, b = lo.terms, hi.terms
        if a > b:
            raise DomainError(f"cannot left-subtract {lo} from smaller {hi}")
        k = 0
        while k < len(a) and a[k] == b[k]:
            k += 1
        if k == len(b):  # lo == hi
            return 1
        e, c = b[k]
        if e:
            return INFINITE
        return c - (a[k][1] if k < len(a) else 0) + 1

    def split(self, lo, hi, cnt):
        """lo + w^e for the largest e that stays below hi, on term tuples:
        lo's terms above e, then w^e with lo's coefficient at e plus one."""
        a, b = lo.terms, hi.terms
        k = 0
        for e in range(b[0][0] if b else 0, -1, -1):
            while k < len(a) and a[k][0] > e:
                k += 1
            c = a[k][1] + 1 if k < len(a) and a[k][0] == e else 1
            w = a[:k] + ((e, c),)
            if w < b:
                return Ordinal(w)
        raise DomainError("no splitting exponent found")  # unreachable for >= 3 points

    def render(self, p) -> str:
        return ord_.render(p)

    def parse(self, text: str):
        return ord_.parse(text.strip())

    def to_json(self) -> dict:
        return {"kind": "ordinal", "alpha": ord_.render(self.alpha)}


@dataclass(frozen=True)
class OrderSum:
    parts: tuple

    def __post_init__(self):
        if not isinstance(self.parts, tuple) or not self.parts:
            raise DomainError("parts must be a nonempty tuple")
        for p in self.parts:
            if not isinstance(p, (FiniteChain, OrdinalInterval, SplitChain, OrderSum)):
                raise DomainError(f"bad summand {p!r}")

    def validate(self, p) -> None:
        if not (isinstance(p, tuple) and len(p) == 2 and _is_index(p[0], len(self.parts))):
            raise DomainError(f"{p!r} is not a point of an order sum with {len(self.parts)} parts")
        self.parts[p[0]].validate(p[1])

    def key(self, p):
        return (p[0], self.parts[p[0]].key(p[1]))

    def minimum(self):
        return (0, self.parts[0].minimum())

    def maximum(self):
        return (len(self.parts) - 1, self.parts[-1].maximum())

    def adjacency(self, p):
        idx, inner = p
        part = self.parts[idx]
        ipred, isucc = part.adjacency(inner)
        pred = None if ipred is None else (idx, ipred)
        if pred is None and idx > 0 and inner == part.minimum():
            pred = (idx - 1, self.parts[idx - 1].maximum())
        succ = None if isucc is None else (idx, isucc)
        if succ is None and idx + 1 < len(self.parts):
            succ = (idx + 1, self.parts[idx + 1].minimum())
        return pred, succ

    def _part_counts(self, lo, hi):
        """(k, number of points of [lo, hi] in part k) for each part
        from lo's to hi's."""
        (i, a), (j, b) = lo, hi
        for k in range(i, j + 1):
            part = self.parts[k]
            yield k, part.count(a if k == i else part.minimum(), b if k == j else part.maximum())

    def count(self, lo, hi):
        if lo[0] == hi[0]:
            return self.parts[lo[0]].count(lo[1], hi[1])
        total = 0
        for _, c in self._part_counts(lo, hi):
            if c is INFINITE:
                return INFINITE
            total += c
        return total

    def split(self, lo, hi, cnt):
        """A part boundary near the middle: the part holding the lower
        median point, or the middle part index when counting is
        impossible."""
        i, j = lo[0], hi[0]
        if i == j:
            return (i, self.parts[i].split(lo[1], hi[1], cnt))
        if cnt is INFINITE:
            mid = (i + j) // 2
        else:
            seen = 0
            for mid, c in self._part_counts(lo, hi):
                seen += c
                if seen > (cnt - 1) // 2:
                    break
        if mid == j:
            return (j, self.parts[j].minimum())
        w = (mid, self.parts[mid].maximum())
        if self.key(w) == self.key(lo):
            return (mid + 1, self.parts[mid + 1].minimum())
        return w

    def render(self, p) -> str:
        return f"part{p[0]}:{self.parts[p[0]].render(p[1])}"

    def parse(self, text: str):
        s = text.strip()
        if not s.startswith("part"):
            raise DomainError(f"bad sum point {text!r}")
        head, _, rest = s[4:].partition(":")
        if not head.isdecimal() or not rest:
            raise DomainError(f"bad sum point {text!r}")
        idx = read_digits(head, "sum part index")
        if not 0 <= idx < len(self.parts):
            raise DomainError(f"part index out of range in {text!r}")
        return (idx, self.parts[idx].parse(rest))

    def to_json(self) -> dict:
        return {"kind": "sum", "parts": [p.to_json() for p in self.parts]}


SpaceDescriptor = FiniteChain | OrdinalInterval | SplitChain | OrderSum


def validate_point(space, p) -> None:
    space.validate(p)


def point_key(space, p):
    """A sort key implementing the space order. Keys of one space are
    mutually comparable; keys of different spaces are not."""
    return space.key(p)


def compare_points(space, p, q) -> str:
    validate_point(space, p)
    validate_point(space, q)
    kp, kq = space.key(p), space.key(q)
    if kp == kq:
        return "equal"
    return "less" if kp < kq else "greater"


def adjacency(space, p):
    """(predecessor | None, successor | None), immediate neighbours in
    the space order. Successors are missing only at the maximum;
    predecessors also at interior limits of ordinal intervals."""
    validate_point(space, p)
    return space.adjacency(p)


@dataclass(frozen=True, slots=True, init=False)
class ClosedInterval:
    """Endpoint pair; validity against a space is checked at use sites.

    The explicit `__init__` fills the slots through their descriptors,
    which is cheaper than the generated one's `object.__setattr__` per
    field; everything else is the generated frozen dataclass.
    """

    lo: object
    hi: object

    def __init__(self, lo, hi):
        _set_lo(self, lo)
        _set_hi(self, hi)


_set_lo = ClosedInterval.lo.__set__
_set_hi = ClosedInterval.hi.__set__


def whole_interval(space) -> ClosedInterval:
    return ClosedInterval(space.minimum(), space.maximum())


def point_count(space, iv: ClosedInterval):
    """Number of points in [lo, hi]; INFINITE when uncountable by walking."""
    validate_point(space, iv.lo)
    validate_point(space, iv.hi)
    if space.key(iv.lo) > space.key(iv.hi):
        raise DomainError("interval endpoints out of order")
    return space.count(iv.lo, iv.hi)


def space_size(space):
    return space.count(space.minimum(), space.maximum())


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
        p = space.adjacency(p)[1]
        out.append(p)
    return out


def enumerate_points(space) -> list:
    if not is_finite_space(space):
        raise DomainError(f"{space} has infinitely many points")
    return enumerate_interval(space, whole_interval(space))


# -- rendering and parsing points -------------------------------------------


def render_point(space, p) -> str:
    validate_point(space, p)
    return space.render(p)


def parse_point(space, text: str, what: str = "a string"):
    """The point `text` names; `what` names a text that is not a string."""
    if not isinstance(text, str):
        raise DomainError(f"expected {what}, got {text!r}")
    p = space.parse(text)
    validate_point(space, p)
    return p


class PointCodec:
    """The point texts of one document and the points they name.

    `read` parses and validates each distinct text once and returns one
    point object per text, so the points of a decoded document share
    objects the way a built tree's endpoints do. `write` renders each
    distinct point once. A codec lives as long as the document it reads
    or writes.
    """

    def __init__(self, space):
        self.space = space
        self._points: dict = {}  # text -> point
        self._texts: dict = {}  # point -> text

    def read(self, text, what: str = "a string"):
        """The point `text` names; `what` names a text that is not a string."""
        # a point is never None, and a text that is not a string is not looked up
        p = self._points.get(text) if isinstance(text, str) else None
        if p is None:
            p = self._points[text] = parse_point(self.space, text, what)
        return p

    def write(self, p) -> str:
        text = self._texts.get(p)
        if text is None:
            text = self._texts[p] = render_point(self.space, p)
        return text

    def read_interval(self, doc, what: str = "interval") -> ClosedInterval:
        if type(doc) is not list or len(doc) != 2:
            raise DomainError(f"{what} {doc!r} is not a pair of points")
        lo, hi = self.read(doc[0]), self.read(doc[1])
        if self.space.key(lo) > self.space.key(hi):
            raise DomainError(f"interval endpoints out of order: {self.write(lo)} > {self.write(hi)}")
        return ClosedInterval(lo, hi)

    def write_interval(self, iv: ClosedInterval) -> list:
        return [self.write(iv.lo), self.write(iv.hi)]


# -- JSON --------------------------------------------------------------------


# order sums nest at most this deep: every space operation recurses once
# per sum, and `tree build`, `tree verify` and `staged cut` still run at
# three times this depth under Python's default recursion limit
SUM_DEPTH_CAP = 100


def space_from_json(doc) -> SpaceDescriptor:
    return _space_from_json(doc, SUM_DEPTH_CAP)


def _space_from_json(doc, room: int) -> SpaceDescriptor:
    kind = read_object(doc, "space", "kind")["kind"]
    if kind == "finite":
        labels = tuple(read_list(doc["labels"], "labels", texts=True)) if "labels" in doc else None
        return FiniteChain(doc.get("size"), labels)
    if kind == "ordinal":
        return OrdinalInterval(ord_.parse(doc.get("alpha"), "an alpha string"))
    if kind == "split":
        return SplitChain(doc.get("size"))
    if kind == "sum":
        if room == 0:
            raise DomainError(f"order sums nest more than {SUM_DEPTH_CAP} deep")
        return OrderSum(tuple(_space_from_json(p, room - 1) for p in read_list(doc.get("parts"), "parts")))
    raise DomainError(f"unknown space kind {kind!r}")
