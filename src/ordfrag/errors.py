"""Exception types shared across the package.

Verified negative answers (NotSimpleError, NoRoom, NoSubsequence) are
first-class results, not bugs: callers such as the CLI turn them into
exit status 1 with a machine-readable report. A JSON document of the
wrong shape is a DomainError (exit status 2) that names the field: each
decoder reads every value it uses through the readers below, or through
a parser that refuses bad input itself, so a bug inside a decoder
surfaces as itself. Every document is written through `canonical_bytes`.
"""

from __future__ import annotations

import json
from fractions import Fraction


class OrdfragError(Exception):
    """Base class for all package errors."""


class DomainError(OrdfragError):
    """An argument violates a documented precondition."""


def plain_int(x) -> bool:
    """x is an int and not a bool, which JSON's true and false decode to."""
    return isinstance(x, int) and not isinstance(x, bool)


def read_int(x, what: str, least: int | None = None) -> int:
    """The document field x, which must be a plain int, at least `least`
    when that is given."""
    if not plain_int(x) or (least is not None and x < least):
        bound = "" if least is None else f" >= {least}"
        raise DomainError(f"{what} {x!r} is not an int{bound}")
    return x


def read_digits(s: str, what: str) -> int:
    """The text s, which must be a run of decimal digits, as an int; a run
    longer than int() reads (sys.get_int_max_str_digits()) is refused too."""
    if s.isdecimal():
        try:
            return int(s)
        except ValueError:
            raise DomainError(f"{what} has {len(s)} digits, more than int() reads") from None
    raise DomainError(f"bad {what} {s!r}")


def read_list(x, what: str, length: int | None = None, texts: bool = False) -> list:
    """The document field x, which must be a list, of `length` entries
    when that is given, and of strings only when `texts` is set."""
    if (not isinstance(x, list) or length is not None and len(x) != length
            or texts and not all(type(t) is str for t in x)):
        shape = f" of {length}" if length is not None else " of strings" if texts else ""
        raise DomainError(f"{what} is not a list{shape}")
    return x


def read_object(x, what: str, *fields: str) -> dict:
    """The document field x, which must be an object holding `fields`."""
    if not isinstance(x, dict):
        raise DomainError(f"{what} is not an object")
    for name in fields:
        if name not in x:
            raise DomainError(f"{what} has no {name!r}")
    return x


def read_kind(doc, kind: str, *fields: str) -> dict:
    """doc, which must be a document of kind `kind` and version 1
    holding `fields`."""
    if read_object(doc, f"{kind} document", "kind")["kind"] != kind:
        raise DomainError(f"not {'an' if kind[0] in 'aeiou' else 'a'} {kind} document: kind {doc['kind']!r}")
    v = read_object(doc, f"{kind} document", "v", *fields)["v"]
    if not plain_int(v) or v != 1:
        raise DomainError(f"{kind} document: v {v!r} is not 1")
    return doc


def read_fraction(x, what: str) -> Fraction:
    """The document field x, which must be a fraction string such as "-1/3"."""
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise DomainError(f"{what} {x!r} is not a fraction string")


def canonical_bytes(doc) -> bytes:
    """doc as JSON with sorted keys and no spaces."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


class RangeError(OrdfragError):
    """A value exceeds a configured bound (fail loudly, never truncate)."""


class InsufficientMaterialization(OrdfragError):
    """The materialized part of a tree is too small to answer the query."""


class NoRoom(OrdfragError):
    """No pool node strictly above the required bound exists on a branch.

    Finite miniatures may lack the levels the infinite arguments take for
    granted; this error names the node and, when there is one, the level
    bound that could not be cleared.
    """

    def __init__(self, node: int, bound_level: int | None, detail: str = ""):
        self.node = node
        self.bound_level = bound_level
        self.detail = detail
        above = "" if bound_level is None else f" strictly above level {bound_level}"
        msg = f"no pool level available{above} on the branch of node {node}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class NotSimpleError(OrdfragError):
    """A construction required a simple node set but got a refutation."""

    def __init__(self, violator, level: int | None = None):
        self.violator = violator
        self.level = level
        where = f" at level {level}" if level is not None else ""
        super().__init__(
            f"node set{where} is not simple: |W| = {len(violator.members)} > "
            f"|N(W)| = {len(violator.neighborhood)}"
        )


class NoSubsequence(OrdfragError):
    """No level pairing exists for a cofinal transfer."""

    def __init__(self, source_level: int):
        self.source_level = source_level
        super().__init__(f"no unused target level >= {source_level} available")


class InternalInconsistency(OrdfragError):
    """A postcondition the construction guarantees failed to hold.

    Raised instead of returning silently wrong output; always a bug report.
    """


class GuaranteeFailure(OrdfragError):
    """The dense set could not serve a query within its stated bound.

    Never expected on families built by `separating_family`; carries the
    full case trace so the instance can be replayed.
    """

    def __init__(self, message, *, w, n, k, gap, u, v, z, distance):
        super().__init__(message)
        self.w = w
        self.n = n
        self.k = k
        self.gap = gap
        self.u = u
        self.v = v
        self.z = z
        self.distance = distance
