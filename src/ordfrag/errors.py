"""Exception types shared across the package.

Verified negative answers (NotSimpleError, NoRoom, NoSubsequence) are
first-class results, not bugs: callers such as the CLI turn them into
exit status 1 with a machine-readable report. A JSON document of the
wrong shape is a DomainError (exit status 2): the bundle, map and
partition decoders read their typed fields through `read_int`,
`read_list` and `read_fraction`, and `document_decoder` turns what else
goes wrong inside a decoder into the same error. Every document is
written through `canonical_bytes`.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction


class OrdfragError(Exception):
    """Base class for all package errors."""


class DomainError(OrdfragError):
    """An argument violates a documented precondition."""


def document_decoder(fn):
    """Make a JSON decoder raise DomainError on a document of the wrong shape.

    A missing or ill-typed field surfaces inside the decoder as one of
    Python's lookup, type, value or division errors; it is reported as
    bad input.
    """

    @functools.wraps(fn)
    def decode(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError,
                ZeroDivisionError) as err:
            raise DomainError(
                f"{fn.__name__}: document of the wrong shape "
                f"({type(err).__name__}: {err})") from err

    return decode


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


def read_list(x, what: str) -> list:
    """The document field x, which must be a list."""
    if not isinstance(x, list):
        raise DomainError(f"{what} is not a list")
    return x


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
