"""Ordinal arithmetic below w^w in Cantor normal form.

An ordinal is a finite sum w^e1*c1 + ... + w^ek*ck with strictly
decreasing natural exponents and positive integer coefficients, stored
as a tuple of (exponent, coefficient) pairs. The empty tuple is zero.

Only what the order spaces need is provided: comparison, (non-
commutative) addition, successor/limit classification, fundamental
sequences for limits and the leading exponent. Ordinal intervals count
and split their points on the term tuples themselves; left subtraction,
the oracle for that count, lives in `bruteforce`. Multiplication and
exponentiation stay out.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import DomainError, RangeError, plain_int, read_digits

# A fixed bound: an ordinal with a larger exponent is rejected outright
# with a RangeError.
EXPONENT_BOUND = 8


@dataclass(frozen=True, order=True)
class Ordinal:
    """CNF ordinal. Term tuples compare lexicographically, and because
    exponents strictly decrease this coincides with the ordinal order,
    so the generated comparisons are the real thing."""

    terms: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        prev = None
        for pair in self.terms:
            if not (isinstance(pair, tuple) and len(pair) == 2):
                raise DomainError(f"term {pair!r} is not an (exponent, coefficient) pair")
            e, c = pair
            # tested inline: tree verification builds every term through here
            if not isinstance(e, int) or not isinstance(c, int) or isinstance(e, bool) or isinstance(c, bool):
                raise DomainError(f"term {pair!r} must hold plain ints")
            if e < 0:
                raise DomainError(f"negative exponent in {pair!r}")
            if c < 1:
                raise DomainError(f"coefficient must be positive in {pair!r}")
            if e > EXPONENT_BOUND:
                raise RangeError(f"exponent {e} exceeds EXPONENT_BOUND = {EXPONENT_BOUND}")
            if prev is not None and e >= prev:
                raise DomainError("exponents must strictly decrease")
            prev = e

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def as_int(self) -> int:
        """The value as a plain int; only finite ordinals have one."""
        if not self.terms:
            return 0
        if self.terms[0][0] != 0:
            raise DomainError(f"{self} is infinite")
        return self.terms[0][1]

    @property
    def kind(self) -> str:
        if not self.terms:
            return "zero"
        return "successor" if self.terms[-1][0] == 0 else "limit"

    def predecessor(self) -> "Ordinal":
        if self.kind != "successor":
            raise DomainError(f"{self} is not a successor")
        e, c = self.terms[-1]
        if c > 1:
            return Ordinal(self.terms[:-1] + ((0, c - 1),))
        return Ordinal(self.terms[:-1])

    def __add__(self, other):
        if isinstance(other, int):
            other = from_int(other)
        if not isinstance(other, Ordinal):
            return NotImplemented
        return add(self, other)

    def __str__(self) -> str:
        return render(self)


ZERO = Ordinal()
ONE = Ordinal(((0, 1),))


def from_int(n: int) -> Ordinal:
    if not plain_int(n) or n < 0:
        raise DomainError(f"expected a natural number, got {n!r}")
    return ZERO if n == 0 else Ordinal(((0, n),))


def add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal sum a + b.

    Terms of a with exponent below b's leading exponent are absorbed;
    equal leading exponents merge coefficients. Not commutative:
    1 + w = w but w + 1 > w.
    """
    if b.is_zero():
        return a
    if a.is_zero():
        return b
    lead = b.terms[0][0]
    kept = [t for t in a.terms if t[0] > lead]
    if a.terms and len(kept) < len(a.terms) and a.terms[len(kept)][0] == lead:
        merged = (lead, a.terms[len(kept)][1] + b.terms[0][1])
        return Ordinal(tuple(kept) + (merged,) + b.terms[1:])
    return Ordinal(tuple(kept) + b.terms)


def degree(a: Ordinal) -> int:
    """Leading exponent; 0 for zero by convention."""
    return a.terms[0][0] if a.terms else 0


def fundamental_sequence(a: Ordinal, i: int) -> Ordinal:
    """The i-th member of the canonical increasing sequence below limit a.

    Writing a = b + w^e with e >= 1 the final term, the sequence is
    b + w^(e-1)*i. Strictly increasing in i with supremum a.
    """
    if not plain_int(i) or i < 0:
        raise DomainError(f"index must be a natural number, got {i!r}")
    if a.kind != "limit":
        raise DomainError(f"{a} is not a limit ordinal")
    e, c = a.terms[-1]
    prefix = a.terms[:-1]
    if c > 1:
        prefix = prefix + ((e, c - 1),)
    if i == 0:
        return Ordinal(prefix)
    return Ordinal(prefix + ((e - 1, i),))


_TERM = re.compile(r"^w(?:\^(\d+))?(?:\*(\d+))?$")


def parse(text: str, what: str = "a string") -> Ordinal:
    """Parse the compact CNF notation, e.g. 'w^2*3+w*2+5' or '0'.

    Strict: exponent 1 must be written 'w', coefficient 1 omitted,
    finite part without 'w^0*', terms in decreasing exponent order.
    `what` names the expected text when text is not a string.
    """
    if not isinstance(text, str):
        raise DomainError(f"expected {what}, got {text!r}")
    s = text.strip()
    if s == "0":
        return ZERO
    if not s:
        raise DomainError("empty ordinal string")
    terms: list[tuple[int, int]] = []
    for chunk in s.split("+"):
        chunk = chunk.strip()
        if chunk.isdecimal():
            v = read_digits(chunk, "ordinal term")
            if v == 0:
                raise DomainError("'0' is only valid as the whole ordinal")
            terms.append((0, v))
            continue
        m = _TERM.match(chunk)
        if not m:
            raise DomainError(f"malformed term {chunk!r} in {text!r}")
        e = read_digits(m.group(1), "ordinal exponent") if m.group(1) else 1
        c = read_digits(m.group(2), "ordinal coefficient") if m.group(2) else 1
        if m.group(1) == "1":
            raise DomainError(f"write 'w', not 'w^1', in {text!r}")
        if m.group(1) == "0":
            raise DomainError(f"write the integer, not 'w^0', in {text!r}")
        if m.group(2) == "1":
            raise DomainError(f"omit '*1' in {text!r}")
        if c == 0:
            raise DomainError(f"zero coefficient in {text!r}")
        terms.append((e, c))
    for (e1, _), (e2, _) in zip(terms, terms[1:]):
        if e1 <= e2:
            raise DomainError(f"exponents must strictly decrease in {text!r}")
    return Ordinal(tuple(terms))


def render(a: Ordinal) -> str:
    if not a.terms:
        return "0"
    parts = []
    for e, c in a.terms:
        if e == 0:
            parts.append(str(c))
        else:
            base = "w" if e == 1 else f"w^{e}"
            parts.append(base if c == 1 else f"{base}*{c}")
    return "+".join(parts)
