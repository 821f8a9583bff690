"""Graded endpoint decompositions and fragmentation evidence.

The open partition of a stage grades its nodes by rank; collecting
payload endpoints rank by rank yields a nested family of finite point
sets whose consecutive differences tile the gaps of the previous set.
The checks here replay that nesting, the gap identity, order density,
scatteredness (literal Cantor-Bendixson plus a symbolic ordinal
derivative), counting margins, and small-diameter fragmentation
witnesses, each from first principles.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from . import space as sp
from .errors import DomainError, document_decoder
from .openpart import OpenPartition, rank, verify_open_partition
from .ordinal import Ordinal, degree
from .ptree import StagedTree
from .simple import NotSimple, Simple, is_simple, pool_ancestors

__all__ = [
    "ln_decomposition",
    "verify_decomposition",
    "verify_delta_identity",
    "delta_pairs",
    "verify_density",
    "ScatterReport",
    "verify_scattered_closed",
    "shift_derivative",
    "cb_degree",
    "FragmentWitness",
    "fragment_check",
    "WeightReport",
    "weight_bound",
    "levels_to_json",
    "levels_from_json",
]


def ln_decomposition(st: StagedTree, p: OpenPartition) -> list[tuple]:
    """Endpoint sets graded by partition rank, boundary points first.

    Level 0 holds only the space's extremes; level n adds the payload
    endpoints of every node whose root branch meets at most n cells.
    The partition is re-verified before anything is read off it.
    """
    if st.payload is None or st.space is None:
        raise DomainError("decomposition needs payload intervals")
    bad = verify_open_partition(st, p)
    if bad:
        raise DomainError("partition rejected: " + "; ".join(bad[:3]))
    K = st.space
    ranks = {v: rank(st, p, v) for v in sorted(st.parent)}
    top = max(ranks.values())
    base = (sp.minimum(K), sp.maximum(K))
    levels = []
    for n in range(top + 1):
        pts = {sp.point_key(K, q): q for q in base}
        for v, r in sorted(ranks.items()):
            if r <= n:
                iv = st.payload[v]
                pts[sp.point_key(K, iv.lo)] = iv.lo
                pts[sp.point_key(K, iv.hi)] = iv.hi
        levels.append(tuple(pts[k] for k in sorted(pts)))
    return levels


def _keys(K, pts) -> list:
    return [sp.point_key(K, q) for q in pts]


def verify_decomposition(K, levels) -> list[str]:
    """Sortedness, the two-point base, and the inclusion chain."""
    problems = []
    if not levels:
        return ["no levels at all"]
    for n, pts in enumerate(levels):
        ks = _keys(K, pts)
        if ks != sorted(set(ks)):
            problems.append(f"level {n} is not strictly sorted")
    base = {sp.point_key(K, sp.minimum(K)), sp.point_key(K, sp.maximum(K))}
    if set(_keys(K, levels[0])) != base:
        problems.append("level 0 is not the pair of extremes")
    for n in range(len(levels) - 1):
        if not set(_keys(K, levels[n])) <= set(_keys(K, levels[n + 1])):
            problems.append(f"level {n} escapes level {n + 1}")
    return problems


def delta_pairs(K, pts) -> tuple:
    """Consecutive pairs of the sorted point set: its gap intervals."""
    order = sorted(set(_keys(K, pts)))
    by_key = {sp.point_key(K, q): q for q in pts}
    return tuple((by_key[a], by_key[b]) for a, b in zip(order, order[1:]))


def verify_delta_identity(K, levels) -> list[str]:
    """Each new point must sit strictly inside a gap of the level below,
    and the gaps must jointly account for every new point."""
    problems = []
    for n in range(len(levels) - 1):
        old = set(_keys(K, levels[n]))
        new = [q for q in levels[n + 1] if sp.point_key(K, q) not in old]
        covered = set()
        for x, y in delta_pairs(K, levels[n]):
            kx, ky = sp.point_key(K, x), sp.point_key(K, y)
            covered.update(
                sp.point_key(K, q) for q in new if kx < sp.point_key(K, q) < ky
            )
        leftover = [q for q in new if sp.point_key(K, q) not in covered]
        if leftover:
            problems.append(
                f"level {n + 1} points {[sp.render_point(K, q) for q in leftover[:4]]} "
                f"fall outside every gap of level {n}"
            )
    return problems


def verify_density(K, pts, pairs):
    """First pair (u, v) without two decomposition points inside, else None.

    The least point at or above u and its successor are the canonical
    candidates; if they do not fit inside [u, v], nothing does.
    """
    ks = sorted(set(_keys(K, pts)))
    for u, v in pairs:
        ku, kv = sp.point_key(K, u), sp.point_key(K, v)
        if not ku < kv:
            raise DomainError("density pairs must be strictly increasing")
        i = bisect_left(ks, ku)
        if i + 1 >= len(ks) or ks[i + 1] > kv:
            return (u, v)
    return None


@dataclass(frozen=True)
class ScatterReport:
    rounds: int
    emptied: bool
    closed: bool


def verify_scattered_closed(K, pts) -> ScatterReport:
    """Literal Cantor-Bendixson on the finite subspace.

    A point is isolated when the open interval between its surviving
    neighbors meets the set in it alone; rounds are counted until the
    set empties. All points of a finite set are isolated at once, which
    is also why the set is closed: no point of the space accumulates
    against finitely many others.
    """
    remaining = sorted(set(_keys(K, pts)))
    rounds = 0
    while remaining:
        isolated = []
        for i, k in enumerate(remaining):
            lo = remaining[i - 1] if i > 0 else None
            hi = remaining[i + 1] if i + 1 < len(remaining) else None
            inside = [
                q for q in remaining if (lo is None or q > lo) and (hi is None or q < hi)
            ]
            if inside == [k]:
                isolated.append(k)
        if not isolated:
            return ScatterReport(rounds, False, False)
        remaining = [k for k in remaining if k not in isolated]
        rounds += 1
    return ScatterReport(rounds, True, True)


def shift_derivative(a: Ordinal) -> Ordinal:
    """Lower every exponent by one and drop the finite tail."""
    return Ordinal(tuple((e - 1, c) for e, c in a.terms if e >= 1))


def cb_degree(a: Ordinal) -> int:
    """Iterations of the shift derivative until the degree hits zero."""
    n = 0
    while degree(a) > 0:
        a = shift_derivative(a)
        n += 1
    return n


@dataclass(frozen=True)
class FragmentWitness:
    lo: object  # cut point, or None for the open left end
    hi: object  # cut point, or None for the open right end
    inside: tuple
    diameter: object


def fragment_check(K, members, d, eps) -> FragmentWitness:
    """Smallest window between cuts whose interior has diameter under eps.

    Cuts are the member points themselves plus the two open ends;
    windows are scanned by width, then by left cut. Width-two windows
    isolate single members, so a witness always exists for positive
    eps.
    """
    if not eps > 0:
        raise DomainError("eps must be positive")
    order = sorted(set(_keys(K, members)))
    by_key = {sp.point_key(K, q): q for q in members}
    pts = [by_key[k] for k in order]
    if not pts:
        raise DomainError("nothing to fragment")
    cuts = [None] + pts + [None]
    for width in range(2, len(cuts)):
        for i in range(0, len(cuts) - width):
            j = i + width
            klo = None if cuts[i] is None else sp.point_key(K, cuts[i])
            khi = None if cuts[j] is None else sp.point_key(K, cuts[j])
            inside = [
                q
                for q in pts
                if (klo is None or sp.point_key(K, q) > klo)
                and (khi is None or sp.point_key(K, q) < khi)
            ]
            if not inside:
                continue
            diam = max(
                (d(u, v) for a_i, u in enumerate(inside) for v in inside[a_i + 1 :]),
                default=0,
            )
            if diam < eps:
                return FragmentWitness(cuts[i], cuts[j], tuple(inside), diam)
    raise DomainError("no window qualifies")  # unreachable for eps > 0


@dataclass(frozen=True)
class WeightReport:
    simple: bool
    n_tops: int
    n_pooled: int
    margin: int
    hall: tuple | None


def weight_bound(st: StagedTree) -> WeightReport:
    """Counting report for the full top level.

    n_pooled counts the distinct pooled ancestors the tops can reach;
    a simple top level can never outnumber them. The Hall pair records
    the exact deficiency otherwise.
    """
    tops = sorted(st.tops())
    reach = set()
    for y in tops:
        reach.update(pool_ancestors(st, y))
    out = is_simple(st, frozenset(tops))
    hall = None
    if isinstance(out, NotSimple):
        hall = (len(out.violator.members), len(out.violator.neighborhood))
    return WeightReport(
        simple=isinstance(out, Simple),
        n_tops=len(tops),
        n_pooled=len(reach),
        margin=len(reach) - len(tops),
        hall=hall,
    )


def levels_to_json(K, levels) -> dict:
    return {
        "v": 1,
        "kind": "decomposition",
        "levels": [[sp.render_point(K, q) for q in pts] for pts in levels],
    }


@document_decoder
def levels_from_json(K, doc) -> list[tuple]:
    if not isinstance(doc, dict) or doc.get("kind") != "decomposition":
        raise DomainError("not a decomposition document")
    if not doc["levels"]:
        raise DomainError("a decomposition needs at least level 0")
    return [tuple(sp.parse_point(K, t) for t in row) for row in doc["levels"]]
