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
from .errors import DomainError, read_kind, read_list
from .openpart import OpenPartition, rank, verify_open_partition
from .ordinal import Ordinal, degree
from .ptree import StagedTree
from .simple import RegressiveMap, is_simple, pool_ancestors

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
    lo, hi = st.payload_keys
    by_rank: dict[int, list[int]] = {}
    for v in sorted(st.parent):
        by_rank.setdefault(rank(st, p, v), []).append(v)
    pts = {K.key(q): q for q in (K.minimum(), K.maximum())}
    levels = []
    for n in range(max(by_rank) + 1):
        for v in by_rank.get(n, ()):
            pts[lo[v]] = st.payload[v].lo
            pts[hi[v]] = st.payload[v].hi
        levels.append(tuple(pts[k] for k in sorted(pts)))
    return levels


def verify_decomposition(K, levels) -> list[str]:
    """Sortedness, the two-point base, and the inclusion chain."""
    problems = []
    if not levels:
        return ["no levels at all"]
    keys = [[K.key(q) for q in pts] for pts in levels]
    for n, ks in enumerate(keys):
        if ks != sorted(set(ks)):
            problems.append(f"level {n} is not strictly sorted")
    if set(keys[0]) != {K.key(K.minimum()), K.key(K.maximum())}:
        problems.append("level 0 is not the pair of extremes")
    for n in range(len(keys) - 1):
        if not set(keys[n]) <= set(keys[n + 1]):
            problems.append(f"level {n} escapes level {n + 1}")
    return problems


def delta_pairs(K, pts) -> tuple:
    """Consecutive pairs of the sorted point set: its gap intervals."""
    by_key = {K.key(q): q for q in pts}
    order = sorted(by_key)
    return tuple((by_key[a], by_key[b]) for a, b in zip(order, order[1:]))


def verify_delta_identity(K, levels) -> list[str]:
    """Each new point must sit strictly inside a gap of the level below,
    and the gaps must jointly account for every new point.

    A key not in level n lies inside one of its gaps exactly when it
    lies strictly between the least and the greatest key of level n.
    Once `verify_decomposition` is clean, every level holds both
    extremes of the space, so this check cannot fail on its own.
    """
    problems = []
    keys = [[K.key(q) for q in pts] for pts in levels]
    for n in range(len(levels) - 1):
        old = set(keys[n])
        first, last = min(old, default=None), max(old, default=None)
        leftover = [
            q
            for k, q in zip(keys[n + 1], levels[n + 1])
            if k not in old and not (old and first < k < last)
        ]
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
    ks = sorted({K.key(q) for q in pts})
    for u, v in pairs:
        ku, kv = K.key(u), K.key(v)
        if not ku < kv:
            raise DomainError("density pairs must be strictly increasing")
        i = bisect_left(ks, ku)
        if i + 1 >= len(ks) or ks[i + 1] > kv:
            return (u, v)
    return None


@dataclass(frozen=True)
class ScatterReport:
    emptied: bool
    closed: bool


def verify_scattered_closed(K, pts) -> ScatterReport:
    """Literal Cantor-Bendixson on the finite subspace.

    A point is isolated when the open interval between its surviving
    neighbors meets the set in it alone; isolated points are removed
    until the set empties. All points of a finite set are isolated at
    once, which is also why the set is closed: no point of the space
    accumulates against finitely many others.
    """
    remaining = sorted({K.key(q) for q in pts})
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
            return ScatterReport(False, False)
        remaining = [k for k in remaining if k not in isolated]
    return ScatterReport(True, True)


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
    by_key = {K.key(q): q for q in members}
    pts = [by_key[k] for k in sorted(by_key)]
    if not pts:
        raise DomainError("nothing to fragment")
    cuts = [None] + pts + [None]
    for width in range(2, len(cuts)):
        for i in range(0, len(cuts) - width):
            j = i + width
            inside = pts[i : j - 1]  # the members strictly between the two cuts
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
    simple = isinstance(out, RegressiveMap)
    return WeightReport(
        simple=simple,
        n_tops=len(tops),
        n_pooled=len(reach),
        margin=len(reach) - len(tops),
        hall=None if simple else (len(out.members), len(out.neighborhood)),
    )


def levels_to_json(K, levels) -> dict:
    return {
        "v": 1,
        "kind": "decomposition",
        "levels": [[sp.render_point(K, q) for q in pts] for pts in levels],
    }


def levels_from_json(K, doc) -> list[tuple]:
    levels = read_list(read_kind(doc, "decomposition", "levels")["levels"], "levels")
    if not levels:
        raise DomainError("a decomposition needs at least level 0")
    return [tuple(sp.parse_point(K, t, "a point text in a level row") for t in read_list(row, "level row"))
            for row in levels]
