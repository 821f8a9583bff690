"""Graded endpoint decompositions and fragmentation evidence.

The open partition of a stage grades its nodes by rank; collecting
payload endpoints rank by rank yields a nested family of finite point
sets whose consecutive differences tile the gaps of the previous set.
The checks here replay that nesting, the gap identity, order density,
scatteredness (literal Cantor-Bendixson) and counting margins, each
from first principles. Fragmentation witnesses are closed-form: every
implemented space is scattered, so the least point of a finite set is
relatively isolated in it and fragments it at diameter 0.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from . import space as sp
from .errors import DomainError, read_kind, read_list

# the staged layer (openpart, simple) is imported by the two functions that read a stage


def ln_decomposition(st: StagedTree, p: OpenPartition) -> list[tuple]:
    """Endpoint sets graded by partition rank, boundary points first.

    Level 0 holds only the space's extremes; level n adds the payload
    endpoints of every node whose root branch meets at most n cells.
    The partition is re-verified before anything is read off it.
    """
    from .openpart import rank, verify_open_partition

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


def density_sweep(K, pts) -> tuple:
    """(n(n-1)/2, first failing pair or None): `verify_density` on every
    pair of a finite space. For a fixed u it fails only for the v below
    some bound, so the first failing pair is the first failing adjacent one."""
    cover = sp.enumerate_points(K)
    n = len(cover)
    return n * (n - 1) // 2, verify_density(K, pts, zip(cover, cover[1:]))


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


@dataclass(frozen=True)
class FragmentWitness:
    lo: object  # cut point, or None for the open left end
    hi: object  # cut point, or None for the open right end
    inside: tuple
    diameter: object


def fragment_check(K, members, eps) -> FragmentWitness:
    """The least member alone, between the open left end and the
    second-least member: a relatively open window of diameter 0 under
    any metric, so every positive eps admits it. Every implemented space
    is scattered, so every subset has such an isolated point, and no
    window search or metric is needed."""
    if not eps > 0:
        raise DomainError("eps must be positive")
    by_key = {K.key(q): q for q in members}
    if not by_key:
        raise DomainError("nothing to fragment")
    ks = sorted(by_key)
    return FragmentWitness(None, by_key[ks[1]] if len(ks) > 1 else None, (by_key[ks[0]],), 0)


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
    from .simple import RegressiveMap, is_simple, pool_ancestors

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
    write = sp.PointCodec(K).write
    return {
        "v": 1,
        "kind": "decomposition",
        "levels": [[write(q) for q in pts] for pts in levels],
    }


def read_levels(codec: sp.PointCodec, rows) -> list[tuple]:
    """A document's `levels`: a nonempty list of rows of point texts,
    read through the document's codec, so a point that several levels
    name is one object. A refusal of any row names the field."""
    if not read_list(rows, "levels"):
        raise DomainError("a decomposition needs at least level 0")
    read = codec.read
    try:
        return [tuple(read(t, "a point text in a level row") for t in read_list(row, "level row"))
                for row in rows]
    except DomainError as bad:
        raise DomainError(f"levels: {bad}") from None


def levels_from_json(K, doc) -> list[tuple]:
    return read_levels(sp.PointCodec(K), read_kind(doc, "decomposition", "levels")["levels"])
