"""Separating step functions and exact rational density witnesses.

A nested endpoint decomposition yields one increasing step function per
gap, with a jump of 1/n at depth n. The family induces pseudo-metrics
d_A over finite subfamilies; a canonical countable point set D is then
d_A-dense, and `approximate` finds a close D-point for any query by the
staircase case analysis. Everything is exact Fractions, and every
returned guarantee is re-evaluated literally before it is reported.
"""

from __future__ import annotations

import functools
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple

from . import space as sp
from .errors import (
    DomainError,
    GuaranteeFailure,
    InternalInconsistency,
    read_int,
    read_kind,
    read_list,
    read_object,
)
from .frag import delta_pairs, levels_to_json, read_levels

_ZERO = Fraction(0)
_first = itemgetter(0)


@dataclass(frozen=True)
class StepFunction:
    """Nondecreasing step function jumping only at adjacent point pairs.

    `cuts` is a left-to-right tuple of (lo, hi, jump) with hi the
    immediate successor of lo, so every jump happens across a clopen
    cut and the function is continuous. The base value is 0. `tag` is
    (x, y, n): the gap this function certifies and its depth.
    """

    space: object
    cuts: tuple
    tag: tuple

    def value(self, w):
        k = self.space.key(w)
        total = _ZERO
        for _lo, hi, jump in self.cuts:
            if k >= self.space.key(hi):
                total += jump
        return total

    @property
    def gap(self):
        return self.tag[0], self.tag[1]

    @property
    def level(self) -> int:
        return self.tag[2]


def _functions(family) -> tuple:
    if isinstance(family, PseudoMetric):
        return family.family
    return tuple(family)


def _tag_key(K, f: StepFunction):
    x, y, n = f.tag
    return (n, K.key(x), K.key(y))


def verify_step_function(K, f: StepFunction) -> list:
    """Audit one function against its tag. Empty list means clean."""
    problems = []
    x, y, n = f.tag
    if n < 1:
        problems.append(f"depth {n} is not positive")
    kx, ky = K.key(x), K.key(y)
    if not kx < ky:
        problems.append("gap endpoints are not increasing")
    last = None
    for lo, hi, jump in f.cuts:
        if jump <= 0:
            problems.append(f"jump {jump} at {sp.render_point(K, lo)} is not positive")
        if sp.adjacency(K, lo)[1] != hi:
            problems.append(f"cut at {sp.render_point(K, lo)} is not an adjacent pair")
        klo = K.key(lo)
        if not kx <= klo < ky:
            problems.append(f"cut at {sp.render_point(K, lo)} escapes the gap")
        if last is not None and not last < klo:
            problems.append("cuts are not ordered left to right")
        last = klo
    if n >= 1 and sum(jump for _l, _h, jump in f.cuts) != Fraction(1, n):
        problems.append(f"total climb differs from 1/{n}")
    return problems


def separating_family(K, levels) -> tuple:
    """One single-jump function per gap of each decomposition level.

    The jump of a depth-n function is 1/n, placed at the canonical cut
    (u, u+) for the least u >= x with an adjacent successor inside the
    gap; in the implemented space kinds that is always (x, succ x).
    Level 0 carries the extremes only and contributes no function.
    """
    out = []
    for n in range(1, len(levels)):
        for x, y in delta_pairs(K, levels[n]):
            succ = sp.adjacency(K, x)[1]
            if succ is None or K.key(succ) > K.key(y):
                raise DomainError(
                    f"no clopen cut inside [{sp.render_point(K, x)}, {sp.render_point(K, y)}]")
            out.append(StepFunction(K, ((x, succ, Fraction(1, n)),), (x, y, n)))
    return tuple(out)


def check_separation(K, family, pairs):
    """None when every pair is separated, else the first failing pair.

    f(v) - f(u) is the sum of f's jumps posted in (u, v], so candidate
    functions are located by binary search on cut position, then
    confirmed by literal evaluation; a pair is reported only after a
    full literal sweep finds no separating member. Each pair's points
    are keyed once.

    On its default sweep of a finite space, `namioka_check` passes only
    the n-1 adjacent pairs when every jump is positive: a pair is then
    separated exactly when an adjacent pair between its ends is. Its
    `pairs_checked` still counts the n(n-1)/2 pairs covered.
    """
    metric = pseudo_metric(family)
    for u, v in pairs:
        ku, kv = K.key(u), K.key(v)
        if not ku < kv:
            raise DomainError("separation pairs must be strictly increasing")
        for f in metric.posted(ku, kv):
            if f.value(u) != f.value(v):
                break
        else:
            if not any(f.value(u) != f.value(v) for f in metric.family):
                return (u, v)
    return None


@dataclass(frozen=True)
class PseudoMetric:
    """d(u, v) = max over the family of |f(u) - f(v)|, exact rationals.

    Every cut post (the key of a cut's hi) is indexed, sorted, on first
    use by `distance` or `check_separation`.
    """

    family: tuple

    @functools.cached_property
    def _posts(self) -> tuple:
        posts = sorted(((f.space.key(hi), f) for f in self.family
                        for _lo, hi, _jump in f.cuts), key=_first)
        return [k for k, _f in posts], [f for _k, f in posts]

    def posted(self, ku, kv):
        """Yield the members with a cut post in (ku, kv], once per post,
        in post order: for keys ku < kv only they can tell u from v."""
        keys, fns = self._posts
        i = bisect_right(keys, ku)
        while i < len(keys) and keys[i] <= kv:
            yield fns[i]
            i += 1

    def distance(self, u, v) -> Fraction:
        """d(u, v), evaluating literally only the members a bisection
        finds posted in (u, v] (u <= v): f(v) - f(u) is the sum of f's
        jumps posted there, so every other member takes one value on
        both. With every jump positive the same identity lets
        `namioka_check` sweep only the n-1 adjacent pairs of a finite
        space; its `pairs_checked` still counts all n(n-1)/2 pairs."""
        best = _ZERO
        if not self.family:
            return best
        K = self.family[0].space
        ku, kv = K.key(u), K.key(v)
        for f in self.posted(min(ku, kv), max(ku, kv)):
            d = abs(f.value(u) - f.value(v))
            if d > best:
                best = d
        return best


def pseudo_metric(A) -> PseudoMetric:
    return A if isinstance(A, PseudoMetric) else PseudoMetric(tuple(A))


def scale_family(family, factor) -> tuple:
    """Multiply every jump; the negative control for the norm clause."""
    factor = Fraction(factor)
    return tuple(
        StepFunction(f.space, tuple((lo, hi, jump * factor) for lo, hi, jump in f.cuts), f.tag)
        for f in _functions(family))


def drop_level(family, n: int) -> tuple:
    """Remove every depth-n function; the separation negative control."""
    return tuple(f for f in _functions(family) if f.level != n)


class ZSelection(NamedTuple):
    """Provenance of one dense-set point.

    A depth-`level` gap is bracketed by the staircase x_0 <= ... <=
    x_level of greatest lower level points; stair j covers the region
    (x_j, x_{j+1}] (the final stair runs to max K). Its rational boxes
    are `_value_boxes(level, j, denominator_bound)`. A named tuple: a
    dense set holds about n log n of them, and a frozen dataclass costs
    nearly three times as much to build.
    """

    level: int
    gap: tuple
    j: int
    region: tuple
    z: object


@dataclass(frozen=True)
class DenseSetRecord:
    """The countable dense set with full per-point provenance.

    `m_sets` lists, per depth, the closed set of gap endpoints (finite
    point sets are already closed in all implemented space kinds);
    `selections` records every staircase choice. Queries at depth n are
    served only for n <= n_cap = denominator_bound // 2, which keeps the
    rational box around 1/n strictly above the box around 0.

    Construction indexes the record by order key: the point keys, one
    fence per depth (the extremes plus every m-set up to that depth,
    sorted) and, deepest depth first, the gaps of each depth sorted by
    left end, each with its final-stair point.
    """

    space: object
    points: tuple
    m_sets: tuple
    selections: tuple
    denominator_bound: int
    _keys: frozenset = field(init=False, repr=False, compare=False)
    _fences: tuple = field(init=False, repr=False, compare=False)
    _gaps: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        key = self.space.key
        object.__setattr__(self, "_keys", frozenset(map(key, self.points)))
        fence = {key(p): p for p in (self.space.minimum(), self.space.maximum())}
        depths, fences = [], [_sorted_by_key(fence)]
        for depth, pts in sorted(self.m_sets, key=_first):
            fence.update((key(p), p) for p in pts)
            if depths and depths[-1] == depth:
                depths.pop()
                fences.pop()
            depths.append(depth)
            fences.append(_sorted_by_key(fence))
        object.__setattr__(self, "_fences", (depths, fences))
        rows: dict = {}
        for level, (x, y), j, _region, point in self.selections:
            if j == level:
                rows.setdefault(level, []).append((key(x), key(y), (x, y), point))
        gaps = {}
        for depth in sorted(rows, reverse=True):
            row = sorted(rows[depth], key=_first)
            gaps[depth] = ([r[0] for r in row], row)
        object.__setattr__(self, "_gaps", gaps)

    @property
    def n_cap(self) -> int:
        return self.denominator_bound // 2

    def contains(self, w) -> bool:
        return self.space.key(w) in self._keys

    def m_upto(self, n: int) -> tuple:
        """(keys, points) of the extremes and every m-set of depth <= n,
        sorted by key: the fence `approximate` brackets a query with."""
        depths, fences = self._fences
        return fences[bisect_right(depths, n)]

    def deepest_gap(self, kw, n: int):
        """(k, gap, z): the deepest depth k <= n at which a gap of the
        record strictly contains the point keyed kw, that gap and its
        final-stair point; (0, None, None) when none does. The gaps of one
        depth are consecutive points of one level, so only the last gap
        opening below kw can contain it."""
        for depth, (lefts, row) in self._gaps.items():
            if depth <= n:
                i = bisect_left(lefts, kw) - 1
                if i >= 0 and row[i][1] > kw:
                    return depth, row[i][2], row[i][3]
        return 0, None, None


def _sorted_by_key(by_key: dict) -> tuple:
    keys = sorted(by_key)
    return keys, [by_key[k] for k in keys]


@functools.cache
def _value_boxes(level: int, j: int, bound: int) -> tuple:
    """Nearest fractions with denominator <= bound strictly around each
    depth-i value: 1/i for i <= j (stair j sits above those cuts), else 0.
    Cached: the rows are immutable, and every document of one
    decomposition asks for the same few.

    Closed form (Hardy & Wright, ch. III): the Farey neighbours of 1/i
    are k/(k*i+1) below, k = (bound-1)//i, and k/(k*i-1) above,
    k = (bound+1)//i, or 1/bound once i > bound; those of 0 are -1/bound
    and 1/bound.
    """
    boxes = []
    for i in range(1, level + 1):
        if i > j:
            boxes.append((Fraction(-1, bound), Fraction(1, bound)))
        else:
            k, k2 = (bound - 1) // i, (bound + 1) // i
            above = Fraction(k2, k2 * i - 1) if i <= bound else Fraction(1, bound)
            boxes.append((Fraction(k, k * i + 1), above))
    return tuple(boxes)


def dense_set(K, A, levels, denominator_bound: int = 16) -> DenseSetRecord:
    """Build the canonical countable d_A-dense set with provenance.

    For each gap of A at depth n the staircase of greatest lower level
    points is computed, one least decomposition point is selected per
    realizable stair region, and the selection is recorded. D is the
    extremes, the gap endpoint sets, and the selected points. Every
    point is keyed once.
    """
    fams = _functions(A)
    if denominator_bound < 4:
        raise DomainError("denominator bound must be at least 4")
    if not levels:
        raise DomainError("a decomposition with at least the extremes is required")
    key = K.key
    lo, hi = K.minimum(), K.maximum()
    k_hi = key(hi)

    by_level: dict = {}
    seen = set()
    for f in fams:
        x, y, n = f.tag
        if n >= len(levels):
            raise DomainError(f"depth {n} lies beyond the decomposition")
        mark = (n, key(x), key(y))
        if mark in seen:
            continue
        seen.add(mark)
        by_level.setdefault(n, []).append((mark[1], mark[2], x, y))

    level_keys, sorted_levels = [], []
    union: dict = {}
    for lv in levels:
        keyed = sorted(((key(p), p) for p in lv), key=_first)
        level_keys.append([k for k, _p in keyed])
        sorted_levels.append([p for _k, p in keyed])
        union.update(keyed)
    L_keys, L = _sorted_by_key(union)

    pool = {key(lo): lo, k_hi: hi}
    m_sets = []
    for n in sorted(by_level):
        ends = {k: p for kx, ky, x, y in by_level[n] for k, p in ((kx, x), (ky, y))}
        pool.update(ends)
        # finite endpoint sets are closed as-is in every space kind here
        m_sets.append((n, tuple(_sorted_by_key(ends)[1])))

    selections = []
    # per left end x: its stairs x_0 <= x_1 <= ..., and the (j, region, z)
    # of each stair j < len - 1 with x_j < x_{j+1}; neither depends on the
    # depth of the gap x opens, only the final stair's region does
    ladders: dict = {}

    def pick(k0, k1):
        at = bisect_right(L_keys, k0)
        if at >= len(L) or L_keys[at] > k1:
            raise InternalInconsistency(
                "a nonempty stair region holds no decomposition point")
        pool[L_keys[at]] = L[at]
        return L[at]

    for n in sorted(by_level):
        for kx, ky, x, y in sorted(by_level[n], key=_first):
            i = bisect_left(level_keys[n], kx)
            if not (i + 1 < len(level_keys[n])
                    and level_keys[n][i] == kx
                    and level_keys[n][i + 1] == ky):
                raise DomainError(
                    f"({sp.render_point(K, x)}, {sp.render_point(K, y)}) "
                    f"is not a gap of level {n}")
            if kx not in ladders:
                ladders[kx] = ([], [])
            stairs, rises = ladders[kx]
            grown = len(stairs)
            for j in range(grown, n + 1):
                at = bisect_right(level_keys[j], kx) - 1
                if at < 0:  # the levels come from the caller, so this is bad input
                    raise DomainError(f"level {j} misses the minimum")
                stairs.append((level_keys[j][at], sorted_levels[j][at]))
            for j in range(max(grown - 1, 0), n):
                (k0, p0), (k1, p1) = stairs[j], stairs[j + 1]
                if k0 < k1:
                    rises.append((j, (p0, p1), pick(k0, k1)))
            gap = (x, y)
            for j, region, z in rises:
                selections.append(ZSelection(n, gap, j, region, z))
            k0, p0 = stairs[n]
            selections.append(ZSelection(n, gap, n, (p0, hi), pick(k0, k_hi)))

    return DenseSetRecord(K, tuple(_sorted_by_key(pool)[1]), tuple(m_sets),
                          tuple(selections), denominator_bound)


def approximate(K, w, n: int, A, D: DenseSetRecord):
    """A point z of D with d_A(w, z) < 1/n, by the staircase cases.

    Dense-set members answer for themselves. Otherwise w is bracketed
    by its gap-endpoint neighbours u < w < v; with k the deepest depth
    <= n at which a gap of D strictly contains w, that gap's final-stair
    point steers the choice between u and v. Only the literal re-check
    of the bound reads `A`; a miss raises GuaranteeFailure. `A` may be
    a `PseudoMetric`, whose index then serves every call.
    """
    sp.validate_point(K, w)
    if not 1 <= n <= D.n_cap:
        raise DomainError(f"depth {n} is outside 1..{D.n_cap}")
    if D.contains(w):
        return w
    key = K.key
    kw = key(w)

    M_keys, M = D.m_upto(n)
    at = bisect_left(M_keys, kw)
    if at == 0 or at >= len(M_keys):
        raise InternalInconsistency("query escaped the extremes")
    u, v = M[at - 1], M[at]

    k, gap, z_rec = D.deepest_gap(kw, n)
    if k == 0:
        z = u
    else:
        kz = key(z_rec)
        if kz <= kw:
            z = z_rec if kz > M_keys[at - 1] else u
        else:
            z = z_rec if kz < M_keys[at] else v

    dist = pseudo_metric(A).distance(w, z)
    if dist >= Fraction(1, n):
        raise GuaranteeFailure(
            f"d_A({sp.render_point(K, w)}, {sp.render_point(K, z)}) = {dist} >= 1/{n}",
            w=w, n=n, k=k, gap=gap, u=u, v=v, z=z, distance=dist)
    return z


@dataclass(frozen=True)
class NamiokaReport:
    ok: bool
    norm_problems: tuple
    unseparated: object
    pairs_checked: int
    density_failures: tuple
    subsets_checked: int
    points_checked: int


def namioka_check(K, family, levels, *, pairs=None, sample_points=None,
                  subsets=20, seed=0, denominator_bound=16) -> NamiokaReport:
    """Norm bound, separation, and per-subfamily density, aggregated.

    Finite spaces are checked exhaustively; infinite ones need explicit
    `pairs` and `sample_points`. Density runs the full family first and
    then seeded subfamilies, each against its own dense set at the
    deepest admissible query depth. The clauses short-circuit: density
    is only sampled once norm and separation are clean.

    The default sweep covers all n(n-1)/2 pairs of a finite space, and
    `pairs_checked` counts the pairs covered. When every jump is
    positive, f(u) != f(v) exactly when f has a post in (u, v], so a
    pair is separated exactly when one of the adjacent pairs between
    its ends is, and the first unseparated pair in enumeration order is
    the first unseparated adjacent pair: only the n-1 adjacent pairs
    are checked then. Explicit `pairs`, or a non-positive jump, keep the
    per-pair sweep.
    """
    if denominator_bound < 4:
        raise DomainError("denominator bound must be at least 4")
    tagged = sorted(((_tag_key(K, f), f) for f in _functions(family)), key=_first)
    fams = tuple(f for _k, f in tagged)
    metric = PseudoMetric(fams)

    norm_problems = []
    positive = True
    for f in fams:
        total = Fraction(0)
        for _lo, _hi, jump in f.cuts:
            if jump <= 0:
                norm_problems.append(f"function {f.tag} has a non-positive jump")
                positive = False
            total += jump
        if total > 1:
            norm_problems.append(f"function {f.tag} climbs to {total}")

    if pairs is None:
        if not sp.is_finite_space(K):
            raise DomainError("explicit pairs are required on infinite spaces")
        pts = sp.enumerate_points(K)
        pairs_checked = len(pts) * (len(pts) - 1) // 2
        if positive:
            pairs = zip(pts, pts[1:])
        else:
            pairs = [(u, v) for i, u in enumerate(pts) for v in pts[i + 1:]]
    else:
        pairs = list(pairs)
        pairs_checked = len(pairs)
    unseparated = check_separation(K, metric, pairs)

    if sample_points is None:
        if not sp.is_finite_space(K):
            raise DomainError("explicit sample points are required on infinite spaces")
        sample_points = sp.enumerate_points(K)
    sample_points = list(sample_points)

    density_failures = []
    subsets_checked = 0
    points_checked = 0
    if not norm_problems and unseparated is None and fams:
        rng = random.Random(seed)
        chosen = [metric]
        for _ in range(max(subsets - 1, 0)):
            size = rng.randint(1, len(fams))
            # sample draws the same positions from any population of this length
            picks = sorted(rng.sample(range(len(fams)), size), key=lambda i: tagged[i][0])
            chosen.append(PseudoMetric(tuple(fams[i] for i in picks)))
        for A in chosen:
            D = dense_set(K, A, levels, denominator_bound)
            for w in sample_points:
                try:
                    approximate(K, w, D.n_cap, A, D)
                except GuaranteeFailure as bad:
                    density_failures.append(
                        f"subset {subsets_checked}: {bad}")
                points_checked += 1
            subsets_checked += 1

    ok = (not norm_problems and unseparated is None and not density_failures)
    return NamiokaReport(ok, tuple(norm_problems), unseparated, pairs_checked,
                         tuple(density_failures), subsets_checked, points_checked)


def _box_json(bound: int, level: int, j: int) -> list:
    """The boxes of stair j of a depth-`level` gap as a document writes
    them: one [lo, hi] pair of fraction strings per depth."""
    return [[str(lo), str(hi)] for lo, hi in _value_boxes(level, j, bound)]


def dense_to_json(K, D: DenseSetRecord) -> dict:
    """Each distinct point is rendered once, and the boxes of each
    (level, j) once."""
    render = sp.PointCodec(K).write
    box = functools.cache(functools.partial(_box_json, D.denominator_bound))
    return {
        "v": 1,
        "kind": "rn-dense",
        "denbound": D.denominator_bound,
        "points": [render(p) for p in D.points],
        "m": [[n, [render(p) for p in pts]] for n, pts in D.m_sets],
        "z": [
            {
                "level": s.level,
                "gap": [render(s.gap[0]), render(s.gap[1])],
                "j": s.j,
                "region": [render(s.region[0]), render(s.region[1])],
                "z": render(s.z),
                "box": box(s.level, s.j),
            }
            for s in D.selections
        ],
    }


def _pair(parse, x, what: str) -> tuple:
    # checked before the parse, so that the refusal names the field
    if type(x) is not list or len(x) != 2:
        raise DomainError(f"{what} {x!r} is not a pair")
    if type(x[0]) is not str or type(x[1]) is not str:
        raise DomainError(f"{what} {x[1] if type(x[0]) is str else x[0]!r} is not a point text")
    return parse(x[0]), parse(x[1])


def dense_from_json(codec: sp.PointCodec, doc) -> DenseSetRecord:
    """The dense set a document writes, its point texts read through
    `codec`. A selection's box must be the canonical rendering of its
    stair's boxes; its length is checked first, so a forged level costs
    nothing."""
    read_kind(doc, "rn-dense", "points", "m", "z", "denbound")
    bound = read_int(doc["denbound"], "denbound", 4)
    parse = codec.read
    canonical = functools.cache(functools.partial(_box_json, bound))
    points = tuple(map(parse, read_list(doc["points"], "points", texts=True)))
    m_sets = tuple((read_int(n, "m-set depth", 1), tuple(map(parse, read_list(pts, "m-set", texts=True))))
                   for n, pts in (read_list(x, "m entry", 2) for x in read_list(doc["m"], "m")))
    selections = []
    for e in read_list(doc["z"], "z"):
        if not isinstance(e, dict) or type(e.get("z")) is not str:
            raise DomainError(f"selection {e!r} has no point text z")
        level = read_int(e.get("level"), "selection level", 1)
        j = read_int(e.get("j"), "selection j", 0)
        if j > level:  # every j above the level would name the same boxes
            raise DomainError(f"selection j {j!r} is not an int in 0..{level}")
        box, want = read_list(e.get("box"), "box", level), canonical(level, j)
        if box != want:
            i = next(i for i, (got, ok) in enumerate(zip(box, want)) if got != ok)
            raise DomainError(f"box {box[i]!r} at depth {i + 1} is not the canonical {want[i]!r}")
        selections.append(ZSelection(level, _pair(parse, e.get("gap"), "gap"), j,
                                     _pair(parse, e.get("region"), "region"), parse(e["z"])))
    return DenseSetRecord(codec.space, points, m_sets, tuple(selections), bound)


def witness_bundle_to_json(K, family, D: DenseSetRecord, levels) -> dict:
    """The family sorted by tag, each single cut with its gap and depth,
    the dense set and the decomposition it was built from."""
    render = sp.PointCodec(K).write
    entries = []
    for f in sorted(_functions(family), key=lambda f: _tag_key(K, f)):
        if len(f.cuts) != 1:
            raise DomainError("only single-cut families serialize")
        lo, hi, _jump = f.cuts[0]
        entries.append({
            "gap": [render(f.tag[0]), render(f.tag[1])],
            "n": f.tag[2],
            "cut": [render(lo), render(hi)],
        })
    return {"v": 1, "kind": "rn-witness", "family": entries, "dense": dense_to_json(K, D),
            "levels": levels_to_json(K, levels)["levels"]}


def witness_bundle_from_json(K, doc) -> tuple:
    """(family, dense set, levels). The family, the dense set and the
    levels share one codec, so each distinct point text is parsed once."""
    read_kind(doc, "rn-witness", "family", "dense", "levels")
    codec = sp.PointCodec(K)
    parse = codec.read
    family = []
    for entry in read_list(doc["family"], "family"):
        x, y = _pair(parse, read_object(entry, "family entry", "gap", "n", "cut")["gap"], "gap")
        n = read_int(entry["n"], "family n", 1)
        lo, hi = _pair(parse, entry["cut"], "cut")
        family.append(StepFunction(K, ((lo, hi, Fraction(1, n)),), (x, y, n)))
    return tuple(family), dense_from_json(codec, doc["dense"]), read_levels(codec, doc["levels"])
