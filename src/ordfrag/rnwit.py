"""Separating step functions and exact rational density witnesses.

A nested endpoint decomposition yields one increasing step function per
gap, with a jump of 1/n at depth n. The family induces pseudo-metrics
d_A over finite subfamilies; a canonical countable point set D is then
d_A-dense, and `approximate` finds a close D-point for any query by the
staircase case analysis. Everything is exact Fractions, and every
returned guarantee is re-evaluated literally before it is reported.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from . import space as sp
from .errors import DomainError, GuaranteeFailure, InternalInconsistency, document_decoder
from .frag import delta_pairs


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
        total = Fraction(0)
        for _lo, hi, jump in self.cuts:
            if sp.point_key(self.space, w) >= sp.point_key(self.space, hi):
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
    return (n, sp.point_key(K, x), sp.point_key(K, y))


def verify_step_function(K, f: StepFunction) -> list:
    """Audit one function against its tag. Empty list means clean."""
    problems = []
    x, y, n = f.tag
    if n < 1:
        problems.append(f"depth {n} is not positive")
    kx, ky = sp.point_key(K, x), sp.point_key(K, y)
    if not kx < ky:
        problems.append("gap endpoints are not increasing")
    last = None
    for lo, hi, jump in f.cuts:
        if jump <= 0:
            problems.append(f"jump {jump} at {sp.render_point(K, lo)} is not positive")
        if sp.adjacency(K, lo)[1] != hi:
            problems.append(f"cut at {sp.render_point(K, lo)} is not an adjacent pair")
        klo = sp.point_key(K, lo)
        if not kx <= klo < ky:
            problems.append(f"cut at {sp.render_point(K, lo)} escapes the gap")
        if last is not None and not last < klo:
            problems.append("cuts are not ordered left to right")
        last = klo
    if n >= 1 and sum(jump for _l, _h, jump in f.cuts) != Fraction(1, n):
        problems.append(f"total climb differs from 1/{n}")
    return problems


def separating_family(K, levels, deltas=None) -> tuple:
    """One single-jump function per gap of each decomposition level.

    The jump of a depth-n function is 1/n, placed at the canonical cut
    (u, u+) for the least u >= x with an adjacent successor inside the
    gap; in the implemented space kinds that is always (x, succ x).
    Level 0 carries the extremes only and contributes no function.
    """
    if deltas is None:
        deltas = [delta_pairs(K, lv) for lv in levels]
    if len(deltas) != len(levels):
        raise DomainError("one gap list per level is required")
    out = []
    for n in range(1, len(levels)):
        for x, y in deltas[n]:
            succ = sp.adjacency(K, x)[1]
            if succ is None or sp.point_key(K, succ) > sp.point_key(K, y):
                raise DomainError(
                    f"no clopen cut inside [{sp.render_point(K, x)}, {sp.render_point(K, y)}]")
            out.append(StepFunction(K, ((x, succ, Fraction(1, n)),), (x, y, n)))
    return tuple(out)


def check_separation(K, family, pairs):
    """None when every pair is separated, else the first failing pair.

    Candidate functions are located by binary search on cut position,
    then confirmed by literal evaluation; a pair is reported only after
    a full literal sweep finds no separating member.
    """
    fams = _functions(family)
    key = lambda p: sp.point_key(K, p)
    posts = sorted(
        ((key(hi), f) for f in fams for _lo, hi, _j in f.cuts),
        key=lambda t: t[0])
    post_keys = [t[0] for t in posts]
    for u, v in pairs:
        if not key(u) < key(v):
            raise DomainError("separation pairs must be strictly increasing")
        hit = None
        i = bisect_right(post_keys, key(u))
        while i < len(posts) and post_keys[i] <= key(v):
            f = posts[i][1]
            if f.value(u) != f.value(v):
                hit = f
                break
            i += 1
        if hit is None and not any(f.value(u) != f.value(v) for f in fams):
            return (u, v)
    return None


@dataclass(frozen=True)
class PseudoMetric:
    """d(u, v) = max over the family of |f(u) - f(v)|, exact rationals."""

    family: tuple

    def distance(self, u, v) -> Fraction:
        best = Fraction(0)
        for f in self.family:
            d = abs(f.value(u) - f.value(v))
            if d > best:
                best = d
        return best


def pseudo_metric(A) -> PseudoMetric:
    return PseudoMetric(_functions(A))


def scale_family(family, factor) -> tuple:
    """Multiply every jump; the negative control for the norm clause."""
    factor = Fraction(factor)
    return tuple(
        StepFunction(f.space, tuple((lo, hi, jump * factor) for lo, hi, jump in f.cuts), f.tag)
        for f in _functions(family))


def drop_level(family, n: int) -> tuple:
    """Remove every depth-n function; the separation negative control."""
    return tuple(f for f in _functions(family) if f.level != n)


@dataclass(frozen=True)
class ZSelection:
    """Provenance of one dense-set point.

    A depth-`level` gap is bracketed by the staircase x_0 <= ... <=
    x_level of greatest lower level points; stair j covers the region
    (x_j, x_{j+1}] (the final stair runs to max K) and `boxes` holds the
    canonical rational brackets around the depth-i values 1/i (i <= j)
    and 0 (i > j) at the configured denominator bound.
    """

    level: int
    gap: tuple
    j: int
    region: tuple
    z: object
    boxes: tuple


@dataclass(frozen=True)
class DenseSetRecord:
    """The countable dense set with full per-point provenance.

    `m_sets` lists, per depth, the closed set of gap endpoints (finite
    point sets are already closed in all implemented space kinds);
    `selections` records every staircase choice. Queries at depth n are
    served only for n <= n_cap = denominator_bound // 2, which keeps the
    rational box around 1/n strictly above the box around 0.
    """

    space: object
    points: tuple
    m_sets: tuple
    selections: tuple
    denominator_bound: int

    @property
    def n_cap(self) -> int:
        return self.denominator_bound // 2

    def contains(self, w) -> bool:
        k = sp.point_key(self.space, w)
        return any(sp.point_key(self.space, p) == k for p in self.points)

    def m_upto(self, n: int) -> list:
        out = []
        for depth, pts in self.m_sets:
            if depth <= n:
                out.extend(pts)
        return out

    def z_for(self, level: int, gap):
        want = (sp.point_key(self.space, gap[0]), sp.point_key(self.space, gap[1]))
        for s in self.selections:
            if s.level != level or s.j != level:
                continue
            got = (sp.point_key(self.space, s.gap[0]), sp.point_key(self.space, s.gap[1]))
            if got == want:
                return s.z
        return None


def _value_boxes(level: int, j: int, bound: int) -> tuple:
    """Nearest fractions with denominator <= bound strictly around each
    depth-i value: 1/i for i <= j (stair j sits above those cuts), else 0.

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
    realizable stair region, and the selection is recorded together
    with its rational box. D is the extremes, the gap endpoint sets,
    and the selected points.
    """
    fams = _functions(A)
    if denominator_bound < 4:
        raise DomainError("denominator bound must be at least 4")
    if not levels:
        raise DomainError("a decomposition with at least the extremes is required")
    key = lambda p: sp.point_key(K, p)
    lo, hi = sp.minimum(K), sp.maximum(K)

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
        by_level.setdefault(n, []).append((x, y))

    sorted_levels = [sorted(lv, key=key) for lv in levels]
    level_keys = [[key(p) for p in lv] for lv in sorted_levels]
    union = {key(p): p for lv in sorted_levels for p in lv}
    L = [union[k] for k in sorted(union)]
    L_keys = sorted(union)

    m_sets = []
    for n in sorted(by_level):
        ends = {key(p): p for x, y in by_level[n] for p in (x, y)}
        # finite endpoint sets are closed as-is in every space kind here
        m_sets.append((n, tuple(ends[k] for k in sorted(ends))))

    selections = []
    for n in sorted(by_level):
        for x, y in sorted(by_level[n], key=lambda g: key(g[0])):
            i = bisect_left(level_keys[n], key(x))
            if not (i + 1 < len(level_keys[n])
                    and level_keys[n][i] == key(x)
                    and level_keys[n][i + 1] == key(y)):
                raise DomainError(
                    f"({sp.render_point(K, x)}, {sp.render_point(K, y)}) "
                    f"is not a gap of level {n}")
            stairs = []
            for j in range(n + 1):
                at = bisect_right(level_keys[j], key(x)) - 1
                if at < 0:  # the levels come from the caller, so this is bad input
                    raise DomainError(f"level {j} misses the minimum")
                stairs.append(sorted_levels[j][at])
            for j in range(n + 1):
                if j < n:
                    reg = (stairs[j], stairs[j + 1])
                    if not key(reg[0]) < key(reg[1]):
                        continue
                else:
                    reg = (stairs[n], hi)
                at = bisect_right(L_keys, key(reg[0]))
                if at >= len(L) or L_keys[at] > key(reg[1]):
                    raise InternalInconsistency(
                        "a nonempty stair region holds no decomposition point")
                selections.append(ZSelection(
                    n, (x, y), j, reg, L[at],
                    _value_boxes(n, j, denominator_bound)))

    pool = {key(lo): lo, key(hi): hi}
    for _n, pts in m_sets:
        for p in pts:
            pool[key(p)] = p
    for s in selections:
        pool[key(s.z)] = s.z
    points = tuple(pool[k] for k in sorted(pool))
    return DenseSetRecord(K, points, tuple(m_sets), tuple(selections), denominator_bound)


def approximate(K, w, n: int, A, D: DenseSetRecord):
    """A point z of D with d_A(w, z) < 1/n, by the staircase cases.

    Dense-set members answer for themselves. Otherwise w is bracketed
    by its gap-endpoint neighbours u < w < v; with k the deepest depth
    <= n whose gap strictly contains w, the recorded stair point of
    that gap steers the choice between u and v. The bound is then
    re-evaluated literally; a miss raises GuaranteeFailure.
    """
    sp.validate_point(K, w)
    fams = _functions(A)
    if not 1 <= n <= D.n_cap:
        raise DomainError(f"depth {n} is outside 1..{D.n_cap}")
    key = lambda p: sp.point_key(K, p)
    if D.contains(w):
        return w

    lo, hi = sp.minimum(K), sp.maximum(K)
    fence = {key(lo): lo, key(hi): hi}
    for p in D.m_upto(n):
        fence[key(p)] = p
    M_keys = sorted(fence)
    at = bisect_left(M_keys, key(w))
    if at == 0 or at >= len(M_keys):
        raise InternalInconsistency("query escaped the extremes")
    u = fence[M_keys[at - 1]]
    v = fence[M_keys[at]]

    k, gap = 0, None
    for f in fams:
        x, y, depth = f.tag
        if depth <= n and depth > k and key(x) < key(w) < key(y):
            k, gap = depth, (x, y)

    if k == 0:
        z = u
    else:
        z_rec = D.z_for(k, gap)
        if z_rec is None:
            raise DomainError("the dense set was not built for this family")
        if key(z_rec) <= key(w):
            z = z_rec if key(z_rec) > key(u) else u
        else:
            z = z_rec if key(z_rec) < key(v) else v

    dist = PseudoMetric(fams).distance(w, z)
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
    """
    fams = tuple(sorted(_functions(family), key=lambda f: _tag_key(K, f)))

    norm_problems = []
    for f in fams:
        total = Fraction(0)
        for _lo, _hi, jump in f.cuts:
            if jump <= 0:
                norm_problems.append(f"function {f.tag} has a non-positive jump")
            total += jump
        if total > 1:
            norm_problems.append(f"function {f.tag} climbs to {total}")

    if pairs is None:
        if not sp.is_finite_space(K):
            raise DomainError("explicit pairs are required on infinite spaces")
        pts = sp.enumerate_points(K)
        pairs = [(u, v) for i, u in enumerate(pts) for v in pts[i + 1:]]
    pairs = list(pairs)
    unseparated = check_separation(K, fams, pairs)

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
        chosen = [fams]
        for _ in range(max(subsets - 1, 0)):
            size = rng.randint(1, len(fams))
            chosen.append(tuple(sorted(rng.sample(fams, size),
                                       key=lambda f: _tag_key(K, f))))
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
    return NamiokaReport(ok, tuple(norm_problems), unseparated, len(pairs),
                         tuple(density_failures), subsets_checked, points_checked)


def family_to_json(K, family) -> dict:
    fams = sorted(_functions(family), key=lambda f: _tag_key(K, f))
    entries = []
    for f in fams:
        if len(f.cuts) != 1:
            raise DomainError("only single-cut families serialize")
        lo, hi, _jump = f.cuts[0]
        entries.append({
            "gap": [sp.render_point(K, f.tag[0]), sp.render_point(K, f.tag[1])],
            "n": f.tag[2],
            "cut": [sp.render_point(K, lo), sp.render_point(K, hi)],
        })
    return {"v": 1, "kind": "rn-family", "family": entries}


def family_from_json(K, doc) -> tuple:
    if doc.get("kind") != "rn-family" or doc.get("v") != 1:
        raise DomainError("not a family document")
    out = []
    for entry in doc["family"]:
        x = sp.parse_point(K, entry["gap"][0])
        y = sp.parse_point(K, entry["gap"][1])
        n = int(entry["n"])
        lo = sp.parse_point(K, entry["cut"][0])
        hi = sp.parse_point(K, entry["cut"][1])
        out.append(StepFunction(K, ((lo, hi, Fraction(1, n)),), (x, y, n)))
    return tuple(out)


def dense_to_json(K, D: DenseSetRecord) -> dict:
    return {
        "v": 1,
        "kind": "rn-dense",
        "denbound": D.denominator_bound,
        "points": [sp.render_point(K, p) for p in D.points],
        "m": [[n, [sp.render_point(K, p) for p in pts]] for n, pts in D.m_sets],
        "z": [
            {
                "level": s.level,
                "gap": [sp.render_point(K, s.gap[0]), sp.render_point(K, s.gap[1])],
                "j": s.j,
                "region": [sp.render_point(K, s.region[0]), sp.render_point(K, s.region[1])],
                "z": sp.render_point(K, s.z),
                "box": [[str(q), str(r)] for q, r in s.boxes],
            }
            for s in D.selections
        ],
    }


def dense_from_json(K, doc) -> DenseSetRecord:
    if doc.get("kind") != "rn-dense" or doc.get("v") != 1:
        raise DomainError("not a dense-set document")
    points = tuple(sp.parse_point(K, t) for t in doc["points"])
    m_sets = tuple(
        (int(n), tuple(sp.parse_point(K, t) for t in pts)) for n, pts in doc["m"])
    selections = tuple(
        ZSelection(
            int(e["level"]),
            (sp.parse_point(K, e["gap"][0]), sp.parse_point(K, e["gap"][1])),
            int(e["j"]),
            (sp.parse_point(K, e["region"][0]), sp.parse_point(K, e["region"][1])),
            sp.parse_point(K, e["z"]),
            tuple((Fraction(q), Fraction(r)) for q, r in e["box"]),
        )
        for e in doc["z"])
    return DenseSetRecord(K, points, m_sets, selections, int(doc["denbound"]))


def witness_bundle_to_json(K, family, D: DenseSetRecord) -> dict:
    return {
        "v": 1,
        "kind": "rn-witness",
        "family": family_to_json(K, family)["family"],
        "dense": dense_to_json(K, D),
    }


@document_decoder
def witness_bundle_from_json(K, doc) -> tuple:
    if doc.get("kind") != "rn-witness" or doc.get("v") != 1:
        raise DomainError("not a witness bundle")
    family = family_from_json(K, {"v": 1, "kind": "rn-family", "family": doc["family"]})
    return family, dense_from_json(K, doc["dense"])
