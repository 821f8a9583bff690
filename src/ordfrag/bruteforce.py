"""Exhaustive reference searches.

These are the slow, obviously-correct counterparts of the constructions
in `simple` and `openpart`, of `ptree.verify_admissible`, of the indexed
pseudo-metric and separation sweep of `rnwit`, of the point count of an
ordinal interval and of the Cantor-Bendixson rank of its points, plus
the checked contract of a space's default split. Tests and the
acceptance suite compare fast answers against them on small instances;
nothing here may call the fast paths.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import space as sp
from .errors import DomainError
from .ordinal import ZERO, Ordinal, fundamental_sequence
from .ptree import PartitionTree, StagedTree, Verdict, Violation

# the pairwise clauses of an admissible tree in report order, with their
# details, and how many violations of one clause a verdict lists
_PAIR_DETAILS = {
    "reverse-inclusion": "tree order and reverse interval inclusion disagree",
    "level-overlap": "distinct same-level intervals share more than a point",
    "comparability": "overlapping intervals on incomparable nodes",
}
_REPORT_CAP = 100


def definitional_verify_admissible(tree: PartitionTree) -> Verdict:
    """`ptree.verify_admissible` read straight off its clauses, with the
    same verdict: violations and counts in the same order and texts, at
    most _REPORT_CAP listed per clause.

    Levels are compared as `Ordinal` values and points through
    `space.compare_points`, `point_count` and `whole_interval`; ancestry
    comes from walking parent links, and the pairwise clauses visit all
    n(n-1)/2 pairs in id order. Once linkage and the root count hold,
    the first endpoint outside the space, in id order and low end
    first, raises its `DomainError`, as in `verify_admissible`.
    """
    K, nodes = tree.space, tree.nodes
    violations: list[Violation] = []
    counts: dict[str, int] = {}

    def report(clause, ids, detail):
        counts[clause] = counts.get(clause, 0) + 1
        if counts[clause] <= _REPORT_CAP:
            violations.append(Violation(clause, tuple(ids), detail))

    def verdict():
        return Verdict(not violations and not counts, tuple(violations), counts)

    def cmp(p, q):
        return sp.compare_points(K, p, q)

    def extreme(points, want):
        best = points[0]
        for p in points[1:]:
            if cmp(p, best) == want:
                best = p
        return best

    ids = sorted(nodes)
    if not ids:
        report("root", (), "empty tree")
        return verdict()
    for i in ids:
        q = nodes[i].parent
        if q is not None and q not in nodes:
            report("linkage", (i,), f"parent {q} missing")
        for c in nodes[i].children:
            if c not in nodes or nodes[c].parent != i:
                report("linkage", (i, c), "child link not mirrored")
        if q is not None and q in nodes and i not in nodes[q].children:
            report("linkage", (i,), "not listed among parent's children")
    roots = [i for i in ids if nodes[i].parent is None]
    if len(roots) != 1:
        report("root", tuple(roots), f"expected exactly one root, found {len(roots)}")
    if counts:
        return verdict()
    for i in ids:  # an endpoint outside the space is malformed input
        sp.validate_point(K, nodes[i].interval.lo)
        sp.validate_point(K, nodes[i].interval.hi)

    root = roots[0]
    whole, top = sp.whole_interval(K), nodes[root]
    if top.level != ZERO:
        report("root", (root,), f"root level is {top.level}, not 0")
    if cmp(top.interval.lo, whole.lo) != "equal" or cmp(top.interval.hi, whole.hi) != "equal":
        report("root", (root,), "root interval is not the whole space")
    for i in ids:
        if i != root and nodes[i].level == ZERO:
            report("root", (i,), "non-root node at level 0")

    above = {i: _ancestors(nodes, i) for i in ids}  # parent first; None on a cycle
    lost = [i for i in ids if above[i] is None]
    if lost:
        report("linkage", tuple(lost[:8]), f"{len(lost)} nodes unreachable from root")
        return verdict()

    for i in ids:
        n, iv = nodes[i], nodes[i].interval
        kids = n.children
        order = cmp(iv.lo, iv.hi)
        if order == "greater":
            report("nontrivial", (i,), "interval endpoints out of order")
            report("nontrivial", (i,), "interval has 0 points")
        elif order == "equal":
            report("nontrivial", (i,), "interval has 1 points")
        elif kids and sp.point_count(K, iv) == 2:
            report("two-point-leaf", (i,), "two-point interval has children")
        if len(kids) == 2:
            a, b = kids
            if cmp(nodes[a].interval.lo, nodes[b].interval.lo) == "greater":
                a, b = b, a
            left, right = nodes[a].interval, nodes[b].interval
            if not (cmp(left.lo, iv.lo) == cmp(left.hi, right.lo) == cmp(right.hi, iv.hi) == "equal"
                    and cmp(left.lo, left.hi) == cmp(right.lo, right.hi) == "less"):
                report("binary-split", (i, a, b), "children do not split at a single interior point")
        elif kids:
            report("binary-split", (i,), "exactly one child" if len(kids) == 1 else f"{len(kids)} children")
        if n.parent is None:
            continue
        up = nodes[n.parent].level
        if n.level.kind == "limit":
            if not n.level > up:
                report("level-step", (i,), f"limit level {n.level} not above parent level {up}")
            meet_lo = extreme([nodes[q].interval.lo for q in above[i]], "greater")
            meet_hi = extreme([nodes[q].interval.hi for q in above[i]], "less")
            if cmp(meet_lo, iv.lo) != "equal" or cmp(meet_hi, iv.hi) != "equal":
                report("limit-intersection", (i,),
                       "limit-level interval differs from the intersection of its ancestors")
        elif n.level != up + 1:
            report("level-step", (i,), f"level {n.level} is not parent level {up} + 1")

    def inside(u, v):  # the interval of v lies within that of u
        a, b = nodes[u].interval, nodes[v].interval
        return cmp(a.lo, b.lo) != "greater" and cmp(b.hi, a.hi) != "greater"

    found: dict[str, list] = {clause: [] for clause in _PAIR_DETAILS}
    for u, v in itertools.combinations(ids, 2):
        a, b = nodes[u].interval, nodes[v].interval
        u_above, v_above = u in above[v], v in above[u]
        overlap = cmp(extreme([a.lo, b.lo], "greater"), extreme([a.hi, b.hi], "less")) == "less"
        if u_above != inside(u, v) or v_above != inside(v, u):
            found["reverse-inclusion"].append((u, v))
        if nodes[u].level == nodes[v].level and overlap:
            found["level-overlap"].append((u, v))
        if overlap and not (u_above or v_above):
            found["comparability"].append((u, v))
    for clause, detail in _PAIR_DETAILS.items():
        if found[clause]:
            counts[clause] = len(found[clause])
            violations.extend(Violation(clause, pair, detail) for pair in found[clause][:_REPORT_CAP])
    return verdict()


def _ancestors(nodes, i) -> list | None:
    """The ids on the parent links above i, or None when they cycle
    without reaching a root."""
    out: list = []
    q = nodes[i].parent
    while q is not None:
        if q in out:
            return None
        out.append(q)
        q = nodes[q].parent
    return out


def left_subtract(a: Ordinal, b: Ordinal) -> Ordinal:
    """The unique g with a + g = b, for a <= b: `OrdinalInterval.count`
    of [a, b] is g + 1 when g is finite."""
    if a > b:
        raise DomainError(f"cannot left-subtract {a} from smaller {b}")
    k = 0
    while k < len(a.terms) and k < len(b.terms) and a.terms[k] == b.terms[k]:
        k += 1
    if k == len(a.terms):
        return Ordinal(b.terms[k:])
    ea, ca = a.terms[k]
    eb, cb = b.terms[k]
    # first difference: b's term must dominate, else a > b was caught above
    if ea == eb and cb > ca:
        return Ordinal(((ea, cb - ca),) + b.terms[k + 1 :])
    return Ordinal(b.terms[k:])


def cb_rank(K: sp.OrdinalInterval, a: Ordinal) -> int:
    """Cantor-Bendixson rank of the point a of an ordinal interval, from
    the space's adjacency: 0 when a is isolated (the minimum, or a point
    with a predecessor), else one more than the rank of the members past
    the 0th of its fundamental sequence, which converge to a and hold the
    greatest rank in each of its left neighbourhoods."""
    if a == K.minimum() or K.adjacency(a)[0] is not None:
        return 0
    return 1 + cb_rank(K, fundamental_sequence(a, 1))


def canonical_split(space, iv: sp.ClosedInterval):
    """The default interior split point w with lo < w < hi, checked:
    the contract of `space.split`, which `build_tree` calls directly.

    Finite kinds take the lower median. Ordinal intervals take
    lo + w^e for the largest exponent e that stays strictly below hi,
    so [lo, w] is a finite block and [w, hi] keeps the tail. Order sums
    split at a part boundary near the middle, falling back one step
    when the boundary collides with an endpoint.
    """
    cnt = sp.point_count(space, iv)
    if cnt < 3:
        raise DomainError("need at least three points to split")
    w = space.split(iv.lo, iv.hi, cnt)
    if sp.compare_points(space, iv.lo, w) != "less" or sp.compare_points(space, w, iv.hi) != "less":
        raise DomainError(
            f"split point {sp.render_point(space, w)} not strictly inside "
            f"[{sp.render_point(space, iv.lo)}, {sp.render_point(space, iv.hi)}]"
        )
    return w


def _pool_ancestors(st: StagedTree, x: int) -> list[int]:
    return [st.ancestor_at(x, lvl) for lvl in sorted(st.pool) if lvl < st.level[x]]


def exhaustive_sdr(st: StagedTree, members) -> dict[int, int] | None:
    """Backtracking search for an injective choice of pool-level
    ancestors, one per member. Returns one such map or None."""
    todo = sorted(members)
    cand = {x: _pool_ancestors(st, x) for x in todo}
    todo.sort(key=lambda x: (len(cand[x]), x))
    used: set[int] = set()
    chosen: dict[int, int] = {}

    def rec(k: int) -> bool:
        if k == len(todo):
            return True
        x = todo[k]
        for a in cand[x]:
            if a not in used:
                used.add(a)
                chosen[x] = a
                if rec(k + 1):
                    return True
                used.remove(a)
                del chosen[x]
        return False

    return dict(sorted(chosen.items())) if rec(0) else None


def exhaustive_segment_assignment(st: StagedTree, members) -> dict[int, int] | None:
    """Try every assignment of pool levels to members; return the first
    whose closed branch segments are pairwise disjoint, else None."""
    todo = sorted(members)
    levels = sorted(st.pool)
    if not todo:
        return {}
    if not levels:
        return None
    for choice in itertools.product(levels, repeat=len(todo)):
        segs = [set(st.branch_segment(x, lvl)) for x, lvl in zip(todo, choice)]
        ok = True
        for i in range(len(segs)):
            for j in range(i + 1, len(segs)):
                if segs[i] & segs[j]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return dict(zip(todo, choice))
    return None


def exhaustive_chain_partitions(st: StagedTree):
    """Yield every partition of the nodes into branch segments.

    A segment partition is exactly a choice, per node with children, of
    at most one child glued upward; everything else starts its own cell.
    """
    internal = [i for i in st.nodes() if st.children(i)]
    option_sets = [(None,) + st.children(i) for i in internal]
    for choice in itertools.product(*option_sets):
        glue = {c: p for p, c in zip(internal, choice) if c is not None}
        cells: dict[int, list[int]] = {}
        root_of: dict[int, int] = {}
        for i in sorted(st.nodes(), key=lambda n: (st.level[n], n)):
            anchor = root_of[glue[i]] if i in glue else i
            root_of[i] = anchor
            cells.setdefault(anchor, []).append(i)
        yield tuple(frozenset(c) for _, c in sorted(cells.items()))


def step_value(f, w) -> Fraction:
    """The value of an `rnwit.StepFunction` at w, read off its cuts: the
    sum of the jumps whose upper point lies at or below w."""
    k = sp.point_key(f.space, w)
    return sum((jump for _lo, hi, jump in f.cuts if k >= sp.point_key(f.space, hi)),
               Fraction(0))


def all_function_distance(family, u, v) -> Fraction:
    """d_A(u, v) with every member of the family evaluated."""
    return max((abs(step_value(f, u) - step_value(f, v)) for f in family),
               default=Fraction(0))


def all_pairs_separation(family, pairs):
    """The first pair, in the given order, on which every member of the
    family takes one value, or None: each member evaluated on each pair."""
    for u, v in pairs:
        if all(step_value(f, u) == step_value(f, v) for f in family):
            return (u, v)
    return None


def deepest_containing_gap(family, w, n: int):
    """(k, gap) of the first member, in family order, of greatest depth
    k <= n whose tagged gap strictly contains w; (0, None) when none does."""
    k, gap = 0, None
    for f in family:
        x, y, depth = f.tag
        kx, kw, ky = (sp.point_key(f.space, p) for p in (x, w, y))
        if k < depth <= n and kx < kw < ky:
            k, gap = depth, (x, y)
    return k, gap
