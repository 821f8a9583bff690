"""Exhaustive reference searches.

These are the slow, obviously-correct counterparts of the constructions
in `simple` and `openpart`, of the pairwise clauses of
`ptree.verify_admissible`, of the indexed pseudo-metric and separation
sweep of `rnwit`, and of the point count of an ordinal interval. Tests
and the acceptance suite compare fast answers against them on small
instances; nothing here may call the fast paths.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import space as sp
from .errors import DomainError
from .ordinal import Ordinal
from .ptree import _PAIR_REPORT_CAP, PAIR_CLAUSES, PartitionTree, StagedTree, Verdict, check_tree


def dense_verify_admissible(tree: PartitionTree) -> Verdict:
    """`verify_admissible` with every node pair checked one by one."""
    return check_tree(tree, dense_pair_clauses)


def dense_pair_clauses(lo, hi, lvl, par, times) -> dict:
    """The pairwise clauses of `ptree.check_tree` over all n(n-1)/2 pairs,
    in position order: O(n^2) time. Ancestry is read off the DFS times,
    so the tree is always walked, admissible or not."""
    tin, tout = times()
    found = {clause: [0, []] for clause in PAIR_CLAUSES}

    def hit(clause, r, c):
        entry = found[clause]
        entry[0] += 1
        if entry[0] <= _PAIR_REPORT_CAP:
            entry[1].append((r, c))

    n = len(lo)
    for r in range(n):
        for c in range(r + 1, n):
            anc_rc = tin[r] <= tin[c] and tout[c] <= tout[r]
            anc_cr = tin[c] <= tin[r] and tout[r] <= tout[c]
            cont_rc = lo[r] <= lo[c] and hi[c] <= hi[r]
            cont_cr = lo[c] <= lo[r] and hi[r] <= hi[c]
            overlap = max(lo[r], lo[c]) < min(hi[r], hi[c])
            if anc_rc != cont_rc or anc_cr != cont_cr:
                hit("reverse-inclusion", r, c)
            if lvl[r] == lvl[c] and overlap:
                hit("level-overlap", r, c)
            if overlap and not (anc_rc or anc_cr):
                hit("comparability", r, c)
    return {clause: tuple(entry) for clause, entry in found.items()}


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
