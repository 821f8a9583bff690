"""Partition trees over order spaces, and their staged truncations.

A partition tree covers a space with nested closed intervals: the root
is the whole space, every expanded node splits into a left and right
child sharing one boundary point, and two-point intervals never split.
Trees are materialized breadth-first under a node budget, so deep or
limit levels simply never appear; verifiers treat an unexpanded wide
node as a frontier, not an error.

A StagedTree is the finite stage of a tree up to a chosen top level m,
with a designated pool of levels strictly below m that regressive maps
may land in.
"""

from __future__ import annotations

import bisect
import heapq
from collections import deque
from dataclasses import dataclass, field
from functools import cache, cached_property

from . import ordinal as ord_
from . import space as sp
from .errors import (
    DomainError,
    InsufficientMaterialization,
    RangeError,
    plain_int,
    read_int,
    read_kind,
    read_list,
)
from .ordinal import Ordinal
from .space import ClosedInterval

NODE_CAP = 200_000


@dataclass(frozen=True, slots=True, init=False)
class TreeNode:
    """One node of a partition tree. The explicit `__init__` fills the
    slots through their descriptors, as `ClosedInterval`'s does."""

    id: int
    interval: ClosedInterval
    level: Ordinal
    parent: int | None
    children: tuple[int, ...] = ()

    def __init__(self, id, interval, level, parent, children=()):
        _set_id(self, id)
        _set_interval(self, interval)
        _set_level(self, level)
        _set_parent(self, parent)
        _set_children(self, children)


_set_id = TreeNode.id.__set__
_set_interval = TreeNode.interval.__set__
_set_level = TreeNode.level.__set__
_set_parent = TreeNode.parent.__set__
_set_children = TreeNode.children.__set__


@dataclass(frozen=True)
class PartitionTree:
    space: sp.SpaceDescriptor
    nodes: dict[int, TreeNode]
    root_id: int
    budget: int | None = None


def build_tree(space, budget: int) -> PartitionTree:
    """Materialize a tree breadth-first until the budget is spent.

    A node splits only while at least two budget slots remain, so
    children always arrive in pairs, at the space's canonical split
    point. Every endpoint is a point of the space by construction, so
    nothing is validated or compared. Each node becomes a TreeNode when
    it leaves the queue, which is in id order, and the queue holds only
    the frontier.
    """
    if not isinstance(budget, int) or isinstance(budget, bool) or budget < 1:
        raise DomainError(f"budget must be a positive int, got {budget!r}")
    if budget > NODE_CAP:
        raise RangeError(f"budget {budget} exceeds the node cap {NODE_CAP}")
    if sp.space_size(space) == 1:
        raise DomainError("cannot build a tree over a one-point space")

    queue = deque([(0, sp.whole_interval(space), ord_.ZERO, None)])  # (id, interval, level, parent)
    nodes: dict[int, TreeNode] = {}
    level, succ = None, None
    next_id = 1
    while queue and next_id + 2 <= budget:
        nid, iv, lvl, parent = queue.popleft()
        cnt = space.count(iv.lo, iv.hi)
        if cnt is not sp.INFINITE and cnt <= 2:
            nodes[nid] = TreeNode(nid, iv, lvl, parent)
            continue
        w = space.split(iv.lo, iv.hi, cnt)
        if lvl is not level:  # breadth-first: levels arrive in runs
            level, succ = lvl, ord_.add(lvl, ord_.ONE)
        queue.append((next_id, ClosedInterval(iv.lo, w), succ, nid))
        queue.append((next_id + 1, ClosedInterval(w, iv.hi), succ, nid))
        nodes[nid] = TreeNode(nid, iv, lvl, parent, (next_id, next_id + 1))
        next_id += 2
    while queue:  # the budget is spent: the rest are leaves
        nid, iv, lvl, parent = queue.popleft()
        nodes[nid] = TreeNode(nid, iv, lvl, parent)
    return PartitionTree(space, nodes, 0, budget)


def make_tree(space, rows, budget=None) -> PartitionTree:
    """Assemble a tree from explicit rows (id, lo, hi, level, parent).

    For hand-built fixtures, including deliberately broken ones; no
    admissibility checking happens here beyond linking children and
    refusing a repeated id.
    """
    children: dict[int, list[int]] = {}
    for r in rows:
        if r[0] in children:
            raise DomainError(f"node id {r[0]} is repeated")
        children[r[0]] = []
    roots = [r[0] for r in rows if r[4] is None]
    for r in rows:
        if r[4] is not None:
            if r[4] not in children:
                raise DomainError(f"row {r[0]} names missing parent {r[4]}")
            children[r[4]].append(r[0])
    nodes = {
        r[0]: TreeNode(r[0], ClosedInterval(r[1], r[2]), r[3], r[4], tuple(sorted(children[r[0]])))
        for r in rows
    }
    if len(roots) != 1:
        # verifier fixtures may be rootless on purpose; pick a stable anchor
        root_id = min(nodes) if nodes else 0
    else:
        root_id = roots[0]
    return PartitionTree(space, nodes, root_id, budget)


@dataclass(frozen=True)
class Violation:
    clause: str
    nodes: tuple[int, ...]
    detail: str


@dataclass(frozen=True)
class Verdict:
    ok: bool
    violations: tuple[Violation, ...]
    counts: dict[str, int] = field(default_factory=dict)

    def __bool__(self):
        return self.ok


_PAIR_REPORT_CAP = 100

# The pairwise clauses, in report order, with the detail of each violation.
_PAIR_CLAUSES = {
    "reverse-inclusion": "tree order and reverse interval inclusion disagree",
    "level-overlap": "distinct same-level intervals share more than a point",
    "comparability": "overlapping intervals on incomparable nodes",
}


def verify_admissible(tree: PartitionTree) -> Verdict:
    """Check every structural clause over all node pairs.

    Clauses: linkage, root, nontrivial, two-point-leaf, binary-split,
    level-step, limit-intersection, reverse-inclusion, level-overlap,
    comparability. The pairwise clauses are decided by sorting and
    sweeping endpoint ranks (`_pair_clauses`) in O(n) memory. An
    admissible tree takes O(n log n) time; a broken one adds its
    violating pairs and, per node, a bisection for each non-nested edge
    above it.

    An endpoint outside the space is malformed input, not an
    inadmissible tree: once the links are mirrored and there is one
    root, every endpoint goes through `space.validate_point`, in id
    order and low end first, and the first that is not a point raises
    its DomainError before any other clause is checked.

    The tree is walked at most once, up front only when some non-root
    node's level is not above its parent's: otherwise, with the links
    mirrored and one root, parent steps lower the level and so end at
    the root, and no node can be cut off.
    """
    violations: list[Violation] = []
    counts: dict[str, int] = {}

    def report(clause, nodes, detail):
        counts[clause] = counts.get(clause, 0) + 1
        if counts[clause] <= _PAIR_REPORT_CAP:
            violations.append(Violation(clause, tuple(nodes), detail))

    K = tree.space
    nodes = tree.nodes
    ids = sorted(nodes)
    if not ids:
        report("root", (), "empty tree")
        return Verdict(False, tuple(violations), counts)

    # linkage first; later passes assume a coherent parent structure
    row = [nodes[i] for i in ids]
    broken = False
    for i, n in zip(ids, row):
        q = n.parent
        missing = q is not None and q not in nodes
        if missing:
            report("linkage", (i,), f"parent {q} missing")
            broken = True
        for c in n.children:
            if c not in nodes or nodes[c].parent != i:
                report("linkage", (i, c), "child link not mirrored")
                broken = True
        if q is not None and not missing and i not in nodes[q].children:
            report("linkage", (i,), "not listed among parent's children")
            broken = True
    roots = [i for i, n in zip(ids, row) if n.parent is None]
    if len(roots) != 1:
        report("root", tuple(roots), f"expected exactly one root, found {len(roots)}")
        broken = True
    if broken:
        return Verdict(False, tuple(violations), counts)

    # each endpoint is validated and keyed once, before any clause reads
    # it; later steps read the ranks of the keys
    ivs = [n.interval for n in row]
    validate = sp.validate_point
    for iv in ivs:
        validate(K, iv.lo)
        validate(K, iv.hi)
    key = K.key
    klo = [key(iv.lo) for iv in ivs]
    khi = [key(iv.hi) for iv in ivs]
    rank = {k: r for r, k in enumerate(sorted(set(klo) | set(khi)))}
    lo = [rank[k] for k in klo]
    hi = [rank[k] for k in khi]
    del klo, khi, rank

    # levels by rank, keyed by their term tuples: rank order is the
    # ordinal order. Per distinct level, whether it is a limit and the
    # rank of level + 1 (-1 when no node has it).
    pos = {i: p for p, i in enumerate(ids)}
    lvl_keys = sorted({n.level.terms: n.level for n in row}.values())
    lvl_rank = {l.terms: r for r, l in enumerate(lvl_keys)}
    lvl = [lvl_rank[n.level.terms] for n in row]
    limit = [l.kind == "limit" for l in lvl_keys]
    step = [lvl_rank.get(ord_.add(l, ord_.ONE).terms, -1) for l in lvl_keys]
    zero = lvl_rank.get(ord_.ZERO.terms, -1)
    par = [-1 if n.parent is None else pos[n.parent] for n in row]

    root = roots[0]
    rp = pos[root]
    if lvl[rp] != zero:
        report("root", (root,), f"root level is {row[rp].level}, not 0")
    if row[rp].interval != sp.whole_interval(K):
        report("root", (root,), "root interval is not the whole space")
    if lvl.count(zero) > (lvl[rp] == zero):
        for p, i in enumerate(ids):
            if lvl[p] == zero and p != rp:
                report("root", (i,), "non-root node at level 0")

    times = cache(lambda: _walk(row, pos, rp))  # DFS (tin, tout), walked once

    # reachability (cycles would hide below a fake root)
    if not all(q < 0 or lvl[q] < r for q, r in zip(par, lvl)):
        tin, _ = times()
        unreachable = [i for p, i in enumerate(ids) if tin[p] < 0]
        if unreachable:
            report("linkage", tuple(unreachable[:8]), f"{len(unreachable)} nodes unreachable from root")
            return Verdict(False, tuple(violations), counts)

    for p, (i, n) in enumerate(zip(ids, row)):
        kids = n.children
        # distinct endpoints span at least two points; only a node with
        # children needs to know whether exactly two
        if lo[p] > hi[p]:
            report("nontrivial", (i,), "interval endpoints out of order")
            report("nontrivial", (i,), "interval has 0 points")
        elif lo[p] == hi[p]:
            report("nontrivial", (i,), "interval has 1 points")
        elif kids and K.count(n.interval.lo, n.interval.hi) == 2:
            report("two-point-leaf", (i,), "two-point interval has children")
        if len(kids) == 2:
            a, b = pos[kids[0]], pos[kids[1]]
            if lo[a] > lo[b]:
                a, b = b, a
            if not lo[a] == lo[p] < hi[a] == lo[b] < hi[b] == hi[p]:
                report("binary-split", (i, ids[a], ids[b]), "children do not split at a single interior point")
        elif kids:
            report("binary-split", (i,), "exactly one child" if len(kids) == 1 else f"{len(kids)} children")
        q = par[p]
        if q < 0:
            continue
        r = lvl[p]
        if limit[r]:
            if not r > lvl[q]:
                report("level-step", (i,), f"limit level {n.level} not above parent level {row[q].level}")
            lo_best, hi_best = lo[q], hi[q]
            while q >= 0:
                lo_best, hi_best = max(lo_best, lo[q]), min(hi_best, hi[q])
                q = par[q]
            if lo_best != lo[p] or hi_best != hi[p]:
                report(
                    "limit-intersection",
                    (i,),
                    "limit-level interval differs from the intersection of its ancestors",
                )
        elif r != step[lvl[q]]:
            report("level-step", (i,), f"level {n.level} is not parent level {row[q].level} + 1")

    # pairwise clauses on endpoint ranks
    found = _pair_clauses(lo, hi, lvl, par, times)
    for clause, detail in _PAIR_CLAUSES.items():
        count, first = found[clause]
        if count:
            counts[clause] = count
            violations.extend(Violation(clause, (ids[r], ids[c]), detail) for r, c in first)

    return Verdict(not violations and not counts, tuple(violations), counts)


def _walk(row, pos, root):
    """DFS entry and exit times (tin, tout) by position from the root's
    position, children in id order; -1 for a node the walk misses."""
    tin = [-1] * len(row)
    tout = [-1] * len(row)
    clock = 0
    stack = [root]  # a position to enter, or ~position to leave
    while stack:
        p = stack.pop()
        if p < 0:
            tout[~p] = clock
            clock += 1
            continue
        if tin[p] >= 0:  # listed twice among its parent's children
            continue
        tin[p] = clock
        clock += 1
        stack.append(~p)
        for c in sorted(row[p].children, reverse=True):
            stack.append(pos[c])
    return tin, tout


class _PairLog:
    """The number of pairs added and the _PAIR_REPORT_CAP smallest of
    them, kept in a bounded heap so memory does not grow with the count."""

    def __init__(self):
        self.count = 0
        self._heap: list[tuple[int, int]] = []  # negated pairs: a max-heap

    def add(self, a: int, b: int) -> None:
        self.count += 1
        item = (-a, -b) if a < b else (-b, -a)
        if len(self._heap) < _PAIR_REPORT_CAP:
            heapq.heappush(self._heap, item)
        elif item > self._heap[0]:
            heapq.heapreplace(self._heap, item)

    def result(self) -> tuple[int, list[tuple[int, int]]]:
        return self.count, sorted((-a, -b) for a, b in self._heap)


def _pair_clauses(lo, hi, lvl, par, times) -> dict:
    """The pairwise clauses on ranks by position: per clause, the number
    of violating unordered pairs and the first _PAIR_REPORT_CAP of them
    as position pairs (r, c), r < c, in increasing order. `times()`
    gives the DFS (tin, tout), walking the tree on its first call.

    With u an ancestor of v (tin/tout nest), `reverse-inclusion` wants
    [lo, hi] of v strictly inside that of u, and for incomparable nodes
    it wants neither interval inside the other; `comparability` wants
    incomparable intervals to share at most a point and
    `level-overlap` wants the same of same-level intervals.

    Admissible trees take the fast path: every edge strictly nested
    with levels rising, all intervals proper, and a stack sweep in
    (lo, -hi) order showing that each node's innermost open interval is
    its parent's. Then every violating count is zero, and the tree is
    not walked. Two equal intervals fail the sweep in either order, so
    it needs no tie-break. Otherwise the violating pairs are
    enumerated, each once, without visiting the ancestor pairs that are
    in order; that sweep breaks ties by DFS entry time.
    """
    n = len(lo)
    logs = {clause: _PairLog() for clause in _PAIR_CLAUSES}
    laminar = (
        all(q < 0 or (lo[q] <= a and b <= hi[q] and (lo[q] < a or b < hi[q]))
            for q, a, b in zip(par, lo, hi))
        and all(a < b for a, b in zip(lo, hi))
        and _stack_follows_tree(_sweep_order(lo, hi), lo, hi, par)
    )
    if not laminar:
        tin, tout = times()
        sweep = sorted(range(n), key=lambda v: (lo[v], -hi[v], tin[v]))
        _ancestor_pairs(lo, hi, par, tin, logs["reverse-inclusion"])
        _crossing_pairs(lo, hi, tin, tout, sweep, logs["reverse-inclusion"], logs["comparability"])
    if not (laminar and all(q < 0 or lvl[q] < r for q, r in zip(par, lvl))):
        # with nested intervals and rising levels, same-level nodes are
        # incomparable and so already share at most a point
        _level_overlaps(lo, hi, lvl, logs["level-overlap"])
    return {clause: log.result() for clause, log in logs.items()}


def _sweep_order(lo, hi) -> list[int]:
    """Positions in (lo, -hi) order, sorted on one int per node."""
    width = max(hi) + 1
    order = [a * width - b for a, b in zip(lo, hi)]
    return sorted(range(len(lo)), key=order.__getitem__)


def _strictly_inside(lo, hi, u, v) -> bool:
    """[lo, hi] of v lies inside that of u and differs from it."""
    return lo[u] <= lo[v] and hi[v] <= hi[u] and (lo[u] < lo[v] or hi[v] < hi[u])


def _stack_follows_tree(sweep, lo, hi, par) -> bool:
    """Sweep proper intervals by (lo, -hi), keeping a stack of those that
    extend past the current low; each must find its parent on top.

    The stack stays a root path, so an earlier interval overlapping a
    later one is always on it, that is, an ancestor.
    """
    stack: list[int] = []
    for v in sweep:
        while stack and hi[stack[-1]] <= lo[v]:
            stack.pop()
        if (stack[-1] if stack else -1) != par[v]:
            return False
        stack.append(v)
    return True


def _ancestor_pairs(lo, hi, par, tin, log: _PairLog) -> None:
    """Log every ancestor pair (u, v) whose intervals are not strictly nested.

    Cutting the tree at its non-nested edges leaves pieces in which
    strict nesting is transitive. Along a root path each piece's lows
    therefore rise and its highs fall, so the ancestors of v in another
    piece that fail are a suffix of that piece, plus at most one equal
    interval just before it; bisection finds both.
    """
    path: list[int] = []
    pieces: list[tuple[int, list[int], list[int]]] = []  # (start in path, lows, -highs)
    for v in sorted(range(len(lo)), key=tin.__getitem__):
        p = par[v]
        while path and path[-1] != p:
            path.pop()
            _start, lows, neg_highs = pieces[-1]
            lows.pop()
            neg_highs.pop()
            if not lows:
                pieces.pop()
        joins = p >= 0 and _strictly_inside(lo, hi, p, v)
        for start, lows, neg_highs in pieces[:-1] if joins else pieces:
            cut = min(bisect.bisect_right(lows, lo[v]), bisect.bisect_right(neg_highs, -hi[v]))
            for k in range(cut, len(lows)):
                log.add(path[start + k], v)
            if cut and lows[cut - 1] == lo[v] and neg_highs[cut - 1] == -hi[v]:
                log.add(path[start + cut - 1], v)
        if not joins:
            pieces.append((len(path), [], []))
        path.append(v)
        pieces[-1][1].append(lo[v])
        pieces[-1][2].append(-hi[v])


def _crossing_pairs(lo, hi, tin, tout, sweep, inclusion: _PairLog, comparability: _PairLog) -> None:
    """Log every incomparable pair whose intervals overlap or contain one another.

    In sweep order, an earlier u meets v (one interval inside the
    other, or overlap) exactly when hi[u] reaches lo[v] + 1 for a proper
    v and hi[v] otherwise. Nodes neither above nor below v end before
    v starts (tout < tin[v]) or start after it ends (tin > tout[v]), so
    two max trees over the earlier nodes, ordered by tout and by tin,
    report exactly those.
    """
    n = len(lo)
    by_tout = sorted(range(n), key=tout.__getitem__)
    by_tin = sorted(range(n), key=tin.__getitem__)
    touts = [tout[v] for v in by_tout]
    tins = [tin[v] for v in by_tin]
    tout_slot = {v: k for k, v in enumerate(by_tout)}
    tin_slot = {v: k for k, v in enumerate(by_tin)}
    before, after = _MaxTree(n), _MaxTree(n)
    for v in sweep:
        reach = lo[v] + 1 if lo[v] < hi[v] else hi[v]
        met = [by_tout[k] for k in before.reaching(0, bisect.bisect_left(touts, tin[v]), reach)]
        met += [by_tin[k] for k in after.reaching(bisect.bisect_right(tins, tout[v]), n, reach)]
        for u in met:
            if (lo[u] <= lo[v] and hi[v] <= hi[u]) or (lo[v] <= lo[u] and hi[u] <= hi[v]):
                inclusion.add(u, v)
            if max(lo[u], lo[v]) < min(hi[u], hi[v]):
                comparability.add(u, v)
        before.raise_to(tout_slot[v], hi[v])
        after.raise_to(tin_slot[v], hi[v])


class _MaxTree:
    """Slots holding -1 or a rank, raised one at a time, that report every
    slot of a range at or above a threshold in O((k + 1) log n)."""

    def __init__(self, n: int):
        self.size = 1 << max(n - 1, 0).bit_length()
        self.best = [-1] * (2 * self.size)

    def raise_to(self, slot: int, value: int) -> None:
        best = self.best
        i = slot + self.size
        while i and best[i] < value:
            best[i] = value
            i >>= 1

    def reaching(self, a: int, b: int, threshold: int) -> list[int]:
        best, size = self.best, self.size
        todo = []
        a += size
        b += size
        while a < b:
            if a & 1:
                todo.append(a)
                a += 1
            if b & 1:
                b -= 1
                todo.append(b)
            a >>= 1
            b >>= 1
        todo = [i for i in todo if best[i] >= threshold]
        slots = []
        while todo:
            i = todo.pop()
            if i >= size:
                slots.append(i - size)
            else:
                todo.extend(c for c in (2 * i, 2 * i + 1) if best[c] >= threshold)
        return slots


def _level_overlaps(lo, hi, lvl, log: _PairLog) -> None:
    """Log every same-level pair of intervals sharing more than a point:
    per level, sweep by lo with a heap of the highs still open."""
    rows: dict[int, list[int]] = {}
    for v in range(len(lo)):
        if lo[v] < hi[v]:
            rows.setdefault(lvl[v], []).append(v)
    for row in rows.values():
        row.sort(key=lo.__getitem__)
        open_: list[tuple[int, int]] = []
        for v in row:
            while open_ and open_[0][0] <= lo[v]:
                heapq.heappop(open_)
            for _hi, u in open_:
                log.add(u, v)
            heapq.heappush(open_, (hi[v], v))


# -- staged trees -------------------------------------------------------------


@dataclass
class StagedTree:
    """Finite stage of a tree: levels 0..top_level, a pool of landing
    levels strictly below the top, and optional interval payloads.

    limit_top records whether the top level stands in for a limit stage
    of the idealized construction; a single-node stage never does.
    Instances are treated as immutable after construction.
    """

    parent: dict[int, int | None]
    level: dict[int, int]
    top_level: int
    pool: frozenset[int]
    payload: dict[int, ClosedInterval] | None = None
    space: sp.SpaceDescriptor | None = None
    limit_top: bool = True
    origin: dict[int, int] | None = None

    def __post_init__(self):
        self.pool = frozenset(self.pool)

    @cached_property
    def payload_keys(self) -> tuple[dict, dict]:
        """(lo, hi): the order key of each node's payload ends, by node."""
        if self.payload is None or self.space is None:
            raise DomainError("the stage carries no payload intervals")
        key = self.space.key
        return ({i: key(iv.lo) for i, iv in self.payload.items()},
                {i: key(iv.hi) for i, iv in self.payload.items()})

    @property
    def has_designated_limit(self) -> bool:
        return self.limit_top and self.top_level > 0

    def nodes(self) -> list[int]:
        return sorted(self.parent)

    def children(self, i: int) -> tuple[int, ...]:
        return tuple(sorted(c for c, p in self.parent.items() if p == i))

    def tops(self) -> list[int]:
        return sorted(i for i, l in self.level.items() if l == self.top_level)

    def ancestor_at(self, i: int, lvl: int) -> int:
        """The unique node at level lvl on the branch through i."""
        if lvl > self.level[i]:
            raise DomainError(f"node {i} at level {self.level[i]} has no ancestor at {lvl}")
        cur = i
        while self.level[cur] > lvl:
            cur = self.parent[cur]
        return cur

    def branch_segment(self, i: int, from_level: int) -> tuple[int, ...]:
        """Nodes on i's branch from from_level up to i, bottom first."""
        seg = []
        cur = i
        while self.level[cur] > from_level:
            seg.append(cur)
            cur = self.parent[cur]
        if self.level[cur] != from_level:
            raise DomainError(f"branch of {i} skips level {from_level}")
        seg.append(cur)
        return tuple(reversed(seg))

    def meet(self, a: int, b: int) -> int:
        """Deepest common ancestor."""
        x, y = a, b
        while self.level[x] > self.level[y]:
            x = self.parent[x]
        while self.level[y] > self.level[x]:
            y = self.parent[y]
        while x != y:
            x, y = self.parent[x], self.parent[y]
        return x

    def validate(self) -> None:
        ids = set(self.parent)
        if not ids:
            raise DomainError("staged tree has no nodes")
        if set(self.level) != ids:
            raise DomainError("level table does not match node set")
        roots = [i for i in ids if self.parent[i] is None]
        if len(roots) != 1:
            raise DomainError(f"expected one root, found {len(roots)}")
        if self.level[roots[0]] != 0:
            raise DomainError("root must sit at level 0")
        if not plain_int(self.top_level) or self.top_level < 0:
            raise DomainError(f"bad top level {self.top_level!r}")
        for i in ids:
            l = self.level[i]
            if not plain_int(l):
                raise DomainError(f"node {i} level {l!r} is not an int")
            if not 0 <= l <= self.top_level:
                raise DomainError(f"node {i} level {l!r} outside 0..{self.top_level}")
            p = self.parent[i]
            if p is not None:
                if p not in ids:
                    raise DomainError(f"node {i} has missing parent {p}")
                if self.level[p] != l - 1:  # the parent's level may not be checked yet
                    raise DomainError(f"edge {p}->{i} does not step one level")
        for l in sorted(self.pool, key=repr):
            read_int(l, "pool level")
        if not self.pool <= set(range(self.top_level)):
            raise DomainError(
                f"pool {sorted(self.pool)} must lie strictly below the top level {self.top_level}"
            )
        if self.top_level == 0 and self.limit_top:
            raise DomainError("a single-level stage cannot designate its top as a limit")
        if self.payload is not None:
            if self.space is None:
                raise DomainError("payload intervals need a space")
            if set(self.payload) != ids:
                raise DomainError("payload table does not match node set")
            K = self.space
            # one validation per endpoint, in id order, before any check
            # reads it; then one key each
            for i in sorted(ids):
                sp.validate_point(K, self.payload[i].lo)
                sp.validate_point(K, self.payload[i].hi)
            lo, hi = self.payload_keys
            whole = sp.whole_interval(K)
            wlo, whi = K.key(whole.lo), K.key(whole.hi)
            for i in ids:
                if lo[i] > hi[i]:
                    raise DomainError(f"payload of {i} out of order")
                if lo[i] == hi[i]:  # keys are injective
                    raise DomainError(f"payload of {i} is trivial")
                p = self.parent[i]
                if p is None:
                    if lo[i] != wlo or hi[i] != whi:
                        raise DomainError("root payload must be the whole space")
                elif lo[p] > lo[i] or hi[i] > hi[p]:
                    raise DomainError(f"payload of {i} escapes its parent")
            rows: dict[int, list[int]] = {}
            for i in sorted(ids):
                rows.setdefault(self.level[i], []).append(i)
            for lvl in sorted(rows):
                clash = _first_overlap(rows[lvl], lo, hi)
                if clash is not None:
                    raise DomainError(
                        f"same-level payloads of {clash[0]} and {clash[1]} overlap nontrivially"
                    )


def _node_rows(doc) -> list:
    """The node rows of a tree or staged document, refused past the node
    cap before any row is decoded."""
    rows = read_list(doc["nodes"], "nodes")
    if len(rows) > NODE_CAP:
        raise RangeError(f"{len(rows)} node rows exceed the node cap {NODE_CAP}")
    return rows


def _row_id(row, k: int, field: str):
    """The id or parent field of node row k: an int that is not a bool,
    or null for a parent."""
    if not isinstance(row, dict) or field not in row:
        raise DomainError(f"node row {k} has no {field!r}")
    x = row[field]
    if not plain_int(x) and not (field == "parent" and x is None):
        raise DomainError(f"node row {k}: {field} {x!r} is not an int")
    return x


def _first_overlap(row: list[int], lo: dict, hi: dict) -> tuple[int, int] | None:
    """The first pair (a, b), a < b, in id order among `row` whose proper
    intervals, given by their endpoint keys, share more than a point, or None.

    Sweeps the intervals by low end. Every interval still open when
    another starts overlaps it, so the best pair that starting interval
    v makes is (smallest open id, v) or (v, smallest open id above v).
    """
    ends: list[tuple] = []  # heap of (hi key, id) of the open payloads
    open_ids: list[int] = []  # the same ids, sorted
    best = None
    for v in sorted(row, key=lo.__getitem__):
        while ends and ends[0][0] <= lo[v]:
            _, u = heapq.heappop(ends)
            del open_ids[bisect.bisect_left(open_ids, u)]
        if open_ids:
            k = bisect.bisect_left(open_ids, v)
            pair = (open_ids[0], v) if k else (v, open_ids[0])
            if best is None or pair < best:
                best = pair
        heapq.heappush(ends, (hi[v], v))
        bisect.insort(open_ids, v)
    return best


def to_staged(tree: PartitionTree, m: int, pool, limit_top: bool = True) -> StagedTree:
    """Cut the materialized tree at level m and renumber.

    Requires every wide node strictly below m to be expanded, so the
    stage is a faithful prefix rather than an accident of the budget.
    `StagedTree.validate` validates each payload endpoint once, before
    the frontier is counted; a top level with no node is refused last.
    """
    if not plain_int(m) or m < 0:
        raise DomainError(f"top level must be a natural number, got {m!r}")
    pool = frozenset(pool)
    for l in pool:
        if not plain_int(l) or not 0 <= l < m:
            raise DomainError(f"pool level {l!r} must lie strictly below the top level {m}")
    K = tree.space
    rows: dict[Ordinal, list[int]] = {}
    for i in sorted(tree.nodes):
        rows.setdefault(tree.nodes[i].level, []).append(i)
    by_level = [rows.get(ord_.from_int(lvl), []) for lvl in range(m + 1)]
    if not by_level[0]:
        raise DomainError("tree has no root at level 0")

    fresh: dict[int, int] = {}
    nid = 0
    for row in by_level:
        for old in row:
            fresh[old] = nid
            nid += 1
    for old in fresh:
        up = tree.nodes[old].parent
        if up is not None and up not in fresh:
            raise DomainError(f"parent {up} of node {old} lies outside the cut at level {m}")
    parent = {
        fresh[old]: (None if tree.nodes[old].parent is None else fresh[tree.nodes[old].parent])
        for old in fresh
    }
    level = {fresh[old]: tree.nodes[old].level.as_int() for old in fresh}
    payload = {fresh[old]: tree.nodes[old].interval for old in fresh}
    origin = {new: old for old, new in fresh.items()}
    st = StagedTree(
        parent=parent,
        level=level,
        top_level=m,
        pool=pool,
        payload=payload,
        space=K,
        limit_top=limit_top and m > 0,
        origin=origin,
    )
    st.validate()
    # the payloads are valid and in order now, so counting needs no checks
    for lvl, row in enumerate(by_level[:m]):
        for i in row:
            n = tree.nodes[i]
            cnt = K.count(n.interval.lo, n.interval.hi)
            if (cnt is sp.INFINITE or cnt > 2) and not n.children:
                raise InsufficientMaterialization(
                    f"node {i} at level {lvl} is unexpanded but level {m} was requested"
                )
    if not by_level[m]:
        raise DomainError(f"tree has no node at the top level {m}")
    return st


# -- serialization -------------------------------------------------------------


def tree_to_json(tree: PartitionTree) -> dict:
    K = tree.space
    rows = []
    for i in sorted(tree.nodes):
        n = tree.nodes[i]
        rows.append(
            {
                "id": n.id,
                "parent": n.parent,
                "level": ord_.render(n.level),
                "interval": sp.interval_to_json(K, n.interval),
            }
        )
    doc = {"v": 1, "kind": "tree", "space": K.to_json(), "nodes": rows}
    if tree.budget is not None:
        doc["budget"] = tree.budget
    return doc


def tree_from_json(doc) -> PartitionTree:
    read_kind(doc, "tree", "space", "nodes")
    K = sp.space_from_json(doc["space"])
    rows = []
    for k, r in enumerate(_node_rows(doc)):
        i = _row_id(r, k, "id")
        iv = sp.interval_from_json(K, r.get("interval"))
        rows.append((i, iv.lo, iv.hi, ord_.parse(r.get("level"), "a level string"),
                     _row_id(r, k, "parent")))
    budget = read_int(doc["budget"], "budget", 1) if "budget" in doc else None
    return make_tree(K, rows, budget)


def staged_to_json(st: StagedTree) -> dict:
    rows = []
    for i in st.nodes():
        row = {"id": i, "parent": st.parent[i], "level": st.level[i]}
        if st.payload is not None:
            row["payload"] = sp.interval_to_json(st.space, st.payload[i])
        rows.append(row)
    doc = {
        "v": 1,
        "kind": "staged",
        "top_level": st.top_level,
        "pool": sorted(st.pool),
        "limit_top": st.limit_top,
        "nodes": rows,
    }
    if st.space is not None:
        doc["space"] = st.space.to_json()
    return doc


def staged_from_json(doc) -> StagedTree:
    read_kind(doc, "staged", "top_level", "pool", "nodes")
    K = sp.space_from_json(doc["space"]) if "space" in doc else None
    parent = {}
    level = {}
    payload = {}
    for k, r in enumerate(_node_rows(doc)):
        i = _row_id(r, k, "id")
        if i in parent:
            raise DomainError(f"node id {i} is repeated")
        parent[i] = _row_id(r, k, "parent")
        level[i] = r.get("level")  # validate names a level that is not an int
        if "payload" in r:
            if K is None:
                raise DomainError("payload rows need a space")
            payload[i] = sp.interval_from_json(K, r["payload"], "payload")
    limit_top = doc.get("limit_top", True)
    if not isinstance(limit_top, bool):
        raise DomainError(f"limit_top {limit_top!r} is not a bool")
    st = StagedTree(
        parent=parent,
        level=level,
        top_level=doc["top_level"],
        # read before the frozenset, which would merge true into 1
        pool=frozenset(read_int(l, "pool level") for l in read_list(doc["pool"], "pool")),
        payload=payload if payload else None,
        space=K,
        limit_top=limit_top,
    )
    st.validate()
    return st


def tree_to_dot(tree: PartitionTree) -> str:
    K = tree.space
    lines = ["digraph tree {", "  node [shape=box, fontname=\"monospace\"];"]
    for i in sorted(tree.nodes):
        n = tree.nodes[i]
        label = f"{i}: [{sp.render_point(K, n.interval.lo)}, {sp.render_point(K, n.interval.hi)}]\\nlevel {ord_.render(n.level)}"
        lines.append(f'  n{i} [label="{label}"];')
    for i in sorted(tree.nodes):
        for c in tree.nodes[i].children:
            lines.append(f"  n{i} -> n{c};")
    lines.append("}")
    return "\n".join(lines)


def staged_to_dot(st: StagedTree, cell_of: dict[int, int] | None = None) -> str:
    palette = ["#dd7878", "#8caaee", "#a6d189", "#e5c890", "#ca9ee6", "#81c8be", "#ef9f76", "#99d1db"]
    lines = ["digraph staged {", "  node [shape=box, fontname=\"monospace\"];"]
    for i in st.nodes():
        bits = [str(i)]
        if st.payload is not None:
            iv = st.payload[i]
            bits.append(f"[{sp.render_point(st.space, iv.lo)}, {sp.render_point(st.space, iv.hi)}]")
        label = "\\n".join(bits) + f"\\nlevel {st.level[i]}"
        style = ""
        if cell_of is not None:
            style = f', style=filled, fillcolor="{palette[cell_of[i] % len(palette)]}"'
        if st.level[i] in st.pool:
            style += ", penwidth=2"
        lines.append(f'  n{i} [label="{label}"{style}];')
    for i in st.nodes():
        p = st.parent[i]
        if p is not None:
            lines.append(f"  n{p} -> n{i};")
    lines.append("}")
    return "\n".join(lines)
