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
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import cache, cached_property
from operator import itemgetter
from typing import NamedTuple

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


class _Columns(NamedTuple):
    """A partition tree by position: position p holds the node with the
    p-th smallest id."""

    ids: Sequence  # ascending; range(n) for a built tree
    lo: Sequence  # the low end of each node's interval
    hi: Sequence  # the high end
    level: Sequence  # Ordinal levels
    parent: Sequence  # parent ids, None at a root
    children: Sequence  # tuples of child ids


class PartitionTree:
    """A partition tree over `space`, kept as position-indexed columns.

    `columns` holds, at position p, the node with the p-th smallest id:
    its id, the low and high end of its interval, its level, its parent
    id (None at the root) and the tuple of its child ids. A built tree
    numbers its nodes 0..n-1, so its ids are `range(n)`. Every reader in
    `ordfrag` reads the columns; no node record exists unless asked for.

    `nodes` is a read-only mapping view of the same tree, equal to and
    iterating like an id-ordered dict of `TreeNode`s. It builds each
    node on its first access and keeps it; `len()` builds none. The
    oracles of `bruteforce` read it. `PartitionTree(space, nodes,
    root_id)` with such a dict, as a test fixture builds one, derives the
    columns from it once, and its view returns the dict's own nodes.
    """

    space: sp.SpaceDescriptor
    columns: _Columns
    root_id: int
    budget: int | None

    def __init__(self, space, nodes, root_id, budget=None):
        self.space, self.root_id, self.budget = space, root_id, budget
        # id(point) -> order key of the endpoints a decoder validated
        self._keys: dict | None = None
        if type(nodes) is _Columns:
            self.columns = nodes
            return
        ids = sorted(nodes)
        row = [nodes[i] for i in ids]
        self.columns = _Columns(ids, [n.interval.lo for n in row], [n.interval.hi for n in row],
                                [n.level for n in row], [n.parent for n in row],
                                [n.children for n in row])
        self.nodes = _NodeView(self.columns, dict(zip(ids, row)))

    @cached_property
    def nodes(self) -> Mapping:
        return _NodeView(self.columns, {})

    def __eq__(self, other):
        if not isinstance(other, PartitionTree):
            return NotImplemented
        return ((self.space, self.root_id, self.budget, self.nodes)
                == (other.space, other.root_id, other.budget, other.nodes))

    def __reduce__(self):
        # the key map goes by object identity, which a copy does not keep
        return PartitionTree, (self.space, self.columns, self.root_id, self.budget)


class _NodeView(Mapping):
    """`PartitionTree.nodes`: id -> TreeNode in id order. A node is built
    from the columns on its first access and kept. Iterating over the
    values or items builds the nodes in one pass over the columns, and
    keeps those built before."""

    def __init__(self, columns: _Columns, built: dict):
        self._columns = columns
        self._built = built

    @cached_property
    def _pos(self) -> dict:
        ids = self._columns.ids
        return dict(zip(ids, range(len(ids))))

    def __len__(self):
        return len(self._columns.ids)

    def __iter__(self):
        return iter(self._columns.ids)

    def __contains__(self, i):
        return i in self._pos

    def __getitem__(self, i):
        n = self._built.get(i)
        if n is None:
            p = self._pos[i]
            ids, lo, hi, level, parent, children = self._columns
            n = self._built[i] = TreeNode(ids[p], ClosedInterval(lo[p], hi[p]), level[p], parent[p],
                                          children[p])
        return n

    def _all(self) -> dict:
        built = self._built
        if len(built) < len(self):
            ids, lo, hi, level, parent, children = self._columns
            nodes = dict(zip(ids, map(TreeNode, ids, map(ClosedInterval, lo, hi), level, parent, children)))
            nodes.update(built)
            built = self._built = nodes
        return built

    def values(self):
        return self._all().values()

    def items(self):
        return self._all().items()


def build_tree(space, budget: int) -> PartitionTree:
    """Materialize a tree breadth-first until the budget is spent.

    A node splits only while at least two budget slots remain, so
    children always arrive in pairs, at the space's canonical split
    point. Every endpoint is a point of the space by construction, so
    nothing is validated or compared. Ids are given breadth-first, so a
    node's id is its position: children are appended to the columns as
    their parent splits, and the columns themselves are the queue, read
    at `head`.
    """
    if not plain_int(budget) or budget < 1:
        raise DomainError(f"budget must be a positive int, got {budget!r}")
    if budget > NODE_CAP:
        raise RangeError(f"budget {budget} exceeds the node cap {NODE_CAP}")
    if sp.space_size(space) == 1:
        raise DomainError("cannot build a tree over a one-point space")

    count, split = space.count, space.split
    lo, hi, level, parent = [space.minimum()], [space.maximum()], [ord_.ZERO], [None]
    children = []
    lvl, succ = None, None
    head, n = 0, 1
    while head < n and n + 2 <= budget:
        a, b = lo[head], hi[head]
        cnt = count(a, b)
        if cnt > 2:
            w = split(a, b, cnt)
            if level[head] is not lvl:  # breadth-first: levels arrive in runs
                lvl = level[head]
                succ = ord_.add(lvl, ord_.ONE)
            lo += a, w
            hi += w, b
            level += succ, succ
            parent += head, head
            children.append((n, n + 1))
            n += 2
        else:
            children.append(())
        head += 1
    children += [()] * (n - head)  # the budget is spent: the rest are leaves
    return PartitionTree(space, _Columns(range(n), lo, hi, level, parent, children), 0, budget)


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
    ids, lo, hi, level, parent = zip(*sorted(rows, key=itemgetter(0))) if rows else ((),) * 5
    columns = _Columns(ids, lo, hi, level, parent, [tuple(sorted(children[i])) for i in ids])
    # verifier fixtures may be rootless on purpose; pick a stable anchor
    root_id = roots[0] if len(roots) == 1 else ids[0] if ids else 0
    return PartitionTree(space, columns, root_id, budget)


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

    Reads the tree's columns by position and builds no node record: the
    linkage pass maps each parent id to its position, and every later
    pass indexes lists of endpoint keys, level ranks and parent
    positions.

    Clauses: linkage, root, nontrivial, two-point-leaf, binary-split,
    level-step, limit-intersection, reverse-inclusion, level-overlap,
    comparability. The per-node clauses compare endpoint keys. On an
    admissible tree they imply the pairwise ones, so the pairwise clauses
    cost nothing there: no sort, no rank table, no sweep. If every
    interval is proper and every node with children has exactly two
    that split it at one interior point, then each child lies strictly
    inside its parent, so each descendant lies strictly inside each
    ancestor; and two incomparable nodes lie under the two children of
    their meet, which share one point, so they share at most a point
    and neither lies inside the other. If levels also rise on every
    edge, same-level nodes are incomparable, so they too share at most
    a point, and every pairwise count is 0. Only when a per-node
    interval clause fails, or levels do not rise on some edge, are the
    endpoints ranked and the violating pairs enumerated by
    `_pair_clauses` in O(n) memory; that adds a sort and the violating
    pairs.

    The same argument, run on one pair, bounds that enumeration. Call a
    node damaged when its interval is not proper or some strict
    ancestor fails binary-split. If neither u nor v is damaged, every
    node above either splits into two children at one interior point,
    so an ancestor u holds v strictly inside, and incomparable u and v
    lie under the two halves of their meet: the pair breaks neither
    reverse-inclusion nor comparability, nor, when levels rise,
    level-overlap. So every violating pair has a damaged end, and
    `_pair_clauses` bisects the root path only of damaged nodes and
    sweeps undamaged nodes against the damaged ones alone. It still
    sorts, walks and sweeps all n nodes, but a tree with one bad split
    makes queries only for the subtree below it.

    An endpoint outside the space is malformed input, not an
    inadmissible tree: once the links are mirrored and there is one
    root, each distinct endpoint object goes through
    `space.validate_point` once, in id order and low end first (a built
    or decoded tree shares each split point between two children, so
    about n/2 of its 2n endpoints are distinct objects), and the first
    that is not a point raises its DomainError before any other clause
    is checked. A tree from `tree_from_json` carries the keys its
    decoder computed for the points it validated, and none of those is
    validated again.

    The tree is walked at most once: up front when some non-root node's
    level is not above its parent's, and otherwise only by
    `_pair_clauses` when the intervals fail a per-node clause. With the
    links mirrored, one root and rising levels, parent steps lower the
    level and so end at the root, and no node can be cut off.
    """
    violations: list[Violation] = []
    counts: dict[str, int] = {}

    def report(clause, nodes, detail):
        counts[clause] = counts.get(clause, 0) + 1
        if counts[clause] <= _PAIR_REPORT_CAP:
            violations.append(Violation(clause, tuple(nodes), detail))

    K = tree.space
    ids, lo_pts, hi_pts, levels, parents, children = tree.columns
    if not ids:
        report("root", (), "empty tree")
        return Verdict(False, tuple(violations), counts)
    pos = dict(zip(ids, range(len(ids))))
    at = pos.get

    # linkage first; later passes assume a coherent parent structure
    broken = False
    par = []  # the parent's position, -1 at a root
    roots = []
    for i, q, kids in zip(ids, parents, children):
        if q is None:
            r = -1
            roots.append(i)
        else:
            r = at(q, -2)
            if r == -2:
                report("linkage", (i,), f"parent {q} missing")
                broken = True
        for c in kids:
            k = at(c)
            if k is None or parents[k] != i:
                report("linkage", (i, c), "child link not mirrored")
                broken = True
        if r >= 0 and i not in children[r]:
            report("linkage", (i,), "not listed among parent's children")
            broken = True
        par.append(r)
    if len(roots) != 1:
        report("root", tuple(roots), f"expected exactly one root, found {len(roots)}")
        broken = True
    if broken:
        return Verdict(False, tuple(violations), counts)

    # the per-node clauses compare endpoint keys
    lo, hi = _endpoint_keys(K, lo_pts, hi_pts, tree._keys)

    # levels by rank, keyed by their term tuples: rank order is the
    # ordinal order. Per distinct level, whether it is a limit and the
    # rank of level + 1 (-1 when no node has it).
    lvl_keys = sorted({l.terms: l for l in levels}.values())
    lvl_rank = {l.terms: r for r, l in enumerate(lvl_keys)}
    lvl = [lvl_rank[l.terms] for l in levels]
    limit = [l.kind == "limit" for l in lvl_keys]
    step = [lvl_rank.get(ord_.add(l, ord_.ONE).terms, -1) for l in lvl_keys]
    zero = lvl_rank.get(ord_.ZERO.terms, -1)

    root = roots[0]
    rp = pos[root]
    if lvl[rp] != zero:
        report("root", (root,), f"root level is {levels[rp]}, not 0")
    if (lo_pts[rp], hi_pts[rp]) != (K.minimum(), K.maximum()):
        report("root", (root,), "root interval is not the whole space")
    if lvl.count(zero) > (lvl[rp] == zero):
        for p, i in enumerate(ids):
            if lvl[p] == zero and p != rp:
                report("root", (i,), "non-root node at level 0")

    times = cache(lambda: _walk(children, pos, rp))  # DFS (tin, tout), walked once

    # reachability (cycles would hide below a fake root)
    rising = all(q < 0 or lvl[q] < r for q, r in zip(par, lvl))
    if not rising:
        tin, _ = times()
        unreachable = [i for p, i in enumerate(ids) if tin[p] < 0]
        if unreachable:
            report("linkage", tuple(unreachable[:8]), f"{len(unreachable)} nodes unreachable from root")
            return Verdict(False, tuple(violations), counts)

    nested = True  # every interval proper and every split binary at an interior point
    split_faults = []  # positions of the nodes failing binary-split
    for p, (i, kids, l, h, q, r) in enumerate(zip(ids, children, lo, hi, par, lvl)):
        if l >= h:
            nested = False
            if l > h:
                report("nontrivial", (i,), "interval endpoints out of order")
                report("nontrivial", (i,), "interval has 0 points")
            else:
                report("nontrivial", (i,), "interval has 1 points")
        if len(kids) == 2:
            a, b = pos[kids[0]], pos[kids[1]]
            if lo[a] > lo[b]:
                a, b = b, a
            fault = None if lo[a] == l < hi[a] == lo[b] < hi[b] == h else (
                (i, ids[a], ids[b]), "children do not split at a single interior point")
        else:
            fault = kids and ((i,), "exactly one child" if len(kids) == 1 else f"{len(kids)} children")
        if fault:
            # an interior split point makes three points, so only a bad
            # split can sit on a two-point interval
            nested = False
            split_faults.append(p)
            if l < h and K.count(lo_pts[p], hi_pts[p]) == 2:
                report("two-point-leaf", (i,), "two-point interval has children")
            report("binary-split", *fault)
        if q < 0:
            continue
        if limit[r]:
            if not r > lvl[q]:
                report("level-step", (i,), f"limit level {levels[p]} not above parent level {levels[q]}")
            lo_best, hi_best = lo[q], hi[q]
            while q >= 0:
                lo_best, hi_best = max(lo_best, lo[q]), min(hi_best, hi[q])
                q = par[q]
            if lo_best != l or hi_best != h:
                report(
                    "limit-intersection",
                    (i,),
                    "limit-level interval differs from the intersection of its ancestors",
                )
        elif r != step[lvl[q]]:
            report("level-step", (i,), f"level {levels[p]} is not parent level {levels[q]} + 1")

    if not (nested and rising):
        # pairwise clauses on endpoint ranks
        rank = {k: r for r, k in enumerate(sorted({*lo, *hi}))}
        found = _pair_clauses([rank[k] for k in lo], [rank[k] for k in hi], lvl, par, times,
                              nested, split_faults)
        for clause, detail in _PAIR_CLAUSES.items():
            count, first = found[clause]
            if count:
                counts[clause] = count
                violations.extend(Violation(clause, (ids[r], ids[c]), detail) for r, c in first)

    return Verdict(not violations and not counts, tuple(violations), counts)


def _endpoint_keys(K, los, his, seed: dict | None = None) -> tuple[list, list]:
    """The order keys of the low ends `los` and the high ends `his`. Each
    distinct endpoint object is validated and keyed once, at its first
    occurrence, low end first, so the first endpoint that is not a point
    raises its DomainError before any key is compared. `seed` (`id(point)
    -> key`, such as a `PointCodec`'s) holds points already validated,
    which are neither validated nor keyed again. The id map is freed on
    return, before the caller builds anything else."""
    validate = sp.validate_point
    key = K.key
    # id(point) -> key, never None; the callers keep each point alive
    keys: dict[int, object] = {} if seed is None else dict(seed)
    known = keys.get
    lo, hi = [], []
    for x, y in zip(los, his):
        k = known(id(x))
        if k is None:
            validate(K, x)
            k = keys[id(x)] = key(x)
        lo.append(k)
        k = known(id(y))
        if k is None:
            validate(K, y)
            k = keys[id(y)] = key(y)
        hi.append(k)
    return lo, hi


def _walk(children, pos, root):
    """DFS entry and exit times (tin, tout) by position from the root's
    position, children in id order; -1 for a node the walk misses."""
    tin = [-1] * len(children)
    tout = [-1] * len(children)
    at = pos.__getitem__
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
        if children[p]:
            stack += map(at, sorted(children[p], reverse=True))
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


def _pair_clauses(lo, hi, lvl, par, times, nested: bool, split_faults) -> dict:
    """The pairwise clauses on ranks by position: per clause, the number
    of violating unordered pairs and the first _PAIR_REPORT_CAP of them
    as position pairs (r, c), r < c, in increasing order. `times()`
    gives the DFS (tin, tout), walking the tree on its first call.

    With u an ancestor of v (tin/tout nest), `reverse-inclusion` wants
    [lo, hi] of v strictly inside that of u, and for incomparable nodes
    it wants neither interval inside the other; `comparability` wants
    incomparable intervals to share at most a point and
    `level-overlap` wants the same of same-level intervals.

    `nested` says the per-node clauses held: every interval is proper
    and every split binary at an interior point, which (see
    `verify_admissible`) leaves no reverse-inclusion or comparability
    pair, so only the same-level pairs are enumerated and the tree is
    not walked. Otherwise a node is damaged when its interval is not
    proper or a strict ancestor is among `split_faults`, the positions
    failing binary-split, and every reverse-inclusion and comparability
    pair has a damaged end: if u and v are both undamaged, every node
    above either splits into two children at one interior point, so an
    ancestor u holds v strictly inside and incomparable u and v lie
    under the two halves of their meet (see `verify_admissible`). The
    violating pairs of these two clauses are enumerated, each once,
    without visiting the ancestor pairs that are in order and without
    meeting a pair of undamaged nodes, in a sweep by (lo, -hi) that
    breaks ties by DFS entry time. When levels rise the same holds for
    level-overlap pairs, but its per-level sweep does not rely on it.
    """
    logs = {clause: _PairLog() for clause in _PAIR_CLAUSES}
    if not nested:
        tin, tout = times()
        order = sorted(range(len(lo)), key=tin.__getitem__)  # DFS order: parents first
        faulty = [False] * len(lo)  # the node or an ancestor fails binary-split
        for p in split_faults:
            faulty[p] = True
        damaged = [False] * len(lo)
        for v in order:
            q = par[v]
            if q >= 0 and faulty[q]:
                faulty[v] = damaged[v] = True
            elif lo[v] >= hi[v]:
                damaged[v] = True
        sweep = sorted(range(len(lo)), key=lambda v: (lo[v], -hi[v], tin[v]))
        _ancestor_pairs(lo, hi, par, order, damaged, logs["reverse-inclusion"])
        _crossing_pairs(lo, hi, tin, tout, order, sweep, damaged,
                        logs["reverse-inclusion"], logs["comparability"])
    _level_overlaps(lo, hi, lvl, logs["level-overlap"])
    return {clause: log.result() for clause, log in logs.items()}


def _strictly_inside(lo, hi, u, v) -> bool:
    """[lo, hi] of v lies inside that of u and differs from it."""
    return lo[u] <= lo[v] and hi[v] <= hi[u] and (lo[u] < lo[v] or hi[v] < hi[u])


def _ancestor_pairs(lo, hi, par, order, damaged, log: _PairLog) -> None:
    """Log every ancestor pair (u, v) whose intervals are not strictly
    nested, visiting the nodes in DFS `order`; only a damaged v can
    end such a pair.

    Cutting the tree at its non-nested edges leaves pieces in which
    strict nesting is transitive. Along a root path each piece's lows
    therefore rise and its highs fall, so the ancestors of v in another
    piece that fail are a suffix of that piece, plus at most one equal
    interval just before it; bisection finds both.
    """
    path: list[int] = []
    pieces: list[tuple[int, list[int], list[int]]] = []  # (start in path, lows, -highs)
    for v in order:
        p = par[v]
        while path and path[-1] != p:
            path.pop()
            _start, lows, neg_highs = pieces[-1]
            lows.pop()
            neg_highs.pop()
            if not lows:
                pieces.pop()
        joins = p >= 0 and _strictly_inside(lo, hi, p, v)
        if damaged[v]:
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


def _crossing_pairs(lo, hi, tin, tout, by_tin, sweep, damaged,
                    inclusion: _PairLog, comparability: _PairLog) -> None:
    """Log every incomparable pair whose intervals overlap or contain one
    another, where at least one end is damaged.

    In sweep order, an earlier u meets v (one interval inside the
    other, or overlap) exactly when hi[u] reaches lo[v] + 1 for a proper
    v and hi[v] otherwise. Nodes neither above nor below v end before
    v starts (tout < tin[v]) or start after it ends (tin > tout[v]), so
    two max trees over the earlier nodes, ordered by tout and by tin
    (`by_tin` is the DFS order), report exactly those. A damaged v
    queries the trees over all earlier nodes; an undamaged v queries
    two more trees that hold only the damaged ones, and only when their
    root reaches it.
    """
    n = len(lo)
    by_tout = sorted(range(n), key=tout.__getitem__)
    touts = [tout[v] for v in by_tout]
    tins = [tin[v] for v in by_tin]
    tout_slot = {v: k for k, v in enumerate(by_tout)}
    tin_slot = {v: k for k, v in enumerate(by_tin)}
    before, after = _MaxTree(n), _MaxTree(n)
    damaged_before, damaged_after = _MaxTree(n), _MaxTree(n)
    for v in sweep:
        reach = lo[v] + 1 if lo[v] < hi[v] else hi[v]
        left, right = (before, after) if damaged[v] else (damaged_before, damaged_after)
        met = []
        if left.best[1] >= reach:
            met += [by_tout[k] for k in left.reaching(0, bisect.bisect_left(touts, tin[v]), reach)]
        if right.best[1] >= reach:
            met += [by_tin[k] for k in right.reaching(bisect.bisect_right(tins, tout[v]), n, reach)]
        for u in met:
            if (lo[u] <= lo[v] and hi[v] <= hi[u]) or (lo[v] <= lo[u] and hi[u] <= hi[v]):
                inclusion.add(u, v)
            if max(lo[u], lo[v]) < min(hi[u], hi[v]):
                comparability.add(u, v)
        before.raise_to(tout_slot[v], hi[v])
        after.raise_to(tin_slot[v], hi[v])
        if damaged[v]:
            damaged_before.raise_to(tout_slot[v], hi[v])
            damaged_after.raise_to(tin_slot[v], hi[v])


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
        """(lo, hi): the order key of each node's payload ends, by node.
        `validate` stores here the keys it computes or, for a decoded
        stage, the keys the document's `PointCodec` computed."""
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

    def validate(self, keys: dict | None = None) -> None:
        """Check the structure, the pool and the payloads; the first fault
        raises its DomainError.

        Each distinct payload endpoint object is validated and keyed
        once, in id order and low end first, before any payload clause
        reads it. `keys` (`id(point) -> key`, such as the `PointCodec`
        that decoded the payloads) seeds that map with points already
        validated, which are then neither validated nor keyed again. The
        keys are kept as `payload_keys`. Every payload is proper before
        same-level overlap is decided, so a level overlaps iff two of its
        nodes that are neighbours in low-key order do: one sort of all
        nodes by low key decides every level, and `_first_overlap` runs
        only to name the pair a refusal reports, on the lowest level that
        overlaps.
        """
        parent, level, top = self.parent, self.level, self.top_level
        ids = set(parent)  # the node clauses are checked in its order
        if not ids:
            raise DomainError("staged tree has no nodes")
        if level.keys() != ids:
            raise DomainError("level table does not match node set")
        roots = [i for i, p in parent.items() if p is None]
        if len(roots) != 1:
            raise DomainError(f"expected one root, found {len(roots)}")
        if level[roots[0]] != 0:
            raise DomainError("root must sit at level 0")
        if not plain_int(top) or top < 0:
            raise DomainError(f"bad top level {top!r}")
        for i in ids:
            l = level[i]
            if type(l) is not int and not plain_int(l):
                raise DomainError(f"node {i} level {l!r} is not an int")
            if not 0 <= l <= top:
                raise DomainError(f"node {i} level {l!r} outside 0..{top}")
            p = parent[i]
            if p is not None:
                if p not in parent:
                    raise DomainError(f"node {i} has missing parent {p}")
                if level[p] != l - 1:  # the parent's level may not be checked yet
                    raise DomainError(f"edge {p}->{i} does not step one level")
        bad = [l for l in self.pool if not plain_int(l)]
        if bad:
            read_int(min(bad, key=repr), "pool level")
        if self.pool and (min(self.pool) < 0 or max(self.pool) >= top):
            raise DomainError(
                f"pool {sorted(self.pool)} must lie strictly below the top level {top}"
            )
        if top == 0 and self.limit_top:
            raise DomainError("a single-level stage cannot designate its top as a limit")
        if self.payload is None:
            return
        if self.space is None:
            raise DomainError("payload intervals need a space")
        if self.payload.keys() != ids:
            raise DomainError("payload table does not match node set")
        K = self.space
        order = sorted(ids)
        ivs = [self.payload[i] for i in order]
        lo, hi = _endpoint_keys(K, [iv.lo for iv in ivs], [iv.hi for iv in ivs], keys)
        lo, hi = dict(zip(order, lo)), dict(zip(order, hi))
        self.payload_keys = lo, hi
        wlo, whi = K.key(K.minimum()), K.key(K.maximum())
        for i in ids:
            a, b = lo[i], hi[i]
            if not a < b:  # keys are injective
                raise DomainError(f"payload of {i} {'is trivial' if a == b else 'out of order'}")
            p = parent[i]
            if p is None:
                if a != wlo or b != whi:
                    raise DomainError("root payload must be the whole space")
            elif lo[p] > a or b > hi[p]:
                raise DomainError(f"payload of {i} escapes its parent")
        # in low-key order, each node meets the previous node of its level
        last: dict[int, object] = {}  # level -> high key of that node; keys are never None
        clashing = set()
        for i in sorted(ids, key=lo.__getitem__):
            l = level[i]
            h = last.get(l)
            if h is not None and h > lo[i]:
                clashing.add(l)
            last[l] = hi[i]
        if clashing:
            l = min(clashing)
            a, b = _first_overlap([i for i in ids if level[i] == l], lo, hi)
            raise DomainError(f"same-level payloads of {a} and {b} overlap nontrivially")


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
    intervals, given by their endpoint keys, share more than a point, or
    None. `StagedTree.validate` calls it only to name the pair of a level
    it has found to overlap.

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
    `StagedTree.validate` validates each distinct payload endpoint object
    once, before the frontier is counted; a top level with no node is
    refused last. Nodes are grouped by the levels the tree has, so the
    cost does not grow with m.
    """
    if not plain_int(m) or m < 0:
        raise DomainError(f"top level must be a natural number, got {m!r}")
    pool = frozenset(pool)
    for l in pool:
        if not plain_int(l) or not 0 <= l < m:
            raise DomainError(f"pool level {l!r} must lie strictly below the top level {m}")
    K = tree.space
    ids, lo, hi, levels, parents, children = tree.columns
    top = ((0, m),)  # term tuples order as the ordinals do
    by_level: dict[int, list[int]] = {}  # positions by level, for the levels up to m
    for p, l in enumerate(levels):
        if l.terms <= top:
            by_level.setdefault(l.as_int(), []).append(p)
    if 0 not in by_level:
        raise DomainError("tree has no root at level 0")
    by_level = dict(sorted(by_level.items()))

    cut = [p for row in by_level.values() for p in row]  # positions by new id
    fresh = {ids[p]: new for new, p in enumerate(cut)}
    for p in cut:
        up = parents[p]
        if up is not None and up not in fresh:
            raise DomainError(f"parent {up} of node {ids[p]} lies outside the cut at level {m}")
    st = StagedTree(
        parent={new: (None if parents[p] is None else fresh[parents[p]]) for new, p in enumerate(cut)},
        level={new: levels[p].as_int() for new, p in enumerate(cut)},
        top_level=m,
        pool=pool,
        payload={new: ClosedInterval(lo[p], hi[p]) for new, p in enumerate(cut)},
        space=K,
        limit_top=limit_top and m > 0,
        origin={new: ids[p] for new, p in enumerate(cut)},
    )
    st.validate()
    # the payloads are valid and in order now, so counting needs no checks
    for lvl, row in by_level.items():
        for p in row:
            if lvl < m and not children[p] and K.count(lo[p], hi[p]) > 2:
                raise InsufficientMaterialization(
                    f"node {ids[p]} at level {lvl} is unexpanded but level {m} was requested"
                )
    if m not in by_level:
        raise DomainError(f"tree has no node at the top level {m}")
    return st


# -- serialization -------------------------------------------------------------


def tree_to_json(tree: PartitionTree) -> dict:
    K = tree.space
    write = sp.PointCodec(K).write
    ids, lo, hi, levels, parents, _ = tree.columns
    rows = [
        {"id": i, "parent": q, "level": ord_.render(l), "interval": [write(a), write(b)]}
        for i, a, b, l, q in zip(ids, lo, hi, levels, parents)
    ]
    doc = {"v": 1, "kind": "tree", "space": K.to_json(), "nodes": rows}
    if tree.budget is not None:
        doc["budget"] = tree.budget
    return doc


def tree_from_json(doc) -> PartitionTree:
    """The tree a tree document describes, unverified. Its `PointCodec`
    validates and keys each distinct point text once, and the tree keeps
    those keys for `verify_admissible`, which then validates no endpoint
    again. Each distinct level text is parsed once, and its nodes share
    the level, as a built tree's do."""
    read_kind(doc, "tree", "space", "nodes")
    K = sp.space_from_json(doc["space"])
    codec = sp.PointCodec(K)
    levels: dict[str, Ordinal] = {}  # text -> level
    rows = []
    for k, r in enumerate(_node_rows(doc)):
        i = _row_id(r, k, "id")
        lo, hi = codec.read_interval(r.get("interval"))
        text = r.get("level")
        level = levels.get(text) if type(text) is str else None
        if level is None:  # a text that is not a string is refused here
            level = levels[text] = ord_.parse(text, "a level string")
        rows.append((i, lo, hi, level, _row_id(r, k, "parent")))
    budget = read_int(doc["budget"], "budget", 1) if "budget" in doc else None
    tree = make_tree(K, rows, budget)
    tree._keys = codec.keys
    return tree


def staged_to_json(st: StagedTree) -> dict:
    codec = None if st.payload is None else sp.PointCodec(st.space)
    rows = []
    for i in st.nodes():
        row = {"id": i, "parent": st.parent[i], "level": st.level[i]}
        if codec is not None:
            row["payload"] = codec.write_interval(st.payload[i])
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
    """The validated stage a staged document describes, in one pass over
    its rows. Plain-int ids and parents are read directly, and `_row_id`
    names what is wrong with any other. The document's `PointCodec`
    validates and keys each distinct payload text once and its keys seed
    `StagedTree.validate`, so each payload point is validated once in
    all. A stage whose top level holds no node is refused after
    `validate`: it would answer every question about its tops vacuously.
    """
    read_kind(doc, "staged", "top_level", "pool", "nodes")
    K = sp.space_from_json(doc["space"]) if "space" in doc else None
    codec = None if K is None else sp.PointCodec(K)
    parent = {}
    level = {}
    payload = {}
    for k, r in enumerate(_node_rows(doc)):
        i = r.get("id") if type(r) is dict else None
        if type(i) is not int:
            i = _row_id(r, k, "id")
        if i in parent:
            raise DomainError(f"node id {i} is repeated")
        p = r.get("parent")
        if type(p) is not int and (p is not None or "parent" not in r):
            p = _row_id(r, k, "parent")
        parent[i] = p
        level[i] = r.get("level")  # validate names a level that is not an int
        if "payload" in r:
            if codec is None:
                raise DomainError("payload rows need a space")
            payload[i] = ClosedInterval(*codec.read_interval(r["payload"], "payload"))
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
    st.validate(None if codec is None else codec.keys)
    if st.top_level not in level.values():
        raise DomainError(f"staged tree has no node at the top level {st.top_level}")
    return st


def tree_to_dot(tree: PartitionTree) -> str:
    K = tree.space
    ids, lo, hi, levels, _, children = tree.columns
    lines = ["digraph tree {", "  node [shape=box, fontname=\"monospace\"];"]
    for i, a, b, l in zip(ids, lo, hi, levels):
        label = f"{i}: [{sp.render_point(K, a)}, {sp.render_point(K, b)}]\\nlevel {ord_.render(l)}"
        lines.append(f'  n{i} [label="{label}"];')
    for i, kids in zip(ids, children):
        for c in kids:
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
