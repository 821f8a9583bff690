"""Open convex partitions of a staged tree.

A stage with a designated limit at the top is partitioned into branch
segments: each top node is glued to a tail reaching down to its image
under a disjoint-segment regressive map, and every remaining node is a
cell of its own. Without a designated limit the partition is discrete.
The verifier replays disjointness, cover, chain shape, convexity, and
the openness of every top cell from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, read_int, read_kind, read_list
from .ptree import StagedTree
from .simple import disjoint_intervals, pool_ancestors, segments

@dataclass(frozen=True)
class OpenPartition:
    """Cells in a fixed order; lookups go through `index_of`."""

    cells: tuple[frozenset[int], ...]

    def __post_init__(self):
        where: dict[int, int] = {}
        for k, cell in enumerate(self.cells):
            for v in cell:
                if v in where:
                    raise DomainError(f"node {v} appears in two cells")
                where[v] = k
        object.__setattr__(self, "_where", where)

    def __len__(self) -> int:
        return len(self.cells)

    def index_of(self, v: int) -> int:
        try:
            return self._where[v]
        except KeyError:
            raise DomainError(f"node {v} is in no cell") from None

    def as_cell_index(self) -> dict[int, int]:
        """Node to cell-index map, e.g. for DOT coloring."""
        return dict(self._where)


def partition_open(st: StagedTree) -> OpenPartition:
    """Partition the stage into open convex chains.

    With a designated limit on top, a disjoint-segment map is built and
    each top node's cell becomes its closed branch segment down to the
    image; everything untouched stays a singleton. Raises
    NotSimpleError when the top level is not simple, a proof that no
    such map exists. Raises NoRoom when
    `disjoint_intervals` finds no room under its strict level bound,
    which can happen although a disjoint-segment map exists (e.g.
    `gen_broom(1)`), so NoRoom alone proves nothing.

    Refusals follow the closed-segment convention: when the level just
    below the top is itself pooled, a discrete partition may still be
    open even though no closed-segment map exists.
    """
    nodes = sorted(st.parent)
    if not st.has_designated_limit:
        return OpenPartition(tuple(frozenset((v,)) for v in nodes))
    segs = segments(st, disjoint_intervals(st, frozenset(st.tops())))
    used: set[int] = set()
    cells = []
    for x in sorted(segs):
        cells.append(frozenset(segs[x]))
        used.update(segs[x])
    cells.extend(frozenset((v,)) for v in nodes if v not in used)
    cells.sort(key=min)
    return OpenPartition(tuple(cells))


def verify_open_partition(st: StagedTree, p: OpenPartition) -> list[str]:
    """All the ways p fails to be an open convex chain partition."""
    problems = []
    nodes = set(st.parent)
    seen: dict[int, int] = {}
    for k, cell in enumerate(p.cells):
        if not cell:
            problems.append(f"cell {k} is empty")
            continue
        for v in cell:
            if v not in nodes:
                problems.append(f"cell {k} names unknown node {v}")
            elif v in seen:
                problems.append(f"disjointness: node {v} sits in cells {seen[v]} and {k}")
            else:
                seen[v] = k
    missing = sorted(nodes - set(seen))
    if missing:
        problems.append(f"cover: nodes {missing[:6]} belong to no cell")

    for k, cell in enumerate(p.cells):
        members = sorted((v for v in cell if v in nodes), key=lambda v: st.level[v])
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                u, v = members[i], members[j]
                if st.meet(u, v) not in (u, v):
                    problems.append(f"chain: cell {k} holds incomparable nodes {u} and {v}")
        for u, v in zip(members, members[1:]):
            if st.parent[v] != u:
                problems.append(f"convexity: cell {k} jumps from {u} to {v}")

    if st.has_designated_limit:
        for y in sorted(st.tops()):
            if y not in seen:
                continue
            cell = p.cells[seen[y]]
            open_below = any(
                set(st.branch_segment(y, st.level[x] + 1)) <= cell
                for x in pool_ancestors(st, y)
            )
            if not open_below:
                problems.append(f"openness: top node {y} has no pooled tail inside its cell")
    return problems


def rank(st: StagedTree, p: OpenPartition, a: int) -> int:
    """Number of distinct cells met along the root branch up to a."""
    if a not in st.parent:
        raise DomainError(f"unknown node {a}")
    return len({p.index_of(v) for v in st.branch_segment(a, 0)})


def partition_to_json(p: OpenPartition) -> dict:
    return {"v": 1, "kind": "open-partition", "cells": [sorted(c) for c in p.cells]}


def partition_from_json(doc) -> OpenPartition:
    cells = read_list(read_kind(doc, "open-partition", "cells")["cells"], "cells")
    return OpenPartition(tuple(frozenset(read_int(v, "cell node") for v in read_list(c, "cell"))
                               for c in cells))
