"""Seeded instance generators used by tests, the acceptance suite and
the CLI. Everything is a pure function of an explicit random.Random (or
an integer seed), so corpora are reproducible byte for byte.
"""

from __future__ import annotations

import random

from . import ordinal as ord_
from . import space as sp
from .errors import DomainError, RangeError
from .ordinal import Ordinal
from .ptree import NODE_CAP, StagedTree
from .simple import RegressiveMap
from .space import ClosedInterval, FiniteChain, SplitChain

ALPHA_MENU = ("w", "w*2", "w^2", "w^2*3+5", "w^3")


def rng_of(seed) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def sample_ordinal_below(rng, alpha: Ordinal) -> Ordinal:
    """A uniform-ish ordinal in [0, alpha]: random coefficients under the
    leading term, occasionally alpha itself or a limit."""
    if rng.random() < 0.1:
        return alpha
    while True:
        terms = []
        prev = None
        for e in range(ord_.degree(alpha), -1, -1):
            if rng.random() < 0.55:
                c = rng.randint(1, 6)
                terms.append((e, c))
        cand = Ordinal(tuple(terms))
        if cand <= alpha:
            return cand


def sample_point(seed, space):
    """A random point of the space; limits of ordinal intervals included."""
    rng = rng_of(seed)
    if isinstance(space, sp.FiniteChain):
        return rng.randrange(space.size)
    if isinstance(space, sp.SplitChain):
        return (rng.randrange(space.size), rng.randrange(2))
    if isinstance(space, sp.OrdinalInterval):
        return sample_ordinal_below(rng, space.alpha)
    if isinstance(space, sp.OrderSum):
        idx = rng.randrange(len(space.parts))
        return (idx, sample_point(rng, space.parts[idx]))
    raise DomainError(f"unknown space descriptor {space!r}")


def seeded_pairs(K, pts, rng, count):
    """count pairs (u, v), u < v, of the points pts, drawn from rng."""
    keyed = sorted(pts, key=K.key)
    if len(keyed) < 2:
        raise DomainError("need at least two points to form pairs")
    out = []
    for _ in range(count):
        i = rng.randrange(len(keyed) - 1)
        j = rng.randrange(i + 1, len(keyed))
        out.append((keyed[i], keyed[j]))
    return out


# -- staged tree corpora -------------------------------------------------------


class _Builder:
    """Incremental staged-tree assembly with level-ordered fresh ids."""

    def __init__(self):
        self.rows: list[tuple[int, int | None, int, ClosedInterval | None]] = []
        self._next = 0

    def add(self, parent: int | None, level: int, payload=None) -> int:
        nid = self._next
        self._next += 1
        self.rows.append((nid, parent, level, payload))
        return nid

    def staged(self, top_level, pool, space=None, limit_top=True) -> StagedTree:
        order = sorted(self.rows, key=lambda r: (r[2], r[0]))
        fresh = {old: new for new, (old, _, _, _) in enumerate(order)}
        parent = {fresh[i]: (None if p is None else fresh[p]) for i, p, _, _ in order}
        level = {fresh[i]: l for i, _, l, _ in order}
        payload = {fresh[i]: iv for i, _, _, iv in order if iv is not None}
        st = StagedTree(
            parent=parent,
            level=level,
            top_level=top_level,
            pool=frozenset(pool),
            payload=payload if len(payload) == len(order) else None,
            space=space if len(payload) == len(order) else None,
            limit_top=limit_top and top_level > 0,
        )
        st.validate()
        return st


def _add_comb(b: _Builder, root, base: int, teeth: int, lo: int, hi: int, width: int,
              top: int) -> None:
    """A right comb under root (None for none): spine node i at level
    base + i holds [lo + i * width, hi], and its tooth climbs to the top
    level, one point shorter per level, inside its block of width
    points. The spine goes in first, then each tooth in spine order."""
    spine = []
    for i in range(teeth):
        spine.append(b.add(spine[-1] if spine else root, base + i,
                           ClosedInterval(lo + i * width, hi)))
    for i, cur in enumerate(spine):
        start = lo + i * width
        for depth in range(1, top - base - i + 1):
            cur = b.add(cur, base + i + depth, ClosedInterval(start, start + width - 1 - depth))


def gen_comb(seed, teeth=None, room=None) -> StagedTree:
    """A right comb with payload: a spine hugging the right edge and one
    unary tooth per spine node, every tooth reaching the top level with
    its own private block of the chain. Pool levels sit strictly below
    the top and strictly below no tooth's departure, so every top node
    keeps private headroom: the with-room corpus."""
    rng = rng_of(seed)
    t = teeth if teeth is not None else rng.randint(3, 8)
    r = room if room is not None else rng.randint(2, 4)
    if t < 1 or r < 1:
        raise DomainError(f"a comb needs teeth >= 1 and room >= 1, got teeth={t} and room={r}")
    if t + t * (t + r) - t * (t - 1) // 2 > NODE_CAP:  # spine plus teeth
        raise RangeError(f"a comb with {t} teeth and room {r} exceeds the node cap {NODE_CAP}")
    m = t + r
    width = m + 2
    K = FiniteChain(t * width)
    b = _Builder()
    _add_comb(b, None, 0, t, 0, t * width - 1, width, m)
    return b.staged(m, range(t, m), space=K)


def gen_split_miniature(depth: int, pool_mode: str = "no_parent") -> StagedTree:
    """The full binary stage over a split chain: 2^(depth-1) top nodes
    whose payloads tile the chain. With any admissible pool the top
    outnumbers the pooled nodes, so the stage is never simple."""
    if depth < 2:
        raise DomainError("need depth >= 2")
    if depth > NODE_CAP.bit_length() or 2**depth - 1 > NODE_CAP:
        raise RangeError(f"a miniature of depth {depth} has 2^{depth} - 1 nodes, "
                         f"over the node cap {NODE_CAP}")
    m = depth - 1
    if pool_mode == "full":
        pool = range(m)
    elif pool_mode == "no_parent":
        pool = range(max(m - 1, 1)) if m > 1 else range(1)
    else:
        raise DomainError(f"unknown pool mode {pool_mode!r}")
    K = SplitChain(2 ** m)
    b = _Builder()
    prev: list[int] = []
    for lvl in range(m + 1):
        cur = []
        span = 2 ** (m - lvl)
        for idx in range(2 ** lvl):
            iv = ClosedInterval((idx * span, 0), ((idx + 1) * span - 1, 1))
            parent = prev[idx // 2] if prev else None
            cur.append(b.add(parent, lvl, iv))
        prev = cur
    return b.staged(m, pool, space=K)


def gen_broom(seed) -> StagedTree:
    """A unary spine ending in a bundle of pendant paths: the bundle
    shares every pool ancestor, so simplicity hinges on counting."""
    rng = rng_of(seed)
    stem = rng.randint(1, 3)
    bundle = rng.randint(2, 5)
    drop = rng.randint(1, 2)
    m = stem + drop
    width = bundle * 3 + 2
    K = FiniteChain(width)
    b = _Builder()
    cur = None
    for lvl in range(stem):
        cur = b.add(cur, lvl, ClosedInterval(0, width - 1 - lvl))
    fork = cur
    for k in range(bundle):
        cur = fork
        for lvl in range(stem, m + 1):
            iv = ClosedInterval(3 * k, 3 * k + 2 - (1 if lvl == m else 0))
            cur = b.add(cur, lvl, iv)
    pool_size = rng.randint(1, m)
    pool = sorted(rng.sample(range(m), pool_size))
    return b.staged(m, pool, space=K)


def gen_sibling_tops(seed) -> StagedTree:
    """Two top nodes sharing their parent, with every pool level at
    least two below the top: simple, but provably without room for
    disjoint segments."""
    rng = rng_of(seed)
    m = rng.randint(3, 6)
    hi = m + 3
    K = FiniteChain(hi + 1)
    b = _Builder()
    cur = None
    for lvl in range(m):
        cur = b.add(cur, lvl, ClosedInterval(0, hi - lvl))
    top_span = hi - (m - 1)
    s = top_span // 2
    b.add(cur, m, ClosedInterval(0, s))
    b.add(cur, m, ClosedInterval(s, hi - (m - 1)))
    pool_size = rng.randint(2, m - 1)
    pool = sorted(rng.sample(range(m - 1), pool_size))
    return b.staged(m, pool, space=K)


def gen_random_staged(seed, max_nodes: int = 18) -> StagedTree:
    """A small random stage without payload, for oracle comparisons."""
    rng = rng_of(seed)
    m = rng.randint(1, 4)
    b = _Builder()
    frontier = [b.add(None, 0)]
    total = 1
    top = 0
    for lvl in range(1, m + 1):
        nxt = []
        for i, node in enumerate(frontier):
            want = rng.choices([0, 1, 2, 3], weights=[2, 4, 3, 1])[0]
            if i == len(frontier) - 1 and not nxt and want == 0:
                want = 1  # keep one branch alive to the top
            while want > 0 and total < max_nodes:
                nxt.append(b.add(node, lvl))
                total += 1
                want -= 1
        if not nxt:
            break  # node cap hit; the stage ends at the last filled level
        frontier = nxt
        top = lvl
    if top == 0:
        return b.staged(0, [], limit_top=False)
    pool_size = rng.randint(1, top)
    pool = sorted(rng.sample(range(top), pool_size))
    return b.staged(top, pool)


def gen_two_comb(seed):
    """A root over two payload combs, for union and composition.

    Returns (staged, parts, level_assignment) where parts pairs each
    comb's top nodes with an explicit tooth-level witness. Deep pool
    levels start above every tooth departure, so fibre images are
    uniform and the composition has guaranteed headroom.
    """
    rng = rng_of(seed)
    t_a = rng.randint(3, 5)
    t_b = rng.randint(3, 5)
    extra = rng.randint(1, 2)
    t_max = max(t_a, t_b)
    dmin = t_max + 2
    m = dmin + 2 + extra
    width = m + 2
    total = (t_a + t_b) * width
    K = FiniteChain(total)
    b = _Builder()
    root = b.add(None, 0, ClosedInterval(0, total - 1))
    _add_comb(b, root, 1, t_a, 0, t_a * width - 1, width, m)
    _add_comb(b, root, 1, t_b, t_a * width, total - 1, width, m)
    pool = {1, 2} | set(range(dmin, m))
    st = b.staged(m, pool, space=K)

    # builder ids were renumbered; recover tips by payload position
    tops = st.tops()
    tops.sort(key=lambda i: st.payload[i].lo)
    tips_a = tops[:t_a]
    tips_b = tops[t_a:]

    def tooth_witness(tips):
        return RegressiveMap({x: st.ancestor_at(x, dmin) for x in tips})

    parts = [
        (frozenset(tips_a), tooth_witness(tips_a)),
        (frozenset(tips_b), tooth_witness(tips_b)),
    ]
    return st, parts, {0: 1, 1: 2}
