"""Simplicity of top-level node sets and regressive-map constructions.

A node set H at the top of a staged tree is *simple* when an injective
map exists sending each member to one of its ancestors at a pool level.
A greedy pass up the tree decides this, because each member's
candidates lie on one root path; the refutation is a counted Hall
violator. On top of simplicity sit the constructions: cofinal
transfer to another pool, fibrewise composition with explicit room
bounds, pairwise disjoint branch segments, payload-bounded maps, and
the window classification of endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import space as sp
from .errors import (
    DomainError,
    InternalInconsistency,
    NoRoom,
    NoSubsequence,
    NotSimpleError,
    read_digits,
    read_int,
    read_kind,
    read_object,
)
from .ptree import StagedTree


@dataclass(frozen=True)
class RegressiveMap:
    """Map from nodes to strict ancestors at pool levels. Immutable by
    convention; `mapping` is ordered by key."""

    mapping: dict[int, int]

    def __post_init__(self):
        object.__setattr__(self, "mapping", dict(sorted(self.mapping.items())))

    def __len__(self):
        return len(self.mapping)

    def __getitem__(self, x: int) -> int:
        return self.mapping[x]


@dataclass(frozen=True)
class HallViolator:
    members: frozenset[int]
    neighborhood: frozenset[int]


def _check_node_set(st: StagedTree, members) -> list[int]:
    out = sorted(set(members))
    tops = set(st.tops())
    for x in out:
        if x not in tops:
            raise DomainError(f"node {x} is not at the top level {st.top_level}")
    return out


def pool_ancestors(st: StagedTree, x: int) -> list[int]:
    """Ancestors of x at pool levels, shallowest first, from one walk up
    the parent links."""
    out = []
    v = st.parent[x]
    while v is not None:
        if st.level[v] in st.pool:
            out.append(v)
        v = st.parent[v]
    out.reverse()
    return out


def is_simple(st: StagedTree, members) -> RegressiveMap | HallViolator:
    """Decide simplicity in one pass from the top level to the root.

    A member's candidates are its pool ancestors, one root path, so the
    candidate sets nest along the tree and a greedy matching is maximum:
    carry the members up a level at a time, and let each node at a pool
    level take the largest id carried up to it. Members carried to the
    same node have the same candidates left, so the choice never costs a
    match. A witness then moves each member, in id order, to its
    shallowest free pool ancestor, so it leaves headroom above itself.
    The answer is that regressive map, or a Hall violator W with its
    exact neighborhood; tell them apart by type, since an empty map is
    falsy.
    """
    lefts = _check_node_set(st, members)
    match: dict[int, int] = {}  # member -> pool node
    owner: dict[int, int] = {}  # pool node -> member
    carried = {x: [x] for x in lefts}  # node -> the unmatched members in its subtree
    for lvl in range(st.top_level - 1, -1, -1):
        up: dict[int, list[int]] = {}
        for v, xs in carried.items():
            up.setdefault(st.parent[v], []).extend(xs)
        if lvl in st.pool:
            for v, xs in up.items():
                x = max(xs)
                xs.remove(x)
                match[x], owner[v] = v, x
        carried = {v: xs for v, xs in up.items() if xs}
    unmatched = [x for x in lefts if x not in match]
    if not unmatched:
        for x in lefts:
            a = v = match[x]
            while (v := st.parent[v]) is not None:
                if st.level[v] in st.pool and v not in owner:
                    a = v
            if a != match[x]:
                del owner[match[x]]
                match[x], owner[a] = a, x
        return RegressiveMap(match)

    # alternating reachability from the unmatched members: every pool
    # node above a member of W is matched, and its partner joins W
    w_set = set(unmatched)
    marked: set[int] = set()
    todo = list(unmatched)
    while todo:
        v = st.parent[todo.pop()]
        while v is not None and v not in marked:
            marked.add(v)
            if v in owner:
                w_set.add(owner[v])
                todo.append(owner[v])
            v = st.parent[v]
    n_set = {v for v in marked if st.level[v] in st.pool}
    if len(n_set) >= len(w_set):
        raise InternalInconsistency("violator extraction produced no deficiency")
    return HallViolator(frozenset(w_set), frozenset(n_set))


def verify_simple_witness(st: StagedTree, members, rm: RegressiveMap) -> list[str]:
    """All the ways rm fails to witness simplicity of the member set."""
    problems = []
    members = sorted(set(members))
    if sorted(rm.mapping) != members:
        problems.append("domain does not equal the member set")
    seen: dict[int, int] = {}
    for x, a in rm.mapping.items():
        if a not in st.parent:
            problems.append(f"{x} maps to unknown node {a}")
            continue
        if st.level[a] not in st.pool:
            problems.append(f"{x} maps to level {st.level[a]}, not a pool level")
        if st.level[a] >= st.level.get(x, -1) or st.ancestor_at(x, st.level[a]) != a:
            problems.append(f"{a} is not a strict ancestor of {x}")
        if a in seen:
            problems.append(f"nodes {seen[a]} and {x} share the image {a}")
        seen[a] = x
    return problems


def verify_hall_violator(st: StagedTree, members, hv: HallViolator) -> list[str]:
    problems = []
    members = set(members)
    if not hv.members <= members:
        problems.append("violator is not a subset of the member set")
    expected = set()
    for x in hv.members:
        if x in st.parent:
            expected.update(pool_ancestors(st, x))
    if expected != set(hv.neighborhood):
        problems.append("stated neighborhood is not the exact pool-ancestor set")
    if len(hv.neighborhood) >= len(hv.members):
        problems.append("no counting deficiency")
    return problems


def transfer_cofinal(st: StagedTree, rm: RegressiveMap, target_levels) -> RegressiveMap:
    """Push a regressive map onto another level set, never downward.

    Each used source level pairs greedily with the smallest unused
    target at or above it; images are re-read on the same branches.
    Raises NoSubsequence when some source level cannot be paired.
    """
    targets = sorted(set(target_levels))
    for lvl in targets:
        if not isinstance(lvl, int) or isinstance(lvl, bool) or not 0 <= lvl < st.top_level:
            raise DomainError(f"target level {lvl!r} outside 0..{st.top_level - 1}")
    used_sources = sorted({st.level[a] for a in rm.mapping.values()})
    taken: set[int] = set()
    pair: dict[int, int] = {}
    for src in used_sources:
        pick = next((t for t in targets if t >= src and t not in taken), None)
        if pick is None:
            raise NoSubsequence(src)
        taken.add(pick)
        pair[src] = pick
    out = {x: st.ancestor_at(x, pair[st.level[a]]) for x, a in rm.mapping.items()}
    if len(set(rm.mapping.values())) == len(rm.mapping) and len(set(out.values())) != len(out):
        raise InternalInconsistency("cofinal transfer broke injectivity")
    return RegressiveMap(out)


def segments(st: StagedTree, rm: RegressiveMap) -> dict[int, tuple[int, ...]]:
    """Closed branch segments [rm(x), x], as node tuples."""
    return {x: st.branch_segment(x, st.level[a]) for x, a in rm.mapping.items()}


def verify_disjoint_segments(st: StagedTree, rm: RegressiveMap) -> list[tuple[int, int]]:
    """Pairs of domain nodes whose segments share a node."""
    segs = {x: set(seg) for x, seg in segments(st, rm).items()}
    keys = sorted(segs)
    bad = []
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            if segs[keys[i]] & segs[keys[j]]:
                bad.append((keys[i], keys[j]))
    return bad


def compose_fibrewise(
    st: StagedTree, pi: RegressiveMap, fibre_maps: dict[int, RegressiveMap]
) -> RegressiveMap:
    """Combine a regressive map with per-fibre maps into one whose closed
    segments are pairwise disjoint.

    Fibre maps are first lifted cofinally into pool levels at or above
    their fibre's image, so nobody points above its own coarse image.
    For each x the construction finds the deepest meet with any member
    whose lifted image sits no deeper than x's (other classes only) and
    steps strictly below both that meet and x's own lifted image; a
    missing pool level there raises NoRoom with the exact bound.
    """
    domain = _check_node_set(st, pi.mapping.keys())
    problems = verify_simple_witness(st, domain, pi)
    problems = [p for p in problems if "share the image" not in p]  # pi need not be injective
    if problems:
        raise DomainError("bad coarse map: " + "; ".join(problems))

    fibres: dict[int, list[int]] = {}
    for x in domain:
        fibres.setdefault(pi[x], []).append(x)
    if set(fibre_maps) != set(fibres):
        raise DomainError("fibre map keys must be exactly the coarse images")

    lifted: dict[int, int] = {}
    for w, members in sorted(fibres.items()):
        fm = fibre_maps[w]
        if sorted(fm.mapping) != members:
            raise DomainError(f"fibre map at {w} is not defined on exactly the fibre")
        if len(set(fm.mapping.values())) != len(fm.mapping):
            raise DomainError(f"fibre map at {w} is not injective")
        bad = verify_simple_witness(st, members, fm)
        if bad:
            raise DomainError(f"bad fibre map at {w}: " + "; ".join(bad))
        allowed = [lvl for lvl in sorted(st.pool) if lvl >= st.level[w]]
        try:
            fm2 = transfer_cofinal(st, fm, allowed)
        except NoSubsequence as e:
            raise NoRoom(w, st.level[w], "no pool levels above the fibre image for a cofinal lift") from e
        lifted.update(fm2.mapping)

    if len(domain) == 1:
        return RegressiveMap(lifted)  # nothing to separate from

    pool_sorted = sorted(st.pool)
    fine_level = {x: st.level[lifted[x]] for x in domain}
    coarse_level = {x: st.level[pi[x]] for x in domain}

    sigma: dict[int, int] = {}
    for x in domain:
        bound = fine_level[x]
        for y in domain:
            if y == x:
                continue
            if fine_level[y] > fine_level[x]:
                continue
            if (coarse_level[y], fine_level[y]) == (coarse_level[x], fine_level[x]):
                continue
            meet_lvl = st.level[st.meet(x, y)]
            if meet_lvl >= fine_level[y] and meet_lvl > bound:
                bound = meet_lvl
        lvl = next((l for l in pool_sorted if l > bound), None)
        if lvl is None:
            raise NoRoom(x, bound)
        sigma[x] = st.ancestor_at(x, lvl)

    out = RegressiveMap(sigma)
    clash = verify_disjoint_segments(st, out)
    if clash:
        raise InternalInconsistency(f"composed segments intersect: {clash[:4]}")
    return out


def disjoint_intervals(st: StagedTree, members) -> RegressiveMap:
    """A regressive map on a simple set whose closed segments are
    pairwise disjoint. Raises NotSimpleError with the Hall violator,
    or NoRoom when `compose_fibrewise`'s strict level bound finds no
    pool level above some member's bound. That bound is sufficient,
    not necessary: NoRoom can come on stages where such a map exists
    (e.g. `gen_broom(1)`)."""
    members = _check_node_set(st, members)
    pi = is_simple(st, members)
    if isinstance(pi, HallViolator):
        raise NotSimpleError(pi, level=st.top_level)
    fibre_maps = {pi[x]: RegressiveMap({x: pi[x]}) for x in members}
    return compose_fibrewise(st, pi, fibre_maps)


def union_simple(st: StagedTree, parts, level_assignment: dict[int, int]) -> RegressiveMap:
    """Witness simplicity of a disjoint union of simple parts.

    Each part is (members, witness); level_assignment sends part index
    to a distinct pool level whose branchwise ancestors become the
    coarse images. The part witnesses survive as fibre maps.
    """
    parts = list(parts)
    if sorted(level_assignment) != list(range(len(parts))):
        raise DomainError("level assignment must cover the part indices exactly")
    levels = list(level_assignment.values())
    if len(set(levels)) != len(levels):
        raise DomainError("level assignment must be injective")
    for lvl in levels:
        if lvl not in st.pool:
            raise DomainError(f"assigned level {lvl} is not in the pool")
    seen: set[int] = set()
    for k, (members, wit) in enumerate(parts):
        ms = _check_node_set(st, members)
        if seen & set(ms):
            raise DomainError("parts are not disjoint")
        seen.update(ms)
        bad = verify_simple_witness(st, ms, wit)
        if bad:
            raise DomainError(f"part {k} witness invalid: " + "; ".join(bad))

    pi: dict[int, int] = {}
    owner: dict[int, int] = {}
    for k, (members, _) in enumerate(parts):
        for x in sorted(set(members)):
            pi[x] = st.ancestor_at(x, level_assignment[k])
            owner[x] = k
    fibres: dict[int, list[int]] = {}
    for x in sorted(pi):
        fibres.setdefault(pi[x], []).append(x)
    for w, xs in fibres.items():
        if len({owner[x] for x in xs}) != 1:
            raise InternalInconsistency(f"fibre of {w} mixes parts")
    fibre_maps = {
        w: RegressiveMap({x: parts[owner[xs[0]]][1][x] for x in xs}) for w, xs in fibres.items()
    }
    return compose_fibrewise(st, RegressiveMap(pi), fibre_maps)


@dataclass(frozen=True)
class BoundCertificate:
    image: int
    bound_member: int
    kind: str  # "strict" | "trivial"


@dataclass(frozen=True)
class BoundedRegressive:
    map: RegressiveMap
    certificates: dict[int, BoundCertificate]


def bounded_regressive(st: StagedTree, members) -> BoundedRegressive:
    """A regressive map whose fibres are bounded by a single member.

    The member with the greatest payload minimum anchors the bounds.
    Members entirely to its left step to the shallowest pool ancestor
    whose payload still clears that minimum; the rest take their
    deepest pool ancestor. One certificate per fibre records which case
    applied, and is checked before returning.
    """
    if st.payload is None or st.space is None:
        raise DomainError("bounded maps need payload intervals")
    members = _check_node_set(st, members)
    if not members:
        return BoundedRegressive(RegressiveMap({}), {})
    lo, hi = st.payload_keys

    b_star = members[0]
    for b in members[1:]:
        if lo[b] > lo[b_star]:
            b_star = b
    anchor = lo[b_star]

    mapping: dict[int, int] = {}
    strict: set[int] = set()
    for a in members:
        cands = pool_ancestors(st, a)
        if not cands:
            raise NoRoom(a, None, "empty pool on this branch")
        if hi[a] < anchor:
            pick = next((c for c in cands if hi[c] < anchor), None)
            if pick is None:
                raise NoRoom(a, None, "no pool ancestor stays below the anchor minimum")
            mapping[a] = pick
            strict.add(a)
        else:
            mapping[a] = cands[-1]

    certificates: dict[int, BoundCertificate] = {}
    fibres: dict[int, list[int]] = {}
    for a in members:
        fibres.setdefault(mapping[a], []).append(a)
    for w, xs in sorted(fibres.items()):
        if any(x in strict for x in xs):
            cert = BoundCertificate(w, b_star, "strict")
            if not hi[w] < anchor:
                raise InternalInconsistency(f"strict certificate at {w} fails its bound")
        else:
            cert = BoundCertificate(w, b_star, "trivial")
            if any(lo[x] > anchor for x in xs):
                raise InternalInconsistency(f"trivial certificate at {w} fails its bound")
        certificates[w] = cert
    return BoundedRegressive(RegressiveMap(mapping), certificates)


def verify_bound_certificates(st: StagedTree, br: BoundedRegressive) -> list[str]:
    problems = []
    fibres: dict[int, list[int]] = {}
    for a, w in br.map.mapping.items():
        fibres.setdefault(w, []).append(a)
    if set(fibres) != set(br.certificates):
        problems.append("certificates do not cover exactly the fibre images")
        return problems
    lo, hi = st.payload_keys
    for w, cert in br.certificates.items():
        b = cert.bound_member
        bmin = lo[b]
        if cert.kind == "strict":
            if not hi[w] < bmin:
                problems.append(f"strict fibre at {w} does not stay below min of {b}")
        elif cert.kind == "trivial":
            for a in fibres[w]:
                if lo[a] > bmin:
                    problems.append(f"member {a} of trivial fibre at {w} exceeds min of {b}")
        else:
            problems.append(f"unknown certificate kind {cert.kind!r}")
    return problems


def _simple(st: StagedTree, members) -> bool:
    return isinstance(is_simple(st, members), RegressiveMap)


def endpoint_LR(st: StagedTree, members):
    """Classify members by one-sided escapes.

    A member lands in L when some pool-level strict ancestor starts
    late enough that everything packed between the point just before
    that start and the member's own minimum forms a simple set; R is
    the mirror image on the right. Members in neither are candidates
    for two-sided condensation.
    """
    if st.payload is None or st.space is None:
        raise DomainError("endpoint classification needs payload intervals")
    K = st.space
    if not sp.is_finite_space(K):
        raise DomainError("endpoint classification enumerates the space; it must be finite")
    members = _check_node_set(st, members)
    keys = [K.key(p) for p in sp.enumerate_points(K)]
    index = {k: i for i, k in enumerate(keys)}
    lo, hi = st.payload_keys
    left: set[int] = set()
    right: set[int] = set()
    for b in members:
        for anc in pool_ancestors(st, b):
            if index[lo[anc]] > 0:
                x = keys[index[lo[anc]] - 1]
                window = frozenset(a for a in members if lo[a] > x and hi[a] <= lo[b])
                if _simple(st, window):
                    left.add(b)
                    break
        for anc in pool_ancestors(st, b):
            if index[hi[anc]] < len(keys) - 1:
                window = frozenset(a for a in members if lo[a] >= hi[b] and hi[a] <= hi[anc])
                if _simple(st, window):
                    right.add(b)
                    break
    return frozenset(left), frozenset(right)


@dataclass(frozen=True)
class CoreCheck:
    member: int
    cut: str
    side: str
    window_size: int
    window_simple: bool


@dataclass(frozen=True)
class CoreResult:
    core: frozenset[int]
    left: frozenset[int]
    right: frozenset[int]
    whole_simple: bool
    checks: tuple[CoreCheck, ...]

    @property
    def ok(self) -> bool:
        return self.whole_simple or all(not c.window_simple for c in self.checks)


def condensation_core(st: StagedTree, members) -> CoreResult:
    """Members escaping on neither side, with two-sided window evidence.

    When the whole set is not simple, every core member pinched between
    materialized points on both sides must see a non-simple core window
    on each side; the checks record exactly that, for every cut.
    """
    members = _check_node_set(st, members)
    left, right = endpoint_LR(st, members)
    core = frozenset(members) - left - right
    whole_simple = _simple(st, frozenset(members))
    K = st.space
    keyed = [(K.key(p), p) for p in sp.enumerate_points(K)]
    lo, hi = st.payload_keys
    checks: list[CoreCheck] = []
    if not whole_simple:
        for c in sorted(core):
            xs = [(k, p) for k, p in keyed if k < lo[c]]
            ys = [(k, p) for k, p in keyed if k > hi[c]]
            if not xs or not ys:
                continue  # pinched against the boundary: vacuous
            for xk, x in xs:
                window = frozenset(a for a in core if lo[a] > xk and hi[a] <= lo[c])
                checks.append(
                    CoreCheck(c, sp.render_point(K, x), "left", len(window), _simple(st, window))
                )
            for yk, y in ys:
                window = frozenset(a for a in core if lo[a] >= hi[c] and hi[a] <= yk)
                checks.append(
                    CoreCheck(c, sp.render_point(K, y), "right", len(window), _simple(st, window))
                )
    return CoreResult(core, left, right, whole_simple, tuple(checks))


# -- serialization -------------------------------------------------------------


def witness_to_json(rm: RegressiveMap) -> dict:
    return {"v": 1, "kind": "regressive-map", "map": {str(x): a for x, a in rm.mapping.items()}}


def witness_from_json(doc) -> RegressiveMap:
    images = read_object(read_kind(doc, "regressive-map", "map")["map"], "map")
    return RegressiveMap({read_digits(str(x), "map key"):
                          read_int(a, f"image of {x}") for x, a in images.items()})


def violator_to_json(hv: HallViolator) -> dict:
    return {"members": sorted(hv.members), "neighborhood": sorted(hv.neighborhood)}


def decision_to_json(decision: RegressiveMap | HallViolator) -> dict:
    if isinstance(decision, RegressiveMap):
        return {"v": 1, "kind": "simplicity", "simple": True, "witness": witness_to_json(decision)}
    return {"v": 1, "kind": "simplicity", "simple": False, "violator": violator_to_json(decision)}
