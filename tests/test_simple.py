"""Simplicity decisions, regressive-map surgery, and endpoint classes.

Every positive certificate is revalidated literally, every negative one
is cross-checked against the blunt search in bruteforce.
"""

import sys
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ordfrag import bruteforce as bf
from ordfrag import generators as gen
from ordfrag import simple
from ordfrag import space as sp
from ordfrag.errors import (
    DomainError,
    InternalInconsistency,
    NoRoom,
    NoSubsequence,
    NotSimpleError,
)
from ordfrag.simple import (
    BoundCertificate,
    BoundedRegressive,
    HallViolator,
    RegressiveMap,
    bounded_regressive,
    compose_fibrewise,
    condensation_core,
    decision_to_json,
    disjoint_intervals,
    endpoint_LR,
    is_simple,
    pool_ancestors,
    segments,
    transfer_cofinal,
    union_simple,
    verify_bound_certificates,
    verify_disjoint_segments,
    verify_hall_violator,
    verify_simple_witness,
    witness_from_json,
    witness_to_json,
)


def root_of(st):
    """The node of the stage whose parent is None."""
    return next(i for i, up in st.parent.items() if up is None)


def tips_by_position(st):
    """Top nodes sorted by payload minimum."""
    tops = st.tops()
    tops.sort(key=lambda i: sp.point_key(st.space, st.payload[i].lo))
    return tops


def sdr_simple(st, group):
    return bf.exhaustive_sdr(st, group) is not None


def hopcroft_karp(st, members):
    """Simplicity by Hopcroft-Karp on the member/pool-ancestor graph, with
    shallowest-first adjacency: the general matching `is_simple` used
    before the tree greedy, kept as the differential reference."""
    lefts = sorted(set(members))
    adj = {x: pool_ancestors(st, x) for x in lefts}
    match_l = {x: None for x in lefts}
    match_r = {}

    def bfs():
        dist = {u: 0 for u in lefts if match_l[u] is None}
        q = deque(dist)
        reachable_free = False
        while q:
            u = q.popleft()
            for v in adj[u]:
                w = match_r.get(v)
                if w is None:
                    reachable_free = True
                elif w not in dist:
                    dist[w] = dist[u] + 1
                    q.append(w)
        return reachable_free, dist

    def dfs(u, dist):
        for v in adj[u]:
            w = match_r.get(v)
            if w is None or (dist.get(w) == dist[u] + 1 and dfs(w, dist)):
                match_l[u] = v
                match_r[v] = u
                return True
        dist[u] = -1
        return False

    while True:
        progress, dist = bfs()
        if not progress:
            break
        for u in lefts:
            if match_l[u] is None:
                dfs(u, dist)

    unmatched = [u for u in lefts if match_l[u] is None]
    if not unmatched:
        return RegressiveMap(match_l)
    w_set, n_set = set(unmatched), set()
    q = deque(unmatched)
    while q:
        u = q.popleft()
        for v in adj[u]:
            if v not in n_set:
                n_set.add(v)
                partner = match_r.get(v)
                if partner is not None and partner not in w_set:
                    w_set.add(partner)
                    q.append(partner)
    return HallViolator(frozenset(w_set), frozenset(n_set))


def unlifted(st, rm):
    """Members with a pool ancestor below their image that no member uses."""
    used = set(rm.mapping.values())
    return [x for x, a in rm.mapping.items()
            if any(b not in used and st.level[b] < st.level[a] for b in pool_ancestors(st, x))]


def spine_stage(top, tops, pool):
    """A unary spine of levels 0..top-1 with `tops` leaves at the top."""
    b = gen._Builder()
    cur = None
    for lvl in range(top):
        cur = b.add(cur, lvl)
    for _ in range(tops):
        b.add(cur, top)
    return b.staged(top, pool)


stages = hst.one_of(
    hst.builds(gen.gen_random_staged, hst.integers(0, 10_000)),
    hst.builds(gen.gen_broom, hst.integers(0, 10_000)),
    hst.builds(gen.gen_sibling_tops, hst.integers(0, 10_000)),
    hst.builds(gen.gen_comb, hst.integers(0, 10_000)),
)


def three_blocks():
    # one root over three payload blocks, a single pool node
    b = gen._Builder()
    root = b.add(None, 0, sp.ClosedInterval(0, 5))
    for k in range(3):
        b.add(root, 1, sp.ClosedInterval(2 * k, 2 * k + 1))
    return b.staged(1, [0], space=sp.FiniteChain(6))


class TestPoolAncestors:
    @pytest.mark.parametrize("make", [gen.gen_random_staged, gen.gen_broom,
                                      gen.gen_sibling_tops, gen.gen_comb])
    def test_one_walk_gives_the_per_level_definition(self, make):
        for seed in range(40):
            st = make(seed)
            for x in st.nodes():
                assert pool_ancestors(st, x) == bf._pool_ancestors(st, x), (seed, x)

    def test_one_walk_on_a_deep_spine(self):
        st = spine_stage(3000, 5, range(0, 3000, 2))
        for x in st.tops():
            assert pool_ancestors(st, x) == bf._pool_ancestors(st, x)


class TestIsSimple:
    def test_full_binary_counting_deficit(self):
        st = gen.gen_split_miniature(4, pool_mode="full")
        out = is_simple(st, frozenset(st.tops()))
        assert isinstance(out, HallViolator)
        # 8 tips against 1 + 2 + 4 pooled nodes
        assert len(out.members) == 8
        assert len(out.neighborhood) == 7
        assert verify_hall_violator(st, st.tops(), out) == []

    def test_alternate_tips_are_simple(self):
        st = gen.gen_split_miniature(4, pool_mode="full")
        chosen = frozenset(tips_by_position(st)[::2])
        out = is_simple(st, chosen)
        assert isinstance(out, RegressiveMap)
        assert verify_simple_witness(st, chosen, out) == []

    def test_empty_member_set(self):
        st = gen.gen_split_miniature(3, pool_mode="full")
        out = is_simple(st, frozenset())
        assert isinstance(out, RegressiveMap) and len(out) == 0

    def test_members_must_sit_at_the_top(self):
        st = gen.gen_split_miniature(3, pool_mode="full")
        root = root_of(st)
        with pytest.raises(DomainError):
            is_simple(st, {root})

    def test_witness_keeps_headroom_on_combs(self):
        # adjacency is shallowest-first, so private candidates resolve low
        st = gen.gen_comb(11, teeth=4, room=3)
        out = is_simple(st, frozenset(st.tops()))
        assert isinstance(out, RegressiveMap)
        lvls = {st.level[a] for a in out.mapping.values()}
        assert lvls == {min(st.pool)}

    def test_agrees_with_exhaustive_search(self):
        for seed in range(400):
            st = gen.gen_random_staged(seed)
            members = frozenset(st.tops())
            got = is_simple(st, members)
            want = bf.exhaustive_sdr(st, members)
            assert isinstance(got, RegressiveMap) == (want is not None), seed
            if isinstance(got, RegressiveMap):
                assert verify_simple_witness(st, members, got) == []
            else:
                assert verify_hall_violator(st, members, got) == []

    def test_agrees_on_brooms(self):
        for seed in range(80):
            st = gen.gen_broom(seed)
            members = frozenset(st.tops())
            got = is_simple(st, members)
            assert isinstance(got, RegressiveMap) == sdr_simple(st, members), seed

    @given(hst.integers(min_value=0, max_value=10_000), hst.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_subsets_of_simple_sets_stay_simple(self, seed, rnd):
        st = gen.gen_random_staged(seed)
        members = sorted(st.tops())
        if not isinstance(is_simple(st, members), RegressiveMap):
            return
        sub = frozenset(x for x in members if rnd.random() < 0.5)
        assert isinstance(is_simple(st, sub), RegressiveMap)


    @given(stage=stages, rnd=hst.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_hopcroft_karp(self, stage, rnd):
        # the decision and the violator are the same for every maximum
        # matching; the witness may differ but must verify and be lifted
        tops = stage.tops()
        for members in (tops, [x for x in tops if rnd.random() < 0.5]):
            got, want = is_simple(stage, members), hopcroft_karp(stage, members)
            assert type(got) is type(want)
            if isinstance(got, HallViolator):
                assert got == want
            else:
                assert verify_simple_witness(stage, members, got) == []
                assert unlifted(stage, got) == []

    def test_answers_above_the_recursion_limit(self):
        top = 3000
        assert top > sys.getrecursionlimit()
        st = spine_stage(top, 5, range(0, top, 2))
        out = is_simple(st, st.tops())
        assert isinstance(out, RegressiveMap)
        assert verify_simple_witness(st, st.tops(), out) == []
        assert sorted(st.level[a] for a in out.mapping.values()) == [0, 2, 4, 6, 8]

        st = spine_stage(top, 5, range(top - 6, top, 2))
        out = is_simple(st, st.tops())
        assert isinstance(out, HallViolator)
        assert verify_hall_violator(st, st.tops(), out) == []
        assert out.members == frozenset(st.tops())


class TestWitnessVerifiers:
    def simple_case(self):
        st = gen.gen_split_miniature(4)  # pool {0, 1}
        chosen = tips_by_position(st)[::3]  # positions 0, 3, 6 span both halves
        out = is_simple(st, chosen)
        assert isinstance(out, RegressiveMap)
        return st, chosen, out

    def test_accepts_the_real_witness(self):
        st, chosen, wit = self.simple_case()
        assert verify_simple_witness(st, chosen, wit) == []

    def test_flags_wrong_domain(self):
        st, chosen, wit = self.simple_case()
        trimmed = RegressiveMap({x: a for x, a in list(wit.mapping.items())[:-1]})
        assert any("domain" in p for p in verify_simple_witness(st, chosen, trimmed))

    def test_flags_non_pool_level(self):
        st, chosen, wit = self.simple_case()
        x = chosen[0]
        deep = st.ancestor_at(x, 2)  # level 2 exists but is not pooled
        bad = RegressiveMap({**wit.mapping, x: deep})
        assert any("not a pool level" in p for p in verify_simple_witness(st, chosen, bad))

    def test_flags_shared_image(self):
        st, chosen, wit = self.simple_case()
        root = root_of(st)
        bad = RegressiveMap({x: root for x in chosen})
        assert any("share the image" in p for p in verify_simple_witness(st, chosen, bad))

    def test_flags_non_ancestor(self):
        st, chosen, wit = self.simple_case()
        x, y = chosen[0], chosen[-1]
        stranger = st.ancestor_at(y, 1)
        assert stranger != st.ancestor_at(x, 1)
        bad = RegressiveMap({**wit.mapping, x: stranger})
        assert any("not a strict ancestor" in p for p in verify_simple_witness(st, chosen, bad))

    def test_flags_unknown_node(self):
        st, chosen, wit = self.simple_case()
        bad = RegressiveMap({**wit.mapping, chosen[0]: 10_000})
        assert any("unknown node" in p for p in verify_simple_witness(st, chosen, bad))

    def test_violator_must_be_subset_with_exact_neighborhood(self):
        st = gen.gen_split_miniature(4, pool_mode="full")
        hv = is_simple(st, frozenset(st.tops()))
        off_members = HallViolator(hv.members | {10_000}, hv.neighborhood)
        assert any("subset" in p for p in verify_hall_violator(st, st.tops(), off_members))
        padded = HallViolator(hv.members, hv.neighborhood | {10_000})
        assert any("neighborhood" in p for p in verify_hall_violator(st, st.tops(), padded))

    def test_violator_needs_a_deficit(self):
        st = gen.gen_split_miniature(4)
        chosen = tips_by_position(st)[:2]
        hv = HallViolator(
            frozenset(chosen),
            frozenset().union(*(pool_ancestors(st, x) for x in chosen)),
        )
        assert any("deficiency" in p for p in verify_hall_violator(st, chosen, hv))


class TestTransferCofinal:
    def test_identity_on_the_same_levels(self):
        st = gen.gen_comb(2, teeth=3, room=3)
        wit = is_simple(st, frozenset(st.tops()))
        again = transfer_cofinal(st, wit, sorted({st.level[a] for a in wit.mapping.values()}))
        assert again.mapping == wit.mapping

    def test_shift_up_one_level(self):
        st = gen.gen_comb(2, teeth=3, room=3)
        t = min(st.pool)
        wit = is_simple(st, frozenset(st.tops()))
        moved = transfer_cofinal(st, wit, [t + 1])
        for x, a in moved.mapping.items():
            assert st.level[a] == t + 1
            assert st.ancestor_at(x, t + 1) == a
        assert verify_simple_witness(st, sorted(wit.mapping), moved) == []

    def test_two_source_levels_pair_in_order(self):
        st = gen.gen_comb(5, teeth=3, room=3)
        t = min(st.pool)
        tips = tips_by_position(st)
        rm = RegressiveMap(
            {
                tips[0]: st.ancestor_at(tips[0], t),
                tips[1]: st.ancestor_at(tips[1], t + 1),
                tips[2]: st.ancestor_at(tips[2], t),
            }
        )
        moved = transfer_cofinal(st, rm, [t + 1, t + 2])
        assert st.level[moved[tips[0]]] == t + 1
        assert st.level[moved[tips[1]]] == t + 2
        assert st.level[moved[tips[2]]] == t + 1

    def test_no_target_at_or_above_a_source(self):
        st = gen.gen_comb(2, teeth=3, room=3)
        t = min(st.pool)
        wit = is_simple(st, frozenset(st.tops()))
        with pytest.raises(NoSubsequence):
            transfer_cofinal(st, wit, [0])
        with pytest.raises(NoSubsequence) as exc:
            transfer_cofinal(st, wit, list(range(t)))
        assert exc.value.source_level == t

    def test_rejects_levels_outside_the_stage(self):
        st = gen.gen_comb(2, teeth=3, room=3)
        wit = is_simple(st, frozenset(st.tops()))
        for levels in ([st.top_level], [-1], [True]):
            with pytest.raises(DomainError):
                transfer_cofinal(st, wit, levels)


class TestDisjointIntervals:
    def test_combs_always_have_room(self):
        for seed in range(40):
            st = gen.gen_comb(seed)
            rm = disjoint_intervals(st, frozenset(st.tops()))
            assert verify_disjoint_segments(st, rm) == []
            # every segment starts strictly above the matching level
            assert all(st.level[a] > min(st.pool) for a in rm.mapping.values())

    def test_segments_cover_their_own_branch_only(self):
        st = gen.gen_comb(9, teeth=4, room=2)
        rm = disjoint_intervals(st, frozenset(st.tops()))
        for x, seg in segments(st, rm).items():
            assert seg[0] == rm[x] and seg[-1] == x
            assert [st.level[v] for v in seg] == list(range(st.level[rm[x]], st.top_level + 1))

    def test_exhaustive_search_agrees_on_small_combs(self):
        for seed, t in [(0, 3), (1, 3), (2, 4)]:
            st = gen.gen_comb(seed, teeth=t, room=2)
            members = frozenset(st.tops())
            assignment = bf.exhaustive_segment_assignment(st, members)
            assert assignment is not None
            rm = RegressiveMap({x: st.ancestor_at(x, lvl) for x, lvl in assignment.items()})
            assert verify_disjoint_segments(st, rm) == []

    def test_sibling_tops_refuse_with_the_exact_bound(self):
        for seed in range(10):
            st = gen.gen_sibling_tops(seed)
            with pytest.raises(NoRoom) as exc:
                disjoint_intervals(st, frozenset(st.tops()))
            assert exc.value.bound_level == st.top_level - 1
            assert bf.exhaustive_segment_assignment(st, frozenset(st.tops())) is None

    def test_not_simple_refusal_carries_the_violator(self):
        st = gen.gen_split_miniature(4)
        with pytest.raises(NotSimpleError) as exc:
            disjoint_intervals(st, frozenset(st.tops()))
        assert verify_hall_violator(st, st.tops(), exc.value.violator) == []
        assert exc.value.level == st.top_level


class TestComposeFibrewise:
    def two_fibre_setup(self):
        st = gen.gen_comb(3, teeth=4, room=3)
        tips = tips_by_position(st)
        t = min(st.pool)
        pi = RegressiveMap({x: st.ancestor_at(x, t) for x in tips})
        fibre_maps = {pi[x]: RegressiveMap({x: pi[x]}) for x in tips}
        return st, pi, fibre_maps

    def test_singleton_fibres_compose(self):
        st, pi, fibre_maps = self.two_fibre_setup()
        out = compose_fibrewise(st, pi, fibre_maps)
        assert verify_disjoint_segments(st, out) == []

    def test_coarse_map_must_be_regressive(self):
        st, pi, fibre_maps = self.two_fibre_setup()
        tips = sorted(pi.mapping)
        assert 1 not in st.pool
        bad = RegressiveMap({**pi.mapping, tips[0]: st.ancestor_at(tips[0], 1)})
        with pytest.raises(DomainError, match="bad coarse map"):
            compose_fibrewise(st, bad, fibre_maps)

    def test_fibre_keys_must_match_images(self):
        st, pi, fibre_maps = self.two_fibre_setup()
        fibre_maps = dict(fibre_maps)
        fibre_maps[root_of(st)] = RegressiveMap({})
        with pytest.raises(DomainError, match="exactly the coarse images"):
            compose_fibrewise(st, pi, fibre_maps)

    def test_fibre_map_domain_is_checked(self):
        st, pi, fibre_maps = self.two_fibre_setup()
        w = sorted(fibre_maps)[0]
        fibre_maps = dict(fibre_maps)
        fibre_maps[w] = RegressiveMap({})
        with pytest.raises(DomainError,
                           match=r"bad fibre map at \d+: domain does not equal the member set"):
            compose_fibrewise(st, pi, fibre_maps)

    def test_fibre_map_with_a_shared_image_is_refused(self):
        # one comb's tips under their level-1 ancestor; two of them, both
        # below the spine node at pool level 2, are sent there together
        st, parts, _ = gen.gen_two_comb(4)
        tips, witness = parts[0]
        pi = RegressiveMap({x: st.ancestor_at(x, 1) for x in tips})
        (w,) = set(pi.mapping.values())
        x, y = sorted(tips, key=lambda t: st.payload[t].lo)[1:3]
        a = st.ancestor_at(x, 2)
        assert 2 in st.pool and st.ancestor_at(y, 2) == a
        shared = RegressiveMap({**witness.mapping, x: a, y: a})
        assert verify_simple_witness(st, tips, shared) == [
            f"nodes {min(x, y)} and {max(x, y)} share the image {a}"]
        with pytest.raises(DomainError, match=rf"bad fibre map at {w}: nodes {min(x, y)} "
                                              rf"and {max(x, y)} share the image {a}$"):
            compose_fibrewise(st, pi, {w: shared})

    def test_lift_without_room_raises(self):
        # one fibre with two members, sources at levels 1 and 3, but the
        # only pool level at or above the image is 3: the pairing starves
        b = gen._Builder()
        n0 = b.add(None, 0)
        n1 = b.add(n0, 1)
        n2 = b.add(n1, 2)
        w = b.add(n2, 3)
        c1 = b.add(w, 4)
        c2 = b.add(w, 4)
        x1 = b.add(c1, 5)
        x2 = b.add(c2, 5)
        st = b.staged(5, [1, 3])
        x1, x2 = sorted(st.tops())
        w = st.ancestor_at(x1, 3)
        pi = RegressiveMap({x1: w, x2: w})
        fm = {w: RegressiveMap({x1: st.ancestor_at(x1, 1), x2: w})}
        with pytest.raises(NoRoom) as exc:
            compose_fibrewise(st, pi, fm)
        assert exc.value.node == w
        assert exc.value.bound_level == 3


class TestUnionSimple:
    def test_two_combs_union(self):
        for seed in range(12):
            st, parts, assign = gen.gen_two_comb(seed)
            members = sorted(set().union(*(p[0] for p in parts)))
            out = union_simple(st, parts, assign)
            assert isinstance(out, RegressiveMap)
            assert verify_simple_witness(st, members, out) == []
            assert verify_disjoint_segments(st, out) == []

    def test_union_lands_on_one_deep_level(self):
        st, parts, assign = gen.gen_two_comb(4)
        out = union_simple(st, parts, assign)
        deep = sorted(l for l in st.pool if l > 2)
        lvls = {st.level[a] for a in out.mapping.values()}
        assert lvls == {deep[1]}

    def test_assignment_shape_is_enforced(self):
        st, parts, assign = gen.gen_two_comb(0)
        with pytest.raises(DomainError, match="part indices"):
            union_simple(st, parts, {0: assign[0]})
        with pytest.raises(DomainError, match="injective"):
            union_simple(st, parts, {0: assign[0], 1: assign[0]})
        not_pool = next(l for l in range(st.top_level) if l not in st.pool)
        with pytest.raises(DomainError, match="not in the pool"):
            union_simple(st, parts, {0: assign[0], 1: not_pool})

    def test_parts_must_be_disjoint_with_valid_witnesses(self):
        st, parts, assign = gen.gen_two_comb(1)
        with pytest.raises(DomainError, match="not disjoint"):
            union_simple(st, [parts[0], parts[0]], assign)
        members, wit = parts[1]
        hollow = RegressiveMap({x: root_of(st) for x in members})
        with pytest.raises(DomainError, match="witness invalid"):
            union_simple(st, [parts[0], (members, hollow)], assign)


class TestBoundedRegressive:
    def test_comb_certificates_verify(self):
        for seed in range(20):
            st = gen.gen_comb(seed)
            br = bounded_regressive(st, frozenset(st.tops()))
            assert verify_bound_certificates(st, br) == []

    def test_one_trivial_fibre_anchored_at_the_rightmost_tip(self):
        st = gen.gen_comb(6, teeth=5, room=2)
        tips = tips_by_position(st)
        br = bounded_regressive(st, frozenset(tips))
        kinds = {}
        for w, cert in br.certificates.items():
            assert cert.bound_member == tips[-1]
            kinds.setdefault(cert.kind, []).append(w)
        assert len(kinds["trivial"]) == 1
        (wt,) = kinds["trivial"]
        assert br.map[tips[-1]] == wt
        # strict fibres sit on the shallowest pool level that clears the anchor
        assert len(kinds["strict"]) == len(tips) - 1

    def test_empty_member_set_is_fine(self):
        st = gen.gen_comb(0, teeth=3, room=2)
        br = bounded_regressive(st, frozenset())
        assert br.map.mapping == {} and br.certificates == {}

    def test_requires_payload(self):
        bare = gen.gen_random_staged(5)
        with pytest.raises(DomainError):
            bounded_regressive(bare, frozenset(bare.tops()))

    def test_tampered_certificates_are_caught(self):
        st = gen.gen_comb(6, teeth=5, room=2)
        br = bounded_regressive(st, frozenset(st.tops()))
        flipped = {
            w: BoundCertificate(c.image, c.bound_member, "trivial" if c.kind == "strict" else "strict")
            for w, c in br.certificates.items()
        }
        assert verify_bound_certificates(st, BoundedRegressive(br.map, flipped)) != []
        missing = dict(br.certificates)
        missing.pop(sorted(missing)[0])
        out = verify_bound_certificates(st, BoundedRegressive(br.map, missing))
        assert any("cover exactly" in p for p in out)

    def test_a_certificate_problem_is_an_internal_inconsistency(self, monkeypatch):
        """The map is checked by `verify_bound_certificates` before it is
        returned, so any problem that verifier reports is a fault."""
        st = gen.gen_comb(6, teeth=5, room=2)
        seen = []

        def refuting(tree, br):
            seen.append(br)
            return ["strict fibre at 0 does not stay below min of 1"]

        monkeypatch.setattr(simple, "verify_bound_certificates", refuting)
        with pytest.raises(InternalInconsistency, match="does not stay below"):
            bounded_regressive(st, frozenset(st.tops()))
        assert len(seen) == 1


def lr_by_sweep(st, members):
    """Quantify over every cut point and every pool ancestor literally."""
    K = st.space
    pts = sp.enumerate_points(K)
    keys = [sp.point_key(K, p) for p in pts]

    def lo(i):
        return sp.point_key(K, st.payload[i].lo)

    def hi(i):
        return sp.point_key(K, st.payload[i].hi)

    def escapes_left(b):
        for anc in pool_ancestors(st, b):
            for x in keys:
                if x >= lo(anc):
                    continue
                window = frozenset(a for a in members if lo(a) > x and hi(a) <= lo(b))
                if sdr_simple(st, window):
                    return True
        return False

    def escapes_right(b):
        for anc in pool_ancestors(st, b):
            for y in keys:
                if y <= hi(anc):
                    continue
                window = frozenset(a for a in members if lo(a) >= hi(b) and hi(a) <= hi(anc))
                if sdr_simple(st, window):
                    return True
        return False

    left = frozenset(b for b in members if escapes_left(b))
    right = frozenset(b for b in members if escapes_right(b))
    return left, right


class TestEndpointClasses:
    def test_depth_four_miniature_by_position(self):
        st = gen.gen_split_miniature(4)
        tips = tips_by_position(st)
        L, R = endpoint_LR(st, frozenset(tips))
        assert L == frozenset(tips[i] for i in (4, 5, 6))
        assert R == frozenset(tips[i] for i in (1, 2, 3))

    def test_matches_the_full_sweep(self):
        for depth, mode in [(4, "no_parent"), (4, "full"), (5, "no_parent")]:
            st = gen.gen_split_miniature(depth, pool_mode=mode)
            members = frozenset(st.tops())
            got = endpoint_LR(st, members)
            assert got == lr_by_sweep(st, members), (depth, mode)

    def test_exhaustive_simplicity_gives_the_same_classes(self, monkeypatch):
        st = gen.gen_split_miniature(4)
        members = frozenset(st.tops())
        fast = endpoint_LR(st, members)
        windows = []

        def by_search(tree, group):
            windows.append(group)
            m = bf.exhaustive_sdr(tree, group)
            return HallViolator(frozenset(), frozenset()) if m is None else RegressiveMap(m)

        monkeypatch.setattr(simple, "is_simple", by_search)
        assert endpoint_LR(st, members) == fast
        assert windows

    def test_interior_simple_set_escapes_both_ways(self):
        st = gen.gen_split_miniature(5)
        tips = tips_by_position(st)
        chosen = frozenset(tips[i] for i in (4, 5, 8, 9))
        assert isinstance(is_simple(st, chosen), RegressiveMap)
        L, R = endpoint_LR(st, chosen)
        assert L == chosen and R == chosen

    def test_reads_neighbours_without_enumerating_the_space(self, monkeypatch):
        stages = [gen.gen_split_miniature(4), gen.gen_split_miniature(5, pool_mode="full"),
                  gen.gen_comb(2, teeth=4, room=2), gen.gen_broom(4)]
        want = [lr_by_sweep(st, frozenset(st.tops())) for st in stages]

        def refuse(*args):
            raise AssertionError("endpoint_LR enumerated the space")

        monkeypatch.setattr(sp, "enumerate_points", refuse)
        assert [endpoint_LR(st, frozenset(st.tops())) for st in stages] == want
        assert any(L or R for L, R in want)

    def test_needs_payload_and_a_finite_space(self):
        bare = gen.gen_random_staged(5)
        with pytest.raises(DomainError):
            endpoint_LR(bare, frozenset(bare.tops()))


class TestCondensationCore:
    def test_extreme_tips_form_the_core(self):
        st = gen.gen_split_miniature(4)
        tips = tips_by_position(st)
        res = condensation_core(st, frozenset(tips))
        assert res.core == frozenset((tips[0], tips[-1]))
        assert not res.whole_simple
        # both core members hug a boundary, so no two-sided cuts exist
        assert res.checks == ()
        assert res.ok

    def test_deeper_pool_clears_the_core(self):
        st = gen.gen_split_miniature(5)
        members = frozenset(st.tops())
        res = condensation_core(st, members)
        assert not res.whole_simple
        assert res.core == frozenset()
        assert res.left | res.right == members
        assert res.ok

    def test_interior_core_fails_honestly(self):
        # three blocks over one pool node: everything is core, and the
        # empty interior windows are simple, so the claim must not pass
        st = three_blocks()
        members = frozenset(st.tops())
        res = condensation_core(st, members)
        assert res.core == members
        assert not res.whole_simple
        mid = tips_by_position(st)[1]
        assert {c.member for c in res.checks} == {mid}
        assert len(res.checks) == 4
        assert any(c.window_simple for c in res.checks)
        assert not res.ok

    def test_simple_whole_passes_without_checks(self):
        st = gen.gen_split_miniature(5)
        tips = tips_by_position(st)
        chosen = frozenset(tips[i] for i in (4, 5, 8, 9))
        res = condensation_core(st, chosen)
        assert res.whole_simple and res.ok and res.checks == ()


class TestSerialization:
    def test_witness_round_trip(self):
        st = gen.gen_comb(8)
        wit = is_simple(st, frozenset(st.tops()))
        doc = witness_to_json(wit)
        assert witness_from_json(doc) == wit
        with pytest.raises(DomainError):
            witness_from_json({"v": 1, "kind": "something-else"})

    def test_decision_documents(self):
        st = gen.gen_split_miniature(4, pool_mode="full")
        good = decision_to_json(is_simple(st, frozenset(tips_by_position(st)[::2])))
        assert good["simple"] is True and good["witness"]["kind"] == "regressive-map"
        bad = decision_to_json(is_simple(st, frozenset(st.tops())))
        assert bad["simple"] is False
        assert bad["violator"]["members"] == sorted(st.tops())
