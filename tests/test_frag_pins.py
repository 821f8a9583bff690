"""Pinned answers of the `frag` layer and the payload-keyed `simple` maps.

Each case builds a stage (a seeded comb, one of the finite cuts the
cli-staged benchmark makes, or a cut of an ordinal tree), decomposes it
and records, as rendered text, what the decomposition, its gap pairs,
its fragmentation witnesses and the verifiers' problem lists on seeded
tamperings say. A second family records `bounded_regressive`,
`verify_bound_certificates`, `endpoint_LR` and `condensation_core` on
combs, two-combs and split miniatures. The sha256 of each record is a
fixed value: rekeying these layers must reproduce them exactly.
"""

import hashlib
import json
import random
import re
from fractions import Fraction

import pytest

from ordfrag import generators as gen
from ordfrag import ptree
from ordfrag import space as sp
from ordfrag.errors import OrdfragError
from ordfrag.frag import (
    delta_pairs,
    fragment_check,
    ln_decomposition,
    verify_decomposition,
    verify_delta_identity,
)
from ordfrag.openpart import partition_open
from ordfrag.ordinal import parse
from ordfrag.simple import (
    BoundCertificate,
    BoundedRegressive,
    bounded_regressive,
    condensation_core,
    endpoint_LR,
    verify_bound_certificates,
)

FRAG = {
    "comb0": "ceb6456c8cff406d77b2f9f7026b8eead36a7800d9b7ca28610f358df728ec3a",
    "comb1": "be1fb5b1273e8601cc5f1ada14abdd9baddcc7f57834e5c62cc8b9ce2b6af39c",
    "comb2": "b8197df9d7cabecde7d2959589640a83cd1988bf7533a6106a2db117a2624c9e",
    "comb3": "924cee5537b43db0910fde8cdf0a6741dd234d085ec9b130adc8f6399df851a9",
    "comb4": "24601d3d261c1edde50f7c0f303d929628f91f2b6473f9a5b2303bb73b4393bd",
    "comb5": "dd93bd4aecb4b2dc07da7b0bcf53002a45c35fefe4079fd83c93d19e15b29433",
    "comb6": "fb43388afcfded1121248ef4074dae75c4e6ed043b2c68096153ead786c31cee",
    "comb7": "961e5ba3bf169dd6ec2aa956d59b78ab5330e9be900637c81c33ab68f6fd608b",
    "comb8": "a120d4120768d6f6729cab9b5179de05832debc8fdc26386bb70d1d2ed70bed3",
    "comb9": "446b65b783bdc1f0bd261dc74fcd44e6d61a029efe449e1ae0e28ea8b35fe934",
    "finite16": "e3f19fe8503945ce51fb818442484ecf0c9bd9ceb04b7b3e4cc1f4aa243a9d8b",
    "split8": "9f9961e1a499dbe16fdda0e197dea929973433ab20f740d773e39bb6a5e373c9",
    "ordinal": "9e4ea1151b9135e55ea177b288ba42bef34e96967897940b80fa65680aa44c9f",
}

SIMPLE = {
    "comb0": "138d18b7e9e925f8f02880ab300ee16669accec4a2af7b2c54a21ace2c4d8881",
    "comb1": "87953849b65d91b7785acfbc9c271411e098c666d276711498d3a2b3cb83cd3f",
    "comb2": "a2b670c10d189fe176b42e8bd9cdeb591ab8744aab303bb04d4357669bfa3a9f",
    "comb3": "87953849b65d91b7785acfbc9c271411e098c666d276711498d3a2b3cb83cd3f",
    "comb4": "a1d0b9795e48102cd1d8f864ff306ed740ce59ad80ae2807e585a2545723d053",
    "comb5": "c1261fedd298567e8a385c820510f89a2c29b31b242e169e62667cb5aa7e71d5",
    "comb6": "b09f96ecd961c528d444c9fe3e1d4a43c8ec75a966342da2052b2be646b19c97",
    "comb7": "a98af3f4a2f81c01b127753ffef86626dcf4a662f4009f0ed0e94847e8576e16",
    "comb8": "a1d0b9795e48102cd1d8f864ff306ed740ce59ad80ae2807e585a2545723d053",
    "comb9": "2a5eed98a4ee09ff535fa4369d73228ed48c4e618a91ed057417d84d19222e5d",
    "two_comb0": "6299198b2a56c4bea79476486314d3e225d94428f7a9ac3d5209920c4ccb059a",
    "two_comb1": "b07cb962ca7e2fc9f0657e1c717a074b55eacca5394dc67a095f10072c3d7952",
    "two_comb2": "7621c24c2dae0abcbe5f18c7825a26b0437dd3c40da7b8ac4d8b17e69ed44294",
    "two_comb3": "b07cb962ca7e2fc9f0657e1c717a074b55eacca5394dc67a095f10072c3d7952",
    "split3": "f251da32352fe60b010a3f77f057503a127ee85b5b430a418840d477e274a4d6",
    "split4": "ad1d64caea62868902af646aca470de07c31c743f03fdfd6c146165c40d06924",
}


def staged(name):
    if name.startswith("comb"):
        return gen.gen_comb(int(name[4:]))
    if name == "ordinal":
        tree = ptree.build_tree(sp.OrdinalInterval(parse("w^2")), 60)
        return ptree.to_staged(tree, 2, range(1, 2), limit_top=False)
    K = sp.FiniteChain(16) if name == "finite16" else sp.SplitChain(8)
    tree = ptree.build_tree(K, 4 * sp.space_size(K))
    m = max(n.level.terms[0][1] for n in tree.nodes.values() if n.level.terms)
    return ptree.to_staged(tree, m, range(max(m - 1, 1)), limit_top=False)


def digest(record) -> str:
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def outcome(f, *args):
    """f's answer, or the class and text of what it raised."""
    try:
        return f(*args)
    except OrdfragError as e:
        return f"{type(e).__name__}: {e}"


def tamperings(K, levels, rng):
    """Seeded edits of a decomposition: reorder levels, drop, add, repeat
    and reverse points, and mix in arbitrary points of the space."""
    space_pts = sp.enumerate_points(K) if sp.is_finite_space(K) else [
        q for lv in levels for q in lv]
    out = []
    for _ in range(12):
        lv = [list(x) for x in levels]
        n = rng.randrange(len(lv))
        move = rng.choice(["swap", "drop", "add", "repeat", "reverse", "shuffle"])
        if move == "swap" and len(lv) > 1:
            m = rng.randrange(len(lv))
            lv[n], lv[m] = lv[m], lv[n]
        elif move == "drop" and lv[n]:
            del lv[n][rng.randrange(len(lv[n]))]
        elif move == "add":
            lv[n].insert(rng.randrange(len(lv[n]) + 1), rng.choice(space_pts))
        elif move == "repeat" and lv[n]:
            lv[n].append(rng.choice(lv[n]))
        elif move == "reverse":
            lv[n].reverse()
        else:
            rng.shuffle(lv[n])
        out.append((move, n, [tuple(x) for x in lv]))
    return out


def frag_record(name):
    st = staged(name)
    K = st.space
    text = lambda pts: [sp.render_point(K, q) for q in pts]
    levels = ln_decomposition(st, partition_open(st))
    final = levels[-1]
    rng = random.Random(f"frag-pins:{name}")
    members = list(final) + rng.sample(list(final), min(3, len(final)))
    rng.shuffle(members)
    fragments = []
    for eps in (Fraction(1, 100), Fraction(1, len(final)), Fraction(2, len(final)),
                Fraction(1, 3), Fraction(1)):
        for pts in (final, members, levels[len(levels) // 2]):
            w = fragment_check(K, pts, eps)
            fragments.append([None if w.lo is None else sp.render_point(K, w.lo),
                              None if w.hi is None else sp.render_point(K, w.hi),
                              text(w.inside), str(w.diameter)])
    tampered = []
    for move, n, lv in tamperings(K, levels, rng):
        tampered.append([move, n, verify_decomposition(K, lv), verify_delta_identity(K, lv)])
    return {
        "levels": [text(lv) for lv in levels],
        "pairs": [[text(pair) for pair in delta_pairs(K, lv)] for lv in levels],
        "pairs_of_members": [text(pair) for pair in delta_pairs(K, members)],
        "clean": [verify_decomposition(K, levels), verify_delta_identity(K, levels)],
        "fragments": fragments,
        "tampered": tampered,
    }


def simple_stage(name):
    kind, n = re.fullmatch(r"([a-z_]+)(\d+)", name).groups()
    if kind == "comb":
        return gen.gen_comb(int(n))
    if kind == "two_comb":
        return gen.gen_two_comb(int(n))[0]
    return gen.gen_split_miniature(int(n))


def bounded_record(st, members):
    br = bounded_regressive(st, members)
    certs = {str(w): [c.bound_member, c.kind] for w, c in br.certificates.items()}
    flipped = BoundedRegressive(br.map, {
        w: BoundCertificate(c.image, c.bound_member,
                            "trivial" if c.kind == "strict" else "strict")
        for w, c in br.certificates.items()})
    return [br.map.mapping, certs, verify_bound_certificates(st, br),
            verify_bound_certificates(st, flipped)]


def core_record(st, members):
    core = condensation_core(st, members)
    return [sorted(core.core), sorted(core.left), sorted(core.right), core.whole_simple,
            [[c.member, c.cut, c.side, c.window_size, c.window_simple] for c in core.checks]]


def simple_record(st):
    tops = st.tops()
    rng = random.Random(f"simple-pins:{len(st.parent)}:{tops}")
    subsets = [tops] + [sorted(rng.sample(tops, rng.randint(1, len(tops)))) for _ in range(4)]
    out = []
    for members in subsets:
        left, right = endpoint_LR(st, members)
        out.append([members, outcome(bounded_record, st, members),
                    [sorted(left), sorted(right)], outcome(core_record, st, members)])
    return json.loads(json.dumps(out, default=str))


@pytest.mark.parametrize("name", list(FRAG))
def test_frag_answers_are_pinned(name):
    assert digest(frag_record(name)) == FRAG[name]


@pytest.mark.parametrize("name", list(SIMPLE))
def test_payload_keyed_maps_are_pinned(name):
    assert digest(simple_record(simple_stage(name))) == SIMPLE[name]
