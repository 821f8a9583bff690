"""Every document kind survives a round trip.

For each kind, decoding an encoded object gives the object back, and
encoding the decoded object writes the same canonical bytes: the
decoders lose nothing the encoders write, and read nothing twice.
"""

import json

import pytest

from ordfrag import generators as gen
from ordfrag import ptree
from ordfrag import rnwit as rn
from ordfrag import simple
from ordfrag import space as sp
from ordfrag.errors import canonical_bytes
from ordfrag.frag import levels_from_json, levels_to_json, ln_decomposition
from ordfrag.openpart import partition_from_json, partition_open, partition_to_json
from ordfrag.ordinal import parse

SPACES = {
    "finite": sp.FiniteChain(6),
    "labelled": sp.FiniteChain(3, ("a", "b", "c")),
    "ordinal": sp.OrdinalInterval(parse("w^2*2+3")),
    "split": sp.SplitChain(5),
    "sum": sp.OrderSum((sp.FiniteChain(3), sp.OrdinalInterval(parse("w")))),
    "nested-sum": sp.OrderSum((sp.SplitChain(2),
                               sp.OrderSum((sp.FiniteChain(2), sp.OrdinalInterval(parse("w^2")))))),
}


def assert_round_trip(x, encode, decode):
    """decode(encode(x)) == x, and the decoded object encodes to the same
    bytes; the document passes through JSON text on the way."""
    doc = json.loads(canonical_bytes(encode(x)))
    back = decode(doc)
    assert back == x
    assert canonical_bytes(encode(back)) == canonical_bytes(doc)


@pytest.mark.parametrize("name", SPACES)
def test_space(name):
    assert_round_trip(SPACES[name], lambda K: K.to_json(), sp.space_from_json)


@pytest.mark.parametrize("name", SPACES)
def test_tree(name):
    assert_round_trip(ptree.build_tree(SPACES[name], 41), ptree.tree_to_json, ptree.tree_from_json)


@pytest.mark.parametrize("st", [gen.gen_comb(0), gen.gen_comb(3), gen.gen_random_staged(2),
                                gen.gen_random_staged(7)],
                         ids=["comb0", "comb3", "random2", "random7"])
def test_staged(st):
    assert_round_trip(st, ptree.staged_to_json, ptree.staged_from_json)


def test_staged_covers_both_payload_cases():
    assert gen.gen_comb(0).payload is not None and gen.gen_random_staged(2).payload is None


def ordinal_stage():
    tree = ptree.build_tree(sp.OrdinalInterval(parse("w^3")), 120)
    return ptree.to_staged(tree, 3, range(1, 3), limit_top=False)


def split_stage():
    K = sp.SplitChain(8)
    tree = ptree.build_tree(K, 4 * sp.space_size(K))
    return ptree.to_staged(tree, 3, range(2), limit_top=False)


STAGES = {"comb0": lambda: gen.gen_comb(0), "comb5": lambda: gen.gen_comb(5),
          "ordinal": ordinal_stage, "split": split_stage}


def decomposition(name):
    st = STAGES[name]()
    return st.space, ln_decomposition(st, partition_open(st))


@pytest.mark.parametrize("name", STAGES)
def test_decomposition(name):
    K, levels = decomposition(name)
    assert_round_trip([tuple(lv) for lv in levels], lambda lv: levels_to_json(K, lv),
                      lambda doc: levels_from_json(K, doc))


@pytest.mark.parametrize("name", STAGES)
@pytest.mark.parametrize("denbound", [4, 16])
def test_rn_dense(name, denbound):
    K, levels = decomposition(name)
    D = rn.dense_set(K, rn.separating_family(K, levels), levels, denbound)
    assert_round_trip(D, lambda D: rn.dense_to_json(K, D), lambda doc: rn.dense_from_json(sp.PointCodec(K), doc))


@pytest.mark.parametrize("name", STAGES)
def test_rn_witness(name):
    K, levels = decomposition(name)
    fam = tuple(sorted(rn.separating_family(K, levels), key=lambda f: rn._tag_key(K, f)))
    bundle = (fam, rn.dense_set(K, fam, levels), [tuple(lv) for lv in levels])
    assert_round_trip(bundle, lambda b: rn.witness_bundle_to_json(K, *b),
                      lambda doc: rn.witness_bundle_from_json(K, doc))


@pytest.mark.parametrize("seed", range(4))
def test_regressive_map(seed):
    st = gen.gen_comb(seed)
    rm = simple.is_simple(st, frozenset(st.tops()))
    assert isinstance(rm, simple.RegressiveMap)
    assert_round_trip(rm, simple.witness_to_json, simple.witness_from_json)


@pytest.mark.parametrize("seed", range(4))
def test_open_partition(seed):
    assert_round_trip(partition_open(gen.gen_comb(seed)), partition_to_json, partition_from_json)
