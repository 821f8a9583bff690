"""Fast direct checks of the suite plumbing.

The expensive criteria (1, 6, 7, 9) are exercised end to end in
test_acceptance; here we run the sub-second ones in-process and pin the
report canonicalization, so a regression in a cheap criterion is caught
without a full gate run.
"""

import json

from ordfrag import suite
from ordfrag.ordinal import degree


def test_canonical_bytes_are_sorted_and_compact():
    doc = {"b": [2, 1], "a": {"y": True, "x": None}}
    raw = suite.canonical_bytes(doc)
    assert raw == b'{"a":{"x":null,"y":true},"b":[2,1]}'
    assert json.loads(raw) == doc


def test_criterion_rng_streams_are_reproducible():
    a = suite._rng(7, "c3")
    b = suite._rng(7, "c3")
    assert [a.random() for _ in range(3)] == [b.random() for _ in range(3)]
    assert suite._rng(7, "c4").random() != suite._rng(7, "c3").random()


def test_result_to_json_shape():
    r = suite.CriterionResult(3, "construction-postconditions", True, {"n": 1})
    assert suite.result_to_json(r) == {
        "id": 3, "name": "construction-postconditions",
        "passed": True, "details": {"n": 1},
    }


def test_matching_oracle_criterion_passes():
    r = suite.criterion_2(0)
    assert r.passed
    assert r.details["agree"] == 1000
    assert r.details["simple"] + r.details["not_simple"] == 1000


def test_construction_criterion_rotates_all_ops():
    r = suite.criterion_3(0)
    assert r.passed
    assert r.details["per_op"] == {
        "bounded": 125, "compose": 125, "disjoint": 125, "union": 125}
    assert r.details["sibling_confirmed"] == 40


def test_open_partition_criterion_counts():
    r = suite.criterion_4(0)
    assert r.passed
    assert r.details["depth3_candidates"] == 27
    assert r.details["depth3_valid"] == 0


def test_decomposition_criterion_covers_both_kinds():
    r = suite.criterion_5(0)
    assert r.passed, r.details
    assert r.details["chains"] == 61
    assert r.details["degree_cross_checks"] > 0


def test_criterion_5_fails_when_the_closed_form_is_the_leading_exponent(monkeypatch):
    # degree is the leading exponent, not the CB rank: w+1 has degree 1, rank 0
    monkeypatch.setattr(suite, "_cb_rank", degree)
    r = suite.criterion_5(0)
    assert not r.passed
    assert "CB rank oracle differs at w+1" in r.details["problems"]


def test_weight_criterion_margins():
    r = suite.criterion_8(0)
    assert r.passed
    assert r.details["miniature_margins"]["4"] == [16, 15, -1]


def test_chain_instance_final_level_is_the_whole_space():
    from ordfrag import space as sp
    K, levels = suite._chain_instance(8)
    assert [sp.render_point(K, p) for p in levels[-1]] == [str(i) for i in range(8)]


def test_ordinal_instance_reaches_omega_squared():
    from ordfrag import space as sp
    K, levels = suite._ordinal_instance()
    rendered = [sp.render_point(K, p) for p in levels[-1]]
    assert rendered[0] == "0" and rendered[-1] == "w^2"
    assert "w+1" in rendered  # interior successors materialize at depth 3
