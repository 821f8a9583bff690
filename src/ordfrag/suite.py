"""The acceptance suite: nine deterministic, self-contained checks.

Each criterion function rebuilds its own corpus from a seed and returns
a CriterionResult whose details are plain JSON data with sorted, stable
ordering. Wall-clock limits enter the reports only as booleans so that
two runs with one seed are byte-identical.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from . import bruteforce as bf
from . import generators as gen
from . import rnwit as rn
from . import space as sp
from .errors import canonical_bytes
from .frag import (
    density_sweep,
    ln_decomposition,
    verify_decomposition,
    verify_delta_identity,
    verify_density,
    verify_scattered_closed,
    weight_bound,
)
from .openpart import OpenPartition, partition_open, verify_open_partition
from .ordinal import Ordinal, parse
from .ptree import build_tree, to_staged, verify_admissible
from .simple import (
    NoRoom,
    NotSimpleError,
    RegressiveMap,
    bounded_regressive,
    compose_fibrewise,
    disjoint_intervals,
    is_simple,
    union_simple,
    verify_bound_certificates,
    verify_disjoint_segments,
    verify_hall_violator,
    verify_simple_witness,
)


@dataclass(frozen=True)
class CriterionResult:
    id: int
    name: str
    passed: bool
    details: dict


def _rng(seed, tag: str) -> random.Random:
    # string seeding hashes via sha512, stable across processes
    return random.Random(f"{seed}:{tag}")


def criterion_1(seed) -> CriterionResult:
    """Admissibility clauses hold on 200 seeded partition trees."""
    rng = _rng(seed, "c1")
    t0 = time.monotonic()
    clean = finite = ordinal = total_nodes = 0
    worst: list[str] = []
    for _ in range(200):
        if rng.random() < 0.5:
            K = sp.FiniteChain(rng.randint(2, 512))
            finite += 1
        else:
            K = sp.OrdinalInterval(parse(rng.choice(gen.ALPHA_MENU)))
            ordinal += 1
        budget = rng.randint(50, 2000)
        tree = build_tree(K, budget)
        total_nodes += len(tree.columns.ids)
        verdict = verify_admissible(tree)
        if verdict.ok:
            clean += 1
        elif len(worst) < 3:
            worst.append(verdict.violations[0].clause)
    elapsed = time.monotonic() - t0
    details = {
        "instances": 200,
        "finite": finite,
        "ordinal": ordinal,
        "clean": clean,
        "total_nodes": total_nodes,
        "first_violations": worst,
        "runtime_ok": elapsed < 30.0,
    }
    return CriterionResult(
        1, "admissible-partition-trees",
        clean == 200 and details["runtime_ok"], details)


def _c2_seeds(seed):
    rng = _rng(seed, "c2")
    return [rng.randrange(2**32) for _ in range(1000)]


def criterion_2(seed) -> CriterionResult:
    """is_simple agrees with exhaustive SDR search on 1000 trees."""
    agree = simple_n = hall_n = witness_ok = 0
    for sub in _c2_seeds(seed):
        st = gen.gen_random_staged(sub)
        members = frozenset(st.tops())
        verdict = is_simple(st, members)
        oracle = bf.exhaustive_sdr(st, members)
        if isinstance(verdict, RegressiveMap):
            simple_n += 1
            if oracle is not None:
                agree += 1
            if verify_simple_witness(st, members, verdict) == []:
                witness_ok += 1
        else:
            hall_n += 1
            if oracle is None:
                agree += 1
            if verify_hall_violator(st, members, verdict) == []:
                witness_ok += 1
    details = {
        "instances": 1000,
        "agree": agree,
        "simple": simple_n,
        "not_simple": hall_n,
        "witnesses_revalidated": witness_ok,
    }
    return CriterionResult(
        2, "matching-oracle", agree == 1000 and witness_ok == 1000, details)


def criterion_3(seed) -> CriterionResult:
    """Constructions succeed with room and refuse sibling tops."""
    rng = _rng(seed, "c3")
    ok = 0
    noroom = 0
    per_op = {"bounded": 0, "compose": 0, "disjoint": 0, "union": 0}
    for i in range(500):
        sub = rng.randrange(2**32)
        op = ("disjoint", "compose", "union", "bounded")[i % 4]
        try:
            if op == "disjoint":
                st = gen.gen_comb(sub)
                members = frozenset(st.tops())
                rm = disjoint_intervals(st, members)
                good = (verify_simple_witness(st, members, rm) == []
                        and verify_disjoint_segments(st, rm) == [])
            elif op == "compose":
                st = gen.gen_comb(sub)
                tips = sorted(st.tops(), key=st.payload_keys[0].__getitem__)
                t = min(st.pool)
                pi = RegressiveMap({x: st.ancestor_at(x, t) for x in tips})
                fibre_maps = {pi[x]: RegressiveMap({x: pi[x]}) for x in tips}
                out = compose_fibrewise(st, pi, fibre_maps)
                good = (verify_simple_witness(st, frozenset(tips), out) == []
                        and verify_disjoint_segments(st, out) == [])
            elif op == "union":
                st, parts, assignment = gen.gen_two_comb(sub)
                res = union_simple(st, parts, assignment)
                members = frozenset().union(*(p[0] for p in parts))
                good = (verify_simple_witness(st, members, res) == []
                        and verify_disjoint_segments(st, res) == [])
            else:
                st = gen.gen_comb(sub)
                br = bounded_regressive(st, frozenset(st.tops()))
                good = verify_bound_certificates(st, br) == []
        except NoRoom:
            noroom += 1
            continue
        if good:
            ok += 1
            per_op[op] += 1

    sibling_total = 40
    sibling_confirmed = 0
    for j in range(sibling_total):
        st = gen.gen_sibling_tops(j)
        assert len(st.parent) <= 14
        try:
            disjoint_intervals(st, frozenset(st.tops()))
        except NoRoom:
            if bf.exhaustive_segment_assignment(st, frozenset(st.tops())) is None:
                sibling_confirmed += 1
    details = {
        "with_room": 500,
        "verified": ok,
        "noroom_with_room": noroom,
        "per_op": {k: per_op[k] for k in sorted(per_op)},
        "sibling_instances": sibling_total,
        "sibling_confirmed": sibling_confirmed,
    }
    passed = ok == 500 and noroom == 0 and sibling_confirmed == sibling_total
    return CriterionResult(3, "construction-postconditions", passed, details)


def criterion_4(seed) -> CriterionResult:
    """Open partitions verify; split miniatures refuse with counting."""
    rng = _rng(seed, "c4")
    accepted = accepted_ok = 0
    for i in range(60):
        st = gen.gen_comb(rng.randrange(2**32)) if i % 3 else gen.gen_two_comb(rng.randrange(2**32))[0]
        p = partition_open(st)
        accepted += 1
        if verify_open_partition(st, p) == []:
            accepted_ok += 1

    refusals = counting = 0
    for _ in range(100):
        st = gen.gen_split_miniature(rng.randint(3, 6), pool_mode="no_parent")
        try:
            partition_open(st)
        except NotSimpleError as err:
            refusals += 1
            hv = err.violator
            if (verify_hall_violator(st, st.tops(), hv) == []
                    and len(hv.members) > len(hv.neighborhood)):
                counting += 1

    st3 = gen.gen_split_miniature(3, pool_mode="no_parent")
    candidates = list(bf.exhaustive_chain_partitions(st3))
    valid = sum(
        1 for cells in candidates
        if verify_open_partition(st3, OpenPartition(cells)) == [])
    details = {
        "accepted": accepted,
        "accepted_verified": accepted_ok,
        "miniatures": 100,
        "refusals": refusals,
        "counting_violators": counting,
        "depth3_candidates": len(candidates),
        "depth3_valid": valid,
    }
    passed = (accepted_ok == accepted and refusals == 100
              and counting == 100 and valid == 0)
    return CriterionResult(4, "open-partitions", passed, details)


def _chain_instance(size: int):
    K = sp.FiniteChain(size)
    tree = build_tree(K, budget=6 * size)
    m = max(l.as_int() for l in tree.columns.level)
    st = to_staged(tree, m, pool=range(max(m - 1, 1)), limit_top=False)
    return K, ln_decomposition(st, partition_open(st))


def _ordinal_instance():
    K = sp.OrdinalInterval(parse("w^2"))
    tree = build_tree(K, budget=300)
    st = to_staged(tree, 3, pool=range(1, 3), limit_top=False)
    return K, ln_decomposition(st, partition_open(st))


def _instances():
    for size in range(4, 65):
        yield ("chain", size) + _chain_instance(size)
    yield ("ordinal", 0) + _ordinal_instance()


def _cb_rank(a: Ordinal) -> int:
    """Cantor-Bendixson rank of a in an ordinal interval: its last CNF exponent, 0 for zero."""
    return a.terms[-1][0] if a.terms else 0


def criterion_5(seed) -> CriterionResult:
    """Graded decompositions: nesting, scatteredness, gaps, density."""
    rng = _rng(seed, "c5")
    chains = 0
    problems: list[str] = []
    pairs_checked = 0
    degree_checks = 0
    for kind, size, K, levels in _instances():
        if verify_decomposition(K, levels):
            problems.append(f"{kind}{size}: nesting")
        if verify_delta_identity(K, levels):
            problems.append(f"{kind}{size}: delta identity")
        for n, pts in enumerate(levels):
            rep = verify_scattered_closed(K, pts)
            if not (rep.emptied and rep.closed):
                problems.append(f"{kind}{size}: level {n} not scattered closed")
            if kind == "ordinal":
                for a in pts:
                    degree_checks += 1
                    if bf.cb_rank(K, a) != _cb_rank(a):
                        problems.append(f"CB rank oracle differs at {a}")
        if kind == "chain":
            chains += 1
            checked, bad = density_sweep(K, levels[-1])
        else:
            pairs = gen.seeded_pairs(K, levels[-1], rng, 200)
            checked, bad = len(pairs), verify_density(K, levels[-1], pairs)
        pairs_checked += checked
        if bad is not None:
            problems.append(f"{kind}{size}: density fails at {bad}")
    details = {
        "chains": chains,
        "ordinal_instances": 1,
        "pairs_checked": pairs_checked,
        "degree_cross_checks": degree_checks,
        "problems": problems[:5],
    }
    return CriterionResult(5, "decomposition-pipeline", not problems, details)


def _ordinal_samples(K, rng, count):
    out = [K.minimum(), K.maximum()]
    while len(out) < count:
        a = rng.randint(0, 30)
        b = rng.randint(0, 30)
        terms = tuple(t for t in ((1, a), (0, b)) if t[1] > 0)
        out.append(Ordinal(terms))  # b == 0 keeps omega-limits in the mix
    return out


def criterion_6(seed) -> CriterionResult:
    """Separation and dense-set approximation in exact rationals."""
    rng = _rng(seed, "c6")
    failures: list[str] = []
    approx_calls = 0
    subsets_run = 0
    n_instances = 0
    for kind, size, K, levels in _instances():
        n_instances += 1
        fam = rn.separating_family(K, levels)
        if kind == "chain":
            pts = sp.enumerate_points(K)
            pairs = [(u, v) for i, u in enumerate(pts) for v in pts[i + 1:]]
            samples = pts
        else:
            pairs = gen.seeded_pairs(K, levels[-1], rng, 100)
            samples = _ordinal_samples(K, rng, 100)
        bad = rn.check_separation(K, fam, pairs)
        if bad is not None:
            failures.append(f"{kind}{size}: unseparated {bad}")
        ordered = sorted(fam, key=lambda f: rn._tag_key(K, f))
        for s in range(20):
            take = rng.randint(1, len(ordered))
            A = rn.pseudo_metric(sorted(rng.sample(ordered, take),
                                        key=lambda f: rn._tag_key(K, f)))
            D = rn.dense_set(K, A, levels)
            subsets_run += 1
            for idx, w in enumerate(samples):
                n = idx % D.n_cap + 1
                approx_calls += 1
                try:
                    z = rn.approximate(K, w, n, A, D)
                except rn.GuaranteeFailure as gf:
                    failures.append(f"{kind}{size}: guarantee {gf}")
                    continue
                if not D.contains(z):
                    failures.append(f"{kind}{size}: z outside D")
    details = {
        "instances": n_instances,
        "subsets": subsets_run,
        "approximate_calls": approx_calls,
        "guarantee_failures": len(failures),
        "first_failures": failures[:5],
    }
    return CriterionResult(6, "density-pipeline", not failures, details)


def criterion_7(seed) -> CriterionResult:
    """Namioka checker: passes built families, rejects both controls."""
    rng = _rng(seed, "c7")
    passes = scaled_caught = dropped_caught = instances = 0
    notes: list[str] = []
    for kind, size, K, levels in _instances():
        instances += 1
        if kind == "chain":
            kw = {}
        else:
            kw = {
                "pairs": gen.seeded_pairs(K, levels[-1], rng, 50),
                "sample_points": _ordinal_samples(K, rng, 40),
            }
        fam = rn.separating_family(K, levels)
        rep = rn.namioka_check(K, fam, levels, subsets=20, seed=seed, **kw)
        if rep.ok:
            passes += 1
        elif len(notes) < 3:
            notes.append(f"{kind}{size}: {rep.norm_problems[:1]} {rep.unseparated}")
        rep3 = rn.namioka_check(K, rn.scale_family(fam, 3), levels, subsets=2, seed=seed, **kw)
        if not rep3.ok and rep3.norm_problems:
            scaled_caught += 1
        deepest = max(f.level for f in fam)
        repd = rn.namioka_check(K, rn.drop_level(fam, deepest), levels, subsets=2, seed=seed, **kw)
        if not repd.ok and repd.unseparated is not None:
            dropped_caught += 1
    details = {
        "instances": instances,
        "passes": passes,
        "scaled_control_caught": scaled_caught,
        "dropped_control_caught": dropped_caught,
        "notes": notes,
    }
    passed = passes == instances and scaled_caught == instances and dropped_caught == instances
    return CriterionResult(7, "namioka-criterion", passed, details)


def criterion_8(seed) -> CriterionResult:
    """|tops| <= |pooled reach| on every simple instance; exact margins."""
    simple_seen = margin_ok = 0
    for sub in _c2_seeds(seed)[:400]:
        st = gen.gen_random_staged(sub)
        rep = weight_bound(st)
        if rep.simple:
            simple_seen += 1
            if rep.margin >= 0:
                margin_ok += 1
    rng = _rng(seed, "c8")
    for _ in range(60):
        st = gen.gen_comb(rng.randrange(2**32))
        rep = weight_bound(st)
        if rep.simple:
            simple_seen += 1
            if rep.margin >= 0:
                margin_ok += 1
    miniature_margins = {}
    for k in range(2, 7):
        rep = weight_bound(gen.gen_split_miniature(k + 1, pool_mode="full"))
        miniature_margins[str(k)] = [rep.n_tops, rep.n_pooled, rep.margin]
    expected = {str(k): [2**k, 2**k - 1, -1] for k in range(2, 7)}
    details = {
        "simple_instances": simple_seen,
        "bound_held": margin_ok,
        "miniature_margins": miniature_margins,
    }
    passed = margin_ok == simple_seen and miniature_margins == expected
    return CriterionResult(8, "weight-bound", passed, details)


CORE = (criterion_1, criterion_2, criterion_3, criterion_4,
        criterion_5, criterion_6, criterion_7, criterion_8)


def run_core(seed=0) -> list[CriterionResult]:
    return [c(seed) for c in CORE]


def result_to_json(r: CriterionResult) -> dict:
    return {"id": r.id, "name": r.name, "passed": r.passed, "details": r.details}


def core_to_json(results) -> dict:
    return {"v": 1, "kind": "acceptance-core",
            "criteria": [result_to_json(r) for r in results]}


def criterion_9(seed, first, spent_seconds) -> CriterionResult:
    """Two runs of the core are byte-identical and inside 300 s.

    `first` is the caller's run of the core, which took `spent_seconds`;
    one fresh run is performed for the comparison.
    """
    t0 = time.monotonic()
    second = run_core(seed)
    elapsed = spent_seconds + (time.monotonic() - t0)
    b1 = canonical_bytes(core_to_json(first))
    b2 = canonical_bytes(core_to_json(second))
    details = {
        "identical": b1 == b2,
        "core_bytes": len(b1),
        "runtime_ok": elapsed < 300.0,
        "core_passed": sum(1 for r in second if r.passed),
    }
    passed = details["identical"] and details["runtime_ok"]
    return CriterionResult(9, "determinism", passed, details)


def run_suite(seed=0) -> dict:
    """All nine criteria as one versioned, canonical report."""
    t0 = time.monotonic()
    core = run_core(seed)
    spent = time.monotonic() - t0
    results = core + [criterion_9(seed, core, spent)]
    return {
        "v": 1,
        "kind": "acceptance-report",
        "seed": seed,
        "passed": all(r.passed for r in results),
        "criteria": [result_to_json(r) for r in results],
    }
