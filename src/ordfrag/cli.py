"""The ordfrag command line tool.

Exit status triage: 0 means the requested check or build succeeded,
1 means a verified negative answer (a refusal, a violated bound, an
unseparated pair) reported as machine-readable JSON, 2 means the
invocation itself was broken (usage, unreadable input, malformed JSON,
or valid JSON of the wrong shape, refused by naming the field), and 3
means a bug: a guaranteed postcondition failed (InternalInconsistency);
any other exception is a bug too, and escapes with its traceback.
All JSON artifacts are emitted canonically: sorted keys, no spaces,
one trailing newline, so identical configurations give identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import random
import re
import sys

from . import space as sp
from .errors import (
    DomainError,
    GuaranteeFailure,
    InternalInconsistency,
    NoRoom,
    NoSubsequence,
    NotSimpleError,
    OrdfragError,
    RangeError,
    canonical_bytes,
    read_digits,
    read_fraction,
)
from .ptree import (
    NODE_CAP,
    build_tree,
    staged_from_json,
    staged_to_dot,
    staged_to_json,
    to_staged,
    tree_from_json,
    tree_to_dot,
    tree_to_json,
    verify_admissible,
)


def _lazy(name: str):
    """The package module `name`, registered now and executed on first use.

    Each command group's modules then load only when one of its commands
    runs, so `tree verify` never compiles `rnwit` or `suite`.
    """
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    setattr(sys.modules[__package__], name, module)
    spec.loader.exec_module(module)
    return module


# reached only through these handles: a name imported from one of them
# at module level would execute it at once
acceptance = _lazy("suite")
frag = _lazy("frag")
gen = _lazy("generators")
openpart = _lazy("openpart")
rn = _lazy("rnwit")
simple = _lazy("simple")


# -- I/O plumbing --------------------------------------------------------------


def _load(text: str, where: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise DomainError(
            f"malformed JSON in {where}: line {err.lineno} column {err.colno}: {err.msg}"
        ) from err
    except RecursionError as err:
        raise DomainError(f"malformed JSON in {where}: nested too deeply") from err
    except ValueError as err:  # an integer longer than int() reads
        raise DomainError(f"malformed JSON in {where}: an integer has too many digits") from err


def _read_doc(args) -> dict:
    path = getattr(args, "infile", None)
    if path is None:
        raise DomainError("this subcommand needs --in FILE (use - for stdin)")
    where = "stdin" if path == "-" else path
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            try:
                with open(path, encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as err:
                raise DomainError(f"cannot read {path}: {err.strerror}") from err
    except UnicodeDecodeError as err:  # bytes that are not UTF-8 text
        raise DomainError(f"malformed JSON in {where}: {err}") from err
    return _load(text, where)


def _emit(doc, args) -> None:
    data = canonical_bytes(doc) + b"\n"
    path = getattr(args, "out", None)
    if path:
        with open(path, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def _write_text(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _space_of(args):
    return sp.space_from_json(_load(args.space, "--space"))


def _doc_space(doc):
    if isinstance(doc, dict) and "space" in doc:
        return sp.space_from_json(doc["space"])
    raise DomainError("no space given: the document embeds none")


def _staged_of(args):
    return staged_from_json(_read_doc(args))


def _levels_of(args):
    doc = _read_doc(args)
    K = _doc_space(doc)
    return K, frag.levels_from_json(K, doc)


def _points(K, text: str):
    """The points of a comma-separated flag. A comma inside parentheses,
    as in the split point (0,-), separates nothing; blank parts are skipped."""
    read = sp.PointCodec(K).read
    return [read(part.strip()) for part in re.split(r",(?![^(]*\))", text) if part.strip()]


def _render_pair(K, pair):
    return [sp.render_point(K, pair[0]), sp.render_point(K, pair[1])]


# -- space ---------------------------------------------------------------------


def cmd_space_show(args) -> int:
    K = _space_of(args)
    size = sp.space_size(K)
    finite = size is not sp.INFINITE
    if finite and size > NODE_CAP:
        raise RangeError(f"space show lists every point: {size} points exceed the cap {NODE_CAP}")
    doc = {
        "v": 1,
        "kind": "space-summary",
        "space": K.to_json(),
        "finite": finite,
        "min": sp.render_point(K, K.minimum()),
        "max": sp.render_point(K, K.maximum()),
    }
    if finite:
        pts = sp.enumerate_points(K)
        doc["points"] = [sp.render_point(K, p) for p in pts]
        doc["size"] = len(pts)
    _emit(doc, args)
    return 0


def cmd_space_sample(args) -> int:
    K = _space_of(args)
    pts = [gen.sample_point(f"{args.seed}:{i}", K) for i in range(args.samples)]
    _emit({
        "v": 1,
        "kind": "points",
        "space": K.to_json(),
        "points": [sp.render_point(K, p) for p in pts],
    }, args)
    return 0


# -- tree ----------------------------------------------------------------------


def cmd_tree_build(args) -> int:
    K = _space_of(args)
    tree = build_tree(K, args.budget)
    verdict = verify_admissible(tree)
    if not verdict.ok:
        bad = verdict.violations[0]
        raise InternalInconsistency(
            f"the built tree fails clause {bad.clause} at nodes {list(bad.nodes)}: {bad.detail}")
    _emit(tree_to_json(tree), args)
    return 0


def _verdict_doc(verdict) -> dict:
    return {
        "v": 1,
        "kind": "verdict",
        "ok": verdict.ok,
        "counts": dict(sorted(verdict.counts.items())),
        "violations": [
            {"clause": bad.clause, "nodes": list(bad.nodes), "detail": bad.detail}
            for bad in verdict.violations
        ],
    }


def cmd_tree_verify(args) -> int:
    tree = tree_from_json(_read_doc(args))
    verdict = verify_admissible(tree)
    _emit(_verdict_doc(verdict), args)
    return 0 if verdict.ok else 1


def cmd_tree_export(args) -> int:
    tree = tree_from_json(_read_doc(args))
    _write_text(tree_to_dot(tree), args.dot)
    return 0


# -- staged --------------------------------------------------------------------


def cmd_staged_gen(args) -> int:
    kind = args.kind
    if kind == "comb":
        st = gen.gen_comb(args.seed, teeth=args.teeth, room=args.room)
    elif kind == "broom":
        st = gen.gen_broom(args.seed)
    elif kind == "two-comb":
        st = gen.gen_two_comb(args.seed)[0]
    elif kind == "random":
        st = gen.gen_random_staged(args.seed, max_nodes=args.nodes)
    elif kind == "miniature":
        st = gen.gen_split_miniature(args.depth, pool_mode=args.pool_mode)
    else:
        st = gen.gen_sibling_tops(args.seed)
    _emit(staged_to_json(st), args)
    return 0


def _level_list(text: str, flag: str) -> list[int]:
    """The levels, digit runs, of a comma-separated flag; blank parts are skipped."""
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not all(map(str.isdecimal, parts)):
        raise DomainError(f"{flag} takes comma-separated levels, got {text!r}")
    return [read_digits(part, f"{flag} level") for part in parts]


def cmd_staged_cut(args) -> int:
    tree = tree_from_json(_read_doc(args))
    pool = _level_list(args.pool, "--pool")
    _emit(staged_to_json(to_staged(tree, args.level, pool, limit_top=args.limit_top)), args)
    return 0


def cmd_staged_check_simple(args) -> int:
    st = _staged_of(args)
    decision = simple.is_simple(st, frozenset(st.tops()))
    doc = simple.decision_to_json(decision)
    _emit(doc, args)
    return 0 if doc["simple"] else 1


def _construct(st, op, args):
    if op == "union":
        st2, parts, assignment = gen.gen_two_comb(args.seed or 0)
        return simple.witness_to_json(simple.union_simple(st2, parts, assignment))
    members = frozenset(st.tops())
    if op == "disjoint":
        return simple.witness_to_json(simple.disjoint_intervals(st, members))
    if op == "cofinal":
        targets = _level_list(args.levels, "--levels") if args.levels else sorted(st.pool)
        if args.levels and not targets:
            raise DomainError(f"--levels takes comma-separated levels, got {args.levels!r}")
        rm = simple.disjoint_intervals(st, members)
        return simple.witness_to_json(simple.transfer_cofinal(st, rm, targets))
    if op == "compose":
        if not st.pool:
            raise DomainError("compose needs a nonempty pool")
        tips = sorted(members, key=st.payload_keys[0].__getitem__)
        t = min(st.pool)
        pi = simple.RegressiveMap({x: st.ancestor_at(x, t) for x in tips})
        fibres: dict[int, list[int]] = {}
        for x in tips:
            fibres.setdefault(pi[x], []).append(x)
        fibre_maps = {}
        for w, fibre in fibres.items():
            fm = simple.is_simple(st, fibre)
            if isinstance(fm, simple.HallViolator):
                raise NotSimpleError(fm, level=st.top_level)
            fibre_maps[w] = fm
        return simple.witness_to_json(simple.compose_fibrewise(st, pi, fibre_maps))
    if op == "bounded":
        br = simple.bounded_regressive(st, members)
        doc = simple.witness_to_json(br.map)
        doc["certificates"] = {
            str(x): {"image": c.image, "bound": c.bound_member, "kind": c.kind}
            for x, c in sorted(br.certificates.items())
        }
        return doc
    if op == "lr":
        left, right = simple.endpoint_LR(st, members)
        return {
            "v": 1,
            "kind": "endpoint-classes",
            "left": sorted(left),
            "right": sorted(right),
            "neither": sorted(members - left - right),
        }
    core = simple.condensation_core(st, members)
    return {
        "v": 1,
        "kind": "condensation-core",
        "ok": core.ok,
        "core": sorted(core.core),
        "left": sorted(core.left),
        "right": sorted(core.right),
        "whole_simple": core.whole_simple,
        "checks": [
            {"member": c.member, "cut": c.cut, "side": c.side,
             "window": c.window_size, "simple": c.window_simple}
            for c in core.checks
        ],
    }


def cmd_staged_construct(args) -> int:
    if args.op == "union" and args.infile is not None:
        raise DomainError("construct union takes no --in: it builds its own two-part instance from --seed")
    st = None if args.op == "union" else _staged_of(args)
    doc = _construct(st, args.op, args)
    _emit(doc, args)
    if doc.get("kind") == "condensation-core" and not doc["ok"]:
        return 1
    return 0


def cmd_staged_partition(args) -> int:
    st = _staged_of(args)
    p = openpart.partition_open(st)
    problems = openpart.verify_open_partition(st, p)
    if problems:
        raise InternalInconsistency(f"the built partition fails: {problems[0]}")
    if args.dot:
        _write_text(staged_to_dot(st, p.as_cell_index()), args.dot)
    _emit(openpart.partition_to_json(p), args)
    return 0


# -- frag ----------------------------------------------------------------------


def _emit_levels(K, levels, args) -> None:
    doc = frag.levels_to_json(K, levels)
    doc["space"] = K.to_json()
    _emit(doc, args)


def cmd_frag_ln(args) -> int:
    st = _staged_of(args)
    levels = frag.ln_decomposition(st, openpart.partition_open(st))
    _emit_levels(st.space, levels, args)
    return 0


def cmd_frag_delta(args) -> int:
    K, levels = _levels_of(args)
    _emit({
        "v": 1,
        "kind": "gap-pairs",
        "space": K.to_json(),
        "levels": [[_render_pair(K, pr) for pr in frag.delta_pairs(K, pts)]
                   for pts in levels],
    }, args)
    return 0


def cmd_frag_density(args) -> int:
    K, levels = _levels_of(args)
    if sp.is_finite_space(K):
        checked, bad = frag.density_sweep(K, levels[-1])
    else:
        pairs = gen.seeded_pairs(K, levels[-1], random.Random(f"{args.seed}:pairs"), args.samples)
        checked, bad = len(pairs), frag.verify_density(K, levels[-1], pairs)
    doc = {"v": 1, "kind": "density", "pairs_checked": checked,
           "ok": bad is None}
    if bad is not None:
        doc["gap"] = _render_pair(K, bad)
    _emit(doc, args)
    return 0 if bad is None else 1


def cmd_frag_check(args) -> int:
    K, levels = _levels_of(args)
    eps = read_fraction(args.eps, "--eps")
    if args.members:
        members = _points(K, args.members)
    elif sp.is_finite_space(K):
        # the witness reads only the two least points
        members = [q for q in (K.minimum(), K.adjacency(K.minimum())[1]) if q is not None]
    else:
        members = levels[-1]
    wit = frag.fragment_check(K, members, eps)
    _emit({
        "v": 1,
        "kind": "fragment",
        "eps": str(eps),
        "lo": None if wit.lo is None else sp.render_point(K, wit.lo),
        "hi": None if wit.hi is None else sp.render_point(K, wit.hi),
        "inside": [sp.render_point(K, q) for q in wit.inside],
        "diameter": str(wit.diameter),
    }, args)
    return 0


def cmd_frag_weight(args) -> int:
    st = _staged_of(args)
    rep = frag.weight_bound(st)
    _emit({
        "v": 1,
        "kind": "weight",
        "simple": rep.simple,
        "tops": rep.n_tops,
        "pooled": rep.n_pooled,
        "margin": rep.margin,
        "hall": None if rep.hall is None else list(rep.hall),
    }, args)
    return 0 if rep.margin >= 0 else 1


# -- rn ------------------------------------------------------------------------


def cmd_rn_witness(args) -> int:
    K, levels = _levels_of(args)
    fam = rn.separating_family(K, levels)
    D = rn.dense_set(K, fam, levels, args.denbound)
    doc = rn.witness_bundle_to_json(K, fam, D, levels)
    doc["space"] = K.to_json()
    _emit(doc, args)
    return 0


def cmd_rn_dense(args) -> int:
    K, levels = _levels_of(args)
    D = rn.dense_set(K, rn.separating_family(K, levels), levels, args.denbound)
    doc = rn.dense_to_json(K, D)
    doc["space"] = K.to_json()
    _emit(doc, args)
    return 0


def cmd_rn_approx(args) -> int:
    doc = _read_doc(args)
    K = _doc_space(doc)
    family, D, _levels = rn.witness_bundle_from_json(K, doc)
    w = sp.parse_point(K, args.point)
    metric = rn.pseudo_metric(family)
    z = rn.approximate(K, w, args.n, metric, D)
    dist = metric.distance(w, z)
    _emit({
        "v": 1,
        "kind": "approximation",
        "w": sp.render_point(K, w),
        "n": args.n,
        "z": sp.render_point(K, z),
        "distance": str(dist),
    }, args)
    return 0


def cmd_rn_check(args) -> int:
    K, levels = _levels_of(args)
    fam = rn.separating_family(K, levels)
    kwargs = {}
    if not sp.is_finite_space(K):
        final = sorted(levels[-1], key=K.key)
        kwargs["pairs"] = gen.seeded_pairs(K, final, random.Random(f"{args.seed}:pairs"),
                                            args.samples)
        kwargs["sample_points"] = final
    rep = rn.namioka_check(K, fam, levels, subsets=args.subsets,
                           seed=args.seed, denominator_bound=args.denbound,
                           **kwargs)
    _emit({
        "v": 1,
        "kind": "namioka",
        "ok": rep.ok,
        "norm_problems": list(rep.norm_problems),
        "unseparated": None if rep.unseparated is None
        else _render_pair(K, rep.unseparated),
        "pairs_checked": rep.pairs_checked,
        "density_failures": list(rep.density_failures),
        "subsets_checked": rep.subsets_checked,
        "points_checked": rep.points_checked,
    }, args)
    return 0 if rep.ok else 1


# -- suite ---------------------------------------------------------------------


def cmd_suite_run(args) -> int:
    report = acceptance.run_suite(args.seed)
    _emit(report, args)
    return 0 if report["passed"] else 1


# -- parser --------------------------------------------------------------------


def _add_io(p, out=True):
    p.add_argument("--in", dest="infile", metavar="FILE",
                   help="input JSON document (- for stdin)")
    if out:
        p.add_argument("--out", metavar="FILE", help="write JSON here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, shared by every call: do not change it."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict]:
    """(the whole parser, {(group, command): the command's own parser}),
    each command's parser recorded as it is added."""
    top = argparse.ArgumentParser(
        prog="ordfrag",
        description="Partition trees, open partitions, graded decompositions, "
                    "and rational separating families over compact chains.")
    groups = top.add_subparsers(dest="group", required=True)
    leaves = {}

    def group(name: str, help: str):
        sub = groups.add_parser(name, help=help).add_subparsers(dest="cmd", required=True)

        def command(cmd: str, help: str) -> argparse.ArgumentParser:
            p = leaves[name, cmd] = sub.add_parser(cmd, help=help)
            return p

        return command

    command = group("space", "describe or sample a space")
    p = command("show", "normalize and summarize a space")
    p.add_argument("--space", required=True, help="inline space JSON")
    p.add_argument("--out")
    p = command("sample", "seeded sample of points")
    p.add_argument("--space", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--out")

    command = group("tree", "build, verify, export partition trees")
    p = command("build", "materialize a budgeted admissible tree")
    p.add_argument("--space", required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--out")
    p = command("verify", "check every admissibility clause")
    _add_io(p)
    p = command("export", "render a tree as DOT")
    _add_io(p, out=False)
    p.add_argument("--dot", metavar="FILE", help="write DOT here (default stdout)")

    command = group("staged", "finite staged miniatures")
    p = command("gen", "seeded staged-tree generators")
    p.add_argument("--kind", default="comb",
                   choices=["comb", "broom", "two-comb", "random", "miniature", "sibling"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--teeth", type=int)
    p.add_argument("--room", type=int)
    p.add_argument("--nodes", type=int, default=18)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--pool-mode", default="no_parent", choices=["no_parent", "full"])
    p.add_argument("--out")
    p = command("cut", "cut a staged tree out of a tree document")
    _add_io(p)
    p.add_argument("--level", type=int, required=True, help="the top level m")
    p.add_argument("--pool", required=True,
                   help="comma-separated pool levels, each below m")
    p.add_argument("--no-limit-top", dest="limit_top", action="store_false",
                   help="the top level does not stand in for a limit stage")
    p = command("check-simple", "decide simplicity of the top level")
    _add_io(p)
    p = command("construct", "run a witness construction")
    p.add_argument("op", choices=["cofinal", "compose", "disjoint", "union",
                                  "bounded", "lr", "core"])
    _add_io(p)
    p.add_argument("--seed", type=int, default=None,
                   help="instance seed for union, which takes no --in and builds its "
                        "own two-part instance")
    p.add_argument("--levels", help="comma-separated target levels for cofinal")
    p = command("partition", "open chain-interval partition")
    _add_io(p)
    p.add_argument("--dot", metavar="FILE", help="also write a colored DOT rendering")

    command = group("frag", "graded decompositions and fragment checks")
    p = command("ln", "graded point decomposition of a staged tree")
    _add_io(p)
    p = command("delta", "gap pairs of every level")
    _add_io(p)
    p = command("density", "gap density of the deepest level")
    _add_io(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=200)
    p = command("check", "small-diameter fragment under the induced metric")
    _add_io(p)
    p.add_argument("--eps", default="1/8", help="diameter bound, a fraction")
    p.add_argument("--members", help="comma-separated points (default: whole space)")
    p = command("weight", "top-level counting bound")
    _add_io(p)

    command = group("rn", "separating families and dense approximants")
    p = command("witness", "bundle: step family plus dense set")
    _add_io(p)
    p.add_argument("--denbound", type=int, default=16)
    p = command("dense", "the countable dense approximant set")
    _add_io(p)
    p.add_argument("--denbound", type=int, default=16)
    p = command("approx", "approximate one point from a witness bundle")
    _add_io(p)
    p.add_argument("--point", required=True)
    p.add_argument("--n", type=int, required=True, help="accuracy 1/n")
    p = command("check", "full Namioka-style criterion")
    _add_io(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--subsets", type=int, default=20)
    p.add_argument("--denbound", type=int, default=16)

    command = group("suite", "the acceptance suite")
    p = command("run", "run all nine criteria, canonical JSON report")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    return top, leaves


# flags that count work to do; 0 or fewer would make a check vacuous
_COUNT_FLAGS = ("samples", "subsets", "nodes")


def _check_counts(args) -> None:
    for flag in _COUNT_FLAGS:
        value = getattr(args, flag, None)
        if value is not None and not 1 <= value <= NODE_CAP:
            raise DomainError(f"--{flag} must lie in 1..{NODE_CAP}, got {value}")


def _parse_args(argv) -> argparse.Namespace:
    """argv parsed by the parser of the command its first two words name,
    the same object that parses those words in the whole parser. Argv
    that names no command, or that the command leaves partly unparsed,
    goes to the whole parser, which words every usage, help and error
    text as it would have."""
    leaf = _parsers()[1].get(tuple(argv[:2]))
    if leaf is not None:
        args, rest = leaf.parse_known_args(argv[2:], argparse.Namespace(group=argv[0], cmd=argv[1]))
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    # looked up at call time, so a replaced handler is the one that runs
    handler = globals()[f"cmd_{args.group}_{args.cmd.replace('-', '_')}"]
    try:
        _check_counts(args)
        return handler(args)
    except NotSimpleError as err:
        _emit({
            "v": 1,
            "kind": "refusal",
            "error": "NotSimple",
            "message": str(err),
            "violator": simple.violator_to_json(err.violator),
        }, args)
        return 1
    except (NoRoom, NoSubsequence, GuaranteeFailure) as err:
        _emit({"v": 1, "kind": "refusal", "error": type(err).__name__,
               "message": str(err)}, args)
        return 1
    except InternalInconsistency as err:
        print(f"ordfrag: internal error: {err}", file=sys.stderr)
        return 3
    except (OrdfragError, OSError) as err:
        print(f"ordfrag: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
