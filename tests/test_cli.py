"""End-to-end runs of the console script in subprocesses.

Everything here shells out for real: the exit-code triage and the
byte-level output contract are part of the interface. The exceptions
call `cli.main` in-process: one replaces a command with one that fails,
some time a refusal that a subprocess's start-up would blur, and the
others check that the parser built once per process dispatches every
subcommand by name, that each command's own parser answers as the whole
parser does, and that in-process calls give the console's bytes. The
heavyweight suite command is exercised in test_acceptance instead.
"""

import argparse
import json
import subprocess
import sys
import time

import pytest

from ordfrag import cli
from ordfrag.errors import GuaranteeFailure, InternalInconsistency
from ordfrag.ptree import Verdict, Violation
from ordfrag.space import SUM_DEPTH_CAP

SPACE8 = '{"kind":"finite","size":8}'

# the decomposition `frag ln` writes for the cut of a w^2 tree at level 3
# with pool 0,1 and --no-limit-top
W2_LEVELS = {"v": 1, "kind": "decomposition", "space": {"kind": "ordinal", "alpha": "w^2"},
             "levels": [["0", "w^2"], ["0", "w^2"], ["0", "w", "w^2"],
                        ["0", "1", "w", "w*2", "w^2"],
                        ["0", "1", "2", "w", "w+1", "w*2", "w*3", "w^2"]]}


def run_cli(*argv, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "ordfrag.cli", *argv],
        capture_output=True, text=True, input=stdin, timeout=120)


def out_json(proc):
    return json.loads(proc.stdout)


def drop_last_parent(doc):
    del doc["nodes"][-1]["parent"]
    return doc


@pytest.fixture(scope="module")
def comb_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "comb.json"
    proc = run_cli("staged", "gen", "--kind", "comb", "--seed", "3",
                   "--teeth", "4", "--room", "3", "--out", str(path))
    assert proc.returncode == 0, proc.stderr
    return path


@pytest.fixture(scope="module")
def levels_file(comb_file, tmp_path_factory):
    path = comb_file.parent / "levels.json"
    proc = run_cli("frag", "ln", "--in", str(comb_file), "--out", str(path))
    assert proc.returncode == 0, proc.stderr
    return path


class TestSpace:
    def test_show_lists_finite_points(self):
        proc = run_cli("space", "show", "--space", SPACE8)
        assert proc.returncode == 0
        doc = out_json(proc)
        assert doc["points"] == [str(i) for i in range(8)]
        assert doc["min"] == "0" and doc["max"] == "7"

    def test_show_ordinal_has_no_point_list(self):
        proc = run_cli("space", "show", "--space", '{"kind":"ordinal","alpha":"w^2"}')
        doc = out_json(proc)
        assert doc["finite"] is False
        assert "points" not in doc
        assert doc["max"] == "w^2"

    def test_sample_is_seed_deterministic(self):
        a = run_cli("space", "sample", "--space", SPACE8, "--seed", "9")
        b = run_cli("space", "sample", "--space", SPACE8, "--seed", "9")
        assert a.stdout == b.stdout
        c = run_cli("space", "sample", "--space", SPACE8, "--seed", "10")
        assert c.stdout != a.stdout

    @pytest.mark.parametrize("space", [
        '{"kind":"finite","size":100000000}',
        '{"kind":"sum","parts":[{"kind":"finite","size":100000000},{"kind":"finite","size":100000000}]}',
    ], ids=["finite", "sum"])
    def test_show_refuses_more_points_than_the_cap(self, capsys, space):
        start = time.perf_counter()
        assert cli.main(["space", "show", "--space", space]) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ordfrag: error: space show lists every point: ")
        assert "Traceback" not in captured.err

    def test_bad_space_json_is_exit_2(self):
        proc = run_cli("space", "show", "--space", '{"kind":')
        assert proc.returncode == 2
        assert "line 1 column" in proc.stderr

    def test_sums_nest_up_to_the_cap(self, tmp_path, capsys):
        def nested(depth):
            doc = {"kind": "finite", "size": 5}
            for _ in range(depth):
                doc = {"kind": "sum", "parts": [doc, {"kind": "finite", "size": 2}]}
            return json.dumps(doc)

        tree, stage = str(tmp_path / "tree.json"), str(tmp_path / "stage.json")
        assert cli.main(["tree", "build", "--space", nested(SUM_DEPTH_CAP), "--budget", "20",
                         "--out", tree]) == 0
        assert cli.main(["tree", "verify", "--in", tree]) == 0
        assert cli.main(["staged", "cut", "--level", "1", "--pool", "0", "--in", tree,
                         "--out", stage]) == 0
        assert cli.main(["staged", "check-simple", "--in", stage]) in (0, 1)
        assert cli.main(["space", "show", "--space", nested(SUM_DEPTH_CAP)]) == 0
        capsys.readouterr()
        for argv in (["space", "show"], ["space", "sample"], ["tree", "build", "--budget", "20"]):
            assert cli.main([*argv, "--space", nested(SUM_DEPTH_CAP + 1)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"ordfrag: error: order sums nest more than {SUM_DEPTH_CAP} deep\n"


class TestTree:
    def test_build_verify_roundtrip(self, tmp_path):
        path = tmp_path / "tree.json"
        built = run_cli("tree", "build", "--space", SPACE8,
                        "--budget", "100", "--out", str(path))
        assert built.returncode == 0
        doc = json.loads(path.read_text())
        assert doc["kind"] == "tree" and doc["v"] == 1
        verified = run_cli("tree", "verify", "--in", str(path))
        assert verified.returncode == 0
        assert out_json(verified)["ok"] is True

    def test_tampered_tree_fails_with_exit_1(self, tmp_path):
        path = tmp_path / "tree.json"
        run_cli("tree", "build", "--space", SPACE8, "--budget", "100",
                "--out", str(path))
        doc = json.loads(path.read_text())
        doc["nodes"][1]["interval"] = ["0", "7"]  # duplicate the root cell
        path.write_text(json.dumps(doc))
        proc = run_cli("tree", "verify", "--in", str(path))
        assert proc.returncode == 1
        report = out_json(proc)
        assert report["ok"] is False and report["violations"]

    def test_repeated_node_id_is_exit_2(self, tmp_path):
        path = tmp_path / "tree.json"
        run_cli("tree", "build", "--space", SPACE8, "--budget", "3", "--out", str(path))
        doc = json.loads(path.read_text())
        doc["nodes"].append(doc["nodes"][1])
        path.write_text(json.dumps(doc))
        proc = run_cli("tree", "verify", "--in", str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "ordfrag: error: node id 1 is repeated\n"

    @pytest.mark.parametrize("budget", ["x", 0, -3, True, [1], {"a": 1}, 2.5], ids=repr)
    def test_a_budget_that_is_not_a_positive_int_is_exit_2(self, tmp_path, capsys, budget):
        """The budget was once never read, and `tree verify` passed the
        tree whatever it held."""
        path = tmp_path / "tree.json"
        assert cli.main(["tree", "build", "--space", SPACE8, "--budget", "9",
                         "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        for value, code in ((budget, 2), (KeyError, 0)):
            if value is KeyError:
                del doc["budget"]
            else:
                doc["budget"] = value
            path.write_text(json.dumps(doc))
            assert cli.main(["tree", "verify", "--in", str(path)]) == code
        captured = capsys.readouterr()
        assert captured.err == f"ordfrag: error: budget {budget!r} is not an int >= 1\n"
        assert json.loads(captured.out)["ok"] is True  # without a budget the tree decodes

    def test_export_writes_dot(self, tmp_path):
        path = tmp_path / "tree.json"
        run_cli("tree", "build", "--space", SPACE8, "--budget", "40",
                "--out", str(path))
        proc = run_cli("tree", "export", "--in", str(path))
        assert proc.returncode == 0
        assert proc.stdout.startswith("digraph tree {")
        assert "->" in proc.stdout

    def test_stdin_dash_works(self, tmp_path):
        path = tmp_path / "tree.json"
        run_cli("tree", "build", "--space", SPACE8, "--budget", "40",
                "--out", str(path))
        proc = run_cli("tree", "verify", "--in", "-", stdin=path.read_text())
        assert proc.returncode == 0


class TestStaged:
    def test_gen_is_deterministic_per_seed(self):
        a = run_cli("staged", "gen", "--kind", "random", "--seed", "12")
        b = run_cli("staged", "gen", "--kind", "random", "--seed", "12")
        assert a.stdout == b.stdout

    def test_miniature_depth_4_counts(self):
        proc = run_cli("staged", "gen", "--kind", "miniature", "--depth", "4",
                       "--pool-mode", "full")
        doc = out_json(proc)
        tops = [r["id"] for r in doc["nodes"] if r["level"] == doc["top_level"]]
        pool = [r["id"] for r in doc["nodes"] if r["level"] in doc["pool"]]
        assert len(tops) == 8 and len(pool) == 7

    def test_check_simple_triage(self, comb_file, tmp_path):
        good = run_cli("staged", "check-simple", "--in", str(comb_file))
        assert good.returncode == 0
        assert out_json(good)["simple"] is True
        mini = tmp_path / "mini.json"
        run_cli("staged", "gen", "--kind", "miniature", "--depth", "3",
                "--out", str(mini))
        bad = run_cli("staged", "check-simple", "--in", str(mini))
        assert bad.returncode == 1
        doc = out_json(bad)
        assert doc["simple"] is False
        assert len(doc["violator"]["members"]) > len(doc["violator"]["neighborhood"])

    @pytest.mark.parametrize("argv, message", [
        (["--kind", "miniature", "--depth", "18"],
         "a miniature of depth 18 has 2^18 - 1 nodes, over the node cap 200000"),
        (["--kind", "miniature", "--depth", "1000000000"],
         "a miniature of depth 1000000000 has 2^1000000000 - 1 nodes, over the node cap 200000"),
        (["--kind", "comb", "--teeth", "700", "--room", "5"],
         "a comb with 700 teeth and room 5 exceeds the node cap 200000"),
        (["--nodes", "0"], "--nodes must lie in 1..200000, got 0"),
        (["--nodes", "-5"], "--nodes must lie in 1..200000, got -5"),
    ], ids=["depth-18", "depth-huge", "comb-700", "nodes-zero", "nodes-negative"])
    def test_gen_past_the_node_cap_is_exit_2(self, capsys, argv, message):
        """Sizes are refused before anything is built: a depth-15
        miniature alone takes about 0.6 s and 54 MB, and each further
        depth doubles that."""
        start = time.perf_counter()
        assert cli.main(["staged", "gen", *argv]) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ordfrag: error: {message}\n"

    @pytest.mark.parametrize("teeth, room", [(3, 0), (3, -1), (3, -2), (0, 2), (-1, 2)])
    def test_comb_without_headroom_is_exit_2(self, capsys, teeth, room):
        argv = ["staged", "gen", "--kind", "comb", "--teeth", str(teeth), "--room", str(room)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"ordfrag: error: a comb needs teeth >= 1 and room >= 1, "
                                f"got teeth={teeth} and room={room}\n")

    def test_union_refuses_an_input_document(self, comb_file, capsys):
        assert cli.main(["staged", "construct", "union", "--in", str(comb_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("ordfrag: error: construct union takes no --in: "
                                "it builds its own two-part instance from --seed\n")

    def test_constructions_emit_witnesses(self, comb_file):
        for op in ("disjoint", "compose", "bounded", "cofinal"):
            proc = run_cli("staged", "construct", op, "--in", str(comb_file))
            assert proc.returncode == 0, (op, proc.stderr)
            assert out_json(proc)["map"]
        union = run_cli("staged", "construct", "union", "--seed", "5")
        assert union.returncode == 0
        assert out_json(union)["kind"] == "regressive-map"

    def test_cut_gives_the_library_bytes_and_feeds_the_pipeline(self, tmp_path):
        from ordfrag.ptree import staged_to_json, to_staged, tree_from_json
        from ordfrag.suite import canonical_bytes

        tree, cut = tmp_path / "tree.json", tmp_path / "cut.json"
        assert run_cli("tree", "build", "--space", '{"kind":"finite","size":16}',
                       "--budget", "64", "--out", str(tree)).returncode == 0
        proc = run_cli("staged", "cut", "--in", str(tree), "--level", "4", "--pool", "0,1,2",
                       "--no-limit-top", "--out", str(cut))
        assert proc.returncode == 0, proc.stderr
        st = to_staged(tree_from_json(json.loads(tree.read_text())), 4, [0, 1, 2],
                       limit_top=False)
        assert cut.read_bytes() == canonical_bytes(staged_to_json(st)) + b"\n"
        levels = tmp_path / "levels.json"
        assert run_cli("frag", "ln", "--in", str(cut), "--out", str(levels)).returncode == 0
        proc = run_cli("rn", "check", "--in", str(levels), "--subsets", "2")
        assert proc.returncode == 0 and out_json(proc)["pairs_checked"] == 120

    @pytest.mark.parametrize("level, pool, message", [
        ("-1", "0", "natural number"),
        ("3", "0,3", "strictly below the top level 3"),
        ("3", "0,x", "--pool takes comma-separated levels"),
        ("30", "0", "tree has no node at the top level 30"),
        ("3", "1_0", "--pool takes comma-separated levels, got '1_0'"),
        ("3", "0,+1", "--pool takes comma-separated levels, got '0,+1'"),
        ("3", "-1", "--pool takes comma-separated levels, got '-1'"),
    ], ids=["negative-level", "pool-at-the-top", "pool-not-a-number", "below-the-deepest-level",
            "pool-underscore", "pool-plus-sign", "pool-minus-sign"])
    def test_bad_cut_is_exit_2(self, tmp_path, capsys, level, pool, message):
        tree = tmp_path / "tree.json"
        assert cli.main(["tree", "build", "--space", SPACE8, "--budget", "20",
                         "--out", str(tree)]) == 0
        assert cli.main(["staged", "cut", "--in", str(tree), "--level", level,
                         "--pool", pool]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ordfrag: error: ") and message in err

    @pytest.mark.parametrize("kind, reshape, argv, message", [
        ("random", None, ["compose"], "the stage carries no payload intervals"),
        ("comb", lambda doc: doc.update(pool=[]), ["compose"], "compose needs a nonempty pool"),
        ("comb", None, ["cofinal", "--levels", "a,b"],
         "--levels takes comma-separated levels, got 'a,b'"),
        ("comb", None, ["cofinal", "--levels", ","],
         "--levels takes comma-separated levels, got ','"),
        ("comb", None, ["cofinal", "--levels", "+5,0_6"],
         "--levels takes comma-separated levels, got '+5,0_6'"),
    ], ids=["compose-without-payload", "compose-empty-pool", "cofinal-levels-not-numbers",
            "cofinal-levels-blank", "cofinal-levels-signed"])
    def test_bad_construct_input_is_exit_2(self, tmp_path, capsys, kind, reshape, argv,
                                           message):
        """Each of these used to leave `staged construct` with a traceback
        (TypeError, ValueError from min() and from int())."""
        stage = tmp_path / "stage.json"
        assert cli.main(["staged", "gen", "--kind", kind, "--seed", "3",
                         "--out", str(stage)]) == 0
        if reshape is not None:
            doc = json.loads(stage.read_text())
            reshape(doc)
            stage.write_text(json.dumps(doc))
        assert cli.main(["staged", "construct", argv[0], "--in", str(stage), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ordfrag: error: {message}\n"

    @pytest.mark.parametrize("op", ["lr", "core"])
    def test_endpoint_classes_over_an_infinite_space_are_exit_2(self, tmp_path, capsys, op):
        """The cut of a 15-node tree over w*2 is a valid stage, but a pool
        ancestor there may start at a limit point, which has no
        predecessor, and the core enumerates the space: both refuse."""
        tree, stage = tmp_path / "tree.json", tmp_path / "stage.json"
        assert cli.main(["tree", "build", "--space", '{"kind":"ordinal","alpha":"w*2"}',
                         "--budget", "15", "--out", str(tree)]) == 0
        assert cli.main(["staged", "cut", "--in", str(tree), "--level", "3", "--pool", "0,1",
                         "--out", str(stage)]) == 0
        capsys.readouterr()
        assert cli.main(["staged", "construct", op, "--in", str(stage)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "ordfrag: error: endpoint classification needs a finite space: a pool ancestor "
            "that starts at a limit point has no predecessor to escape to, and construct "
            "core enumerates the space\n")

    @pytest.mark.parametrize("reshape, message", [
        (lambda doc: doc["nodes"].append(doc["nodes"][-1]), "node id 14 is repeated"),
        (lambda doc: doc["nodes"].insert(0, dict(doc["nodes"][14], parent=0, level=1)),
         "node id 14 is repeated"),
        (lambda doc: doc["nodes"][3].update(level=True), "node 3 level True is not an int"),
        (lambda doc: doc["nodes"][3].update(level=2.0), "node 3 level 2.0 is not an int"),
        (lambda doc: doc.update(top_level=True), "bad top level True"),
        (lambda doc: doc.update(pool=[True]), "pool level True is not an int"),
        (lambda doc: doc.update(pool=[3.0, 4.0]), "pool level 3.0 is not an int"),
    ], ids=["repeated-row", "earlier-conflicting-row", "bool-node-level", "float-node-level",
            "bool-top-level", "bool-pool-level", "float-pool-levels"])
    @pytest.mark.parametrize("argv", [["staged", "check-simple"], ["staged", "construct", "disjoint"],
                                      ["frag", "weight"], ["staged", "partition"]],
                             ids=["check-simple", "disjoint", "weight", "partition"])
    def test_malformed_staged_document_is_exit_2(self, tmp_path, capsys, reshape, message, argv):
        """Each of these used to exit 0, or 1 with a refusal, on a
        document that repeats a node id or gives a level as a bool or a
        float."""
        stage = tmp_path / "comb.json"
        assert cli.main(["staged", "gen", "--kind", "comb", "--teeth", "3", "--room", "2",
                         "--out", str(stage)]) == 0
        doc = json.loads(stage.read_text())
        reshape(doc)
        stage.write_text(json.dumps(doc))
        assert cli.main([*argv, "--in", str(stage)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ordfrag: error: {message}\n"

    def test_compose_maps_tops_sharing_a_pool_ancestor(self, tmp_path, capsys):
        """Several tops of a two-comb sit above each node of the lowest
        pool level; compose gives each such fibre its own simple map."""
        from ordfrag import simple
        from ordfrag.ptree import staged_from_json

        stage = tmp_path / "two.json"
        assert cli.main(["staged", "gen", "--kind", "two-comb", "--seed", "0",
                         "--out", str(stage)]) == 0
        st = staged_from_json(json.loads(stage.read_text()))
        lowest = [st.ancestor_at(x, min(st.pool)) for x in st.tops()]
        assert len(set(lowest)) < len(lowest)
        assert cli.main(["staged", "construct", "compose", "--in", str(stage)]) == 0
        rm = simple.witness_from_json(json.loads(capsys.readouterr().out))
        assert simple.verify_simple_witness(st, st.tops(), rm) == []
        assert simple.verify_disjoint_segments(st, rm) == []

    def test_miniature_refusals_name_the_violator_and_no_missing_bound(self, tmp_path, capsys):
        mini = tmp_path / "mini.json"
        assert cli.main(["staged", "gen", "--kind", "miniature", "--depth", "3",
                         "--out", str(mini)]) == 0
        capsys.readouterr()
        assert cli.main(["staged", "construct", "compose", "--in", str(mini)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert (doc["kind"], doc["error"]) == ("refusal", "NotSimple")
        assert doc["violator"] == {"members": [3, 4, 5, 6], "neighborhood": [0]}
        assert cli.main(["staged", "construct", "bounded", "--in", str(mini)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["message"] == ("no pool level available on the branch of node 3 "
                                  "(no pool ancestor stays below the anchor minimum)")

    def test_partition_refusal_is_machine_readable(self, tmp_path):
        mini = tmp_path / "mini.json"
        run_cli("staged", "gen", "--kind", "miniature", "--depth", "3",
                "--out", str(mini))
        proc = run_cli("staged", "partition", "--in", str(mini))
        assert proc.returncode == 1
        doc = out_json(proc)
        assert doc["kind"] == "refusal" and doc["error"] == "NotSimple"
        assert doc["violator"]["members"]

    def test_partition_dot_colors_cells(self, comb_file, tmp_path):
        dot = tmp_path / "p.dot"
        proc = run_cli("staged", "partition", "--in", str(comb_file),
                       "--dot", str(dot))
        assert proc.returncode == 0
        assert "fillcolor" in dot.read_text()


class TestFrag:
    def test_ln_emits_decomposition_with_space(self, levels_file):
        doc = json.loads(levels_file.read_text())
        assert doc["kind"] == "decomposition"
        assert doc["space"]["kind"] == "finite"
        assert doc["levels"][0] == ["0", "35"]

    def test_delta_gap_pairs(self, levels_file):
        proc = run_cli("frag", "delta", "--in", str(levels_file))
        doc = out_json(proc)
        assert doc["levels"][0] == [["0", "35"]]

    def test_density_negative_names_the_gap(self, levels_file):
        proc = run_cli("frag", "density", "--in", str(levels_file))
        assert proc.returncode == 1
        doc = out_json(proc)
        assert doc["ok"] is False and len(doc["gap"]) == 2

    def test_fragment_witness(self, levels_file):
        proc = run_cli("frag", "check", "--in", str(levels_file),
                       "--eps", "1/4")
        assert proc.returncode == 0
        doc = out_json(proc)
        assert doc["inside"] and doc["diameter"] == "0"

    @pytest.mark.parametrize("space, ends, members, least, second", [
        ({"kind": "split", "size": 3}, ["(0,-)", "(2,+)"], "(1,+), (0,-),(2,-)", "(0,-)", "(1,+)"),
        ({"kind": "sum", "parts": [{"kind": "finite", "size": 2}, {"kind": "split", "size": 2}]},
         ["part0:0", "part1:(1,+)"], "part1:(0,+),part0:1", "part0:1", "part1:(0,+)"),
    ], ids=["split", "sum"])
    def test_members_name_split_points(self, tmp_path, capsys, space, ends, members, least,
                                       second):
        """--members separates points only at commas outside parentheses:
        splitting at every comma once refused (0,-) as '(0'."""
        path = tmp_path / "levels.json"
        path.write_text(json.dumps({"v": 1, "kind": "decomposition", "space": space,
                                    "levels": [ends]}))
        assert cli.main(["frag", "check", "--in", str(path), f"--members={members}"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["lo"], doc["hi"], doc["inside"]) == (None, second, [least])
        assert cli.main(["frag", "check", "--in", str(path), f"--members={members},(0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ordfrag: error: ") and "'(0'" in captured.err

    def test_density_of_a_20000_point_chain(self, tmp_path, capsys):
        # every pair of the chain, read off its adjacent ones
        doc = {"v": 1, "kind": "decomposition", "space": {"kind": "finite", "size": 20000},
               "levels": [["0", "19999"]]}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["frag", "density", "--in", str(path)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out == {"v": 1, "kind": "density", "pairs_checked": 199990000, "ok": False,
                       "gap": ["0", "1"]}
        doc["levels"].append([str(i) for i in range(20000)])
        path.write_text(json.dumps(doc))
        assert cli.main(["frag", "density", "--in", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    @pytest.mark.parametrize("eps", ["abc", "1/0", "inf", "nan", "", "1/2/3", "0x1"])
    def test_eps_that_is_not_a_fraction_is_exit_2(self, levels_file, capsys, eps):
        assert cli.main(["frag", "check", "--in", str(levels_file), f"--eps={eps}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ordfrag: error: --eps {eps!r} is not a fraction string\n"

    def test_weight_triage(self, comb_file, tmp_path):
        good = run_cli("frag", "weight", "--in", str(comb_file))
        assert good.returncode == 0
        assert out_json(good)["margin"] >= 0
        mini = tmp_path / "mini.json"
        run_cli("staged", "gen", "--kind", "miniature", "--depth", "3",
                "--out", str(mini))
        bad = run_cli("frag", "weight", "--in", str(mini))
        assert bad.returncode == 1
        doc = out_json(bad)
        assert doc["hall"] == [4, 1] and doc["margin"] < 0


class TestRn:
    def test_witness_bundle_and_approx(self, levels_file, tmp_path):
        bundle = tmp_path / "bundle.json"
        built = run_cli("rn", "witness", "--in", str(levels_file),
                        "--out", str(bundle))
        assert built.returncode == 0
        doc = json.loads(bundle.read_text())
        assert doc["kind"] == "rn-witness" and doc["family"]
        proc = run_cli("rn", "approx", "--in", str(bundle),
                       "--point", "13", "--n", "4")
        assert proc.returncode == 0
        ans = out_json(proc)
        assert ans["z"]
        num, _, den = ans["distance"].partition("/")
        assert int(num) * 4 < int(den or 1)  # d(w, z) < 1/4, exactly

    @pytest.mark.parametrize("where", ["box", "point"])
    def test_malformed_repeated_text_in_a_bundle_is_exit_2(self, levels_file, tmp_path,
                                                            capsys, where):
        bundle = tmp_path / "bundle.json"
        assert cli.main(["rn", "witness", "--in", str(levels_file), "--out", str(bundle)]) == 0
        text = bundle.read_text()
        doc = json.loads(text)
        if where == "box":
            # every selection repeats the box string of depth 1
            assert text.count('"15/16"') > 1
            text = text.replace('"15/16"', '"15/1x"')
        else:
            # the last copy of a point text the document already used
            last = doc["dense"]["z"][-1]
            assert text.count(f'"{last["z"]}"') > 1
            last["z"] += "x"
            text = json.dumps(doc)
        bundle.write_text(text)
        argv = ["rn", "approx", "--in", str(bundle), "--point", "13", "--n", "4"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("ordfrag: error: ") and "Traceback" not in err

    @pytest.mark.parametrize("field, value", [
        ("n", 0), ("n", "3"), ("n", True), ("n", 2.5), ("n", -1),
        ("box", "1/0"),
        ("denbound", "16"), ("denbound", 16.9),
        ("level", "1"), ("level", True), ("level", 1.5), ("level", -1),
        ("j", "1"), ("j", True), ("j", 1.5), ("j", -1),
        ("family", {}),
        ("v", True),
    ])
    def test_bundle_field_of_the_wrong_type_is_exit_2(self, comb0_bundle, tmp_path, capsys,
                                                       field, value):
        """Each of these once ended in a ZeroDivisionError traceback or
        exited 0 on a coerced value."""
        doc = json.loads(comb0_bundle.read_text())
        dense, sel = doc["dense"], doc["dense"]["z"][0]
        if field == "n":
            doc["family"][0]["n"] = value
        elif field == "box":
            sel["box"][0][0] = value
        elif field in ("level", "j"):
            sel[field] = value
        elif field == "family":
            doc["family"] = value
        else:
            dense[field] = value
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps(doc))
        assert cli.main(["rn", "approx", "--in", str(bundle), "--point", "3", "--n", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ordfrag: error:") and "Traceback" not in captured.err

    def test_dense_set_lists_m_sets(self, levels_file):
        proc = run_cli("rn", "dense", "--in", str(levels_file))
        doc = out_json(proc)
        assert doc["kind"] == "rn-dense"
        assert doc["m"][0][0] == 1

    def test_check_reports_unseparated_pair_on_sparse_levels(self, levels_file):
        proc = run_cli("rn", "check", "--in", str(levels_file),
                       "--subsets", "3")
        assert proc.returncode == 1
        doc = out_json(proc)
        assert doc["ok"] is False and len(doc["unseparated"]) == 2
        assert doc["subsets_checked"] == 0  # separation short-circuits density

    @pytest.mark.parametrize("bound", ["0", "3", "-4"])
    def test_denbound_below_four_is_exit_2(self, levels_file, capsys, bound):
        """The bound is refused before any clause runs, also where
        separation fails and density is never sampled."""
        argv = ["rn", "check", "--in", str(levels_file), "--subsets", "3", f"--denbound={bound}"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "ordfrag: error: denominator bound must be at least 4\n"

    def test_check_passes_on_saturated_chain(self, tmp_path):
        # comb decompositions are sparse, so build a saturated instance
        from ordfrag import space as sp
        from ordfrag.frag import levels_to_json
        from ordfrag.suite import _chain_instance

        K, levels = _chain_instance(8)
        doc = levels_to_json(K, levels)
        doc["space"] = K.to_json()
        lv = tmp_path / "sat.json"
        lv.write_text(json.dumps(doc))
        proc = run_cli("rn", "check", "--in", str(lv), "--subsets", "4")
        assert proc.returncode == 0, proc.stdout
        assert out_json(proc)["ok"] is True


class TestTriage:
    def test_unknown_subcommand_is_exit_2(self):
        proc = run_cli("space", "frobnicate")
        assert proc.returncode == 2

    def test_malformed_json_names_the_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"kind": "staged",')
        proc = run_cli("staged", "check-simple", "--in", str(path))
        assert proc.returncode == 2
        assert "column" in proc.stderr and "broken.json" in proc.stderr

    @pytest.mark.parametrize("cmd, reshape, message", [
        ("tree verify", lambda doc: doc, "not a tree document"),
        ("tree verify", lambda doc: {"v": 1, "kind": "tree", "space": doc["space"]}, "'nodes'"),
        ("staged check-simple", drop_last_parent, "'parent'"),
        ("frag delta", lambda doc: 5, "no space given"),
        ("frag density", lambda doc: {"v": 1, "kind": "decomposition", "space": doc["space"],
                                      "levels": []}, "at least level 0"),
    ], ids=["staged-as-tree", "tree-without-nodes", "node-without-parent", "number",
            "no-levels"])
    def test_wrong_document_kind_is_exit_2(self, comb_file, tmp_path, cmd, reshape, message):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(reshape(json.loads(comb_file.read_text()))))
        proc = run_cli(*cmd.split(), "--in", str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith("ordfrag: error: ")
        assert message in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("cmd", ["frag delta", "frag density", "frag check", "rn witness",
                                     "rn dense", "rn approx --point 1 --n 2", "rn check"])
    def test_document_commands_take_no_space_flag(self, levels_file, capsys, cmd):
        """These read the space their document embeds."""
        with pytest.raises(SystemExit) as exc:
            cli.main([*cmd.split(), "--in", str(levels_file), "--space", SPACE8])
        assert exc.value.code == 2
        assert "unrecognized arguments: --space" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["space", "sample", "--space", SPACE8, "--samples", "-3"],
        ["space", "sample", "--space", SPACE8, "--samples", "200001"],
        ["frag", "density", "--in", "W2", "--samples", "0"],
        ["frag", "density", "--in", "W2", "--samples", "-4"],
        ["frag", "density", "--in", "/no/such/file.json", "--samples", "0"],
        ["rn", "check", "--in", "W2", "--samples", "-1"],
        ["rn", "check", "--in", "W2", "--samples", "200001"],
        ["rn", "check", "--in", "W2", "--subsets", "0"],
        ["rn", "check", "--in", "W2", "--subsets", "200001"],
    ], ids=["sample-negative", "sample-past-cap", "density-zero", "density-negative",
            "density-unread", "check-samples-negative", "check-samples-past-cap",
            "check-subsets-zero", "check-subsets-past-cap"])
    def test_count_flags_outside_one_to_the_cap_are_exit_2(self, tmp_path, capsys, argv):
        """A count of 0 or less used to pass a check on no pairs at all
        (`frag density` printed ok with pairs_checked 0 on [0, w^2]).
        The flag is refused before any input is read."""
        path = tmp_path / "w2.json"
        path.write_text(json.dumps(W2_LEVELS))
        argv = [str(path) if a == "W2" else a for a in argv]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        flag, value = argv[-2:]
        assert captured.err == f"ordfrag: error: {flag} must lie in 1..200000, got {value}\n"

    def test_count_flags_accept_one(self, tmp_path, capsys):
        path = tmp_path / "w2.json"
        path.write_text(json.dumps(W2_LEVELS))
        assert cli.main(["space", "sample", "--space", SPACE8, "--samples", "1"]) == 0
        assert len(json.loads(capsys.readouterr().out)["points"]) == 1
        assert cli.main(["frag", "density", "--in", str(path), "--samples", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["pairs_checked"] == 1

    def test_internal_inconsistency_is_exit_3(self, monkeypatch, capsys):
        def broken(args):
            raise InternalInconsistency("postcondition failed")

        # the parser is built by this first call; the patched handler must still run
        assert cli.main(["space", "show", "--space", SPACE8]) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "cmd_space_show", broken)
        assert cli.main(["space", "show", "--space", SPACE8]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "ordfrag: internal error: postcondition failed\n"

    def test_a_failed_tree_self_check_is_exit_3(self, monkeypatch, capsys):
        def failing(tree):
            return Verdict(False, (Violation("binary-split", (0,), "probe"),))

        monkeypatch.setattr(cli, "verify_admissible", failing)
        assert cli.main(["tree", "build", "--space", SPACE8, "--budget", "9"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("ordfrag: internal error: the built tree fails clause "
                                "binary-split at nodes [0]: probe\n")

    def test_a_failed_partition_self_check_is_exit_3(self, comb_file, monkeypatch, capsys):
        monkeypatch.setattr(cli.openpart, "verify_open_partition", lambda st, p: ["cover: probe"])
        assert cli.main(["staged", "partition", "--in", str(comb_file)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "ordfrag: internal error: the built partition fails: cover: probe\n"

    def test_guarantee_failure_refusal_bytes(self, levels_file, tmp_path, monkeypatch, capsys):
        bundle = tmp_path / "bundle.json"
        assert cli.main(["rn", "witness", "--in", str(levels_file), "--denbound", "4",
                         "--out", str(bundle)]) == 0

        def missing(K, w, n, metric, D):
            raise GuaranteeFailure("probe miss", w=w, n=n, k=0, gap=None, u=None, v=None,
                                   z=None, distance=None)

        monkeypatch.setattr(cli.rn, "approximate", missing)
        assert cli.main(["rn", "approx", "--in", str(bundle), "--point", "1", "--n", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ('{"error":"GuaranteeFailure","kind":"refusal",'
                                '"message":"probe miss","v":1}\n')
        assert captured.err == ""

    def test_every_subcommand_has_its_handler(self):
        def choices(parser):
            (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            return sub.choices

        leaves = {f"cmd_{group}_{cmd.replace('-', '_')}"
                  for group, gp in choices(cli.build_parser()).items() for cmd in choices(gp)}
        assert all(callable(getattr(cli, name, None)) for name in leaves)
        assert leaves == {name for name in vars(cli) if name.startswith("cmd_")}

    def test_in_process_calls_match_the_console_bytes(self, comb_file, tmp_path, capsysbinary):
        tree_file = tmp_path / "tree.json"
        assert run_cli("tree", "build", "--space", SPACE8, "--budget", "9",
                       "--out", str(tree_file)).returncode == 0
        for argv in (["frag", "weight", "--in", str(comb_file)],
                     ["tree", "verify", "--in", str(tree_file)]):
            proc = run_cli(*argv)
            assert cli.main(argv) == proc.returncode
            assert capsysbinary.readouterr().out.decode() == proc.stdout

    def test_imports_without_numpy(self):
        code = "import sys; sys.modules['numpy'] = None; import ordfrag.cli"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_missing_file_is_exit_2(self):
        proc = run_cli("frag", "weight", "--in", "/no/such/file.json")
        assert proc.returncode == 2

    def test_outputs_are_canonical_bytes(self, comb_file):
        a = run_cli("staged", "check-simple", "--in", str(comb_file))
        b = run_cli("staged", "check-simple", "--in", str(comb_file))
        assert a.stdout == b.stdout
        assert a.stdout.endswith("\n")
        assert ": " not in a.stdout.splitlines()[0]


def _subcommands(parser) -> dict:
    """{(group, command): the command's parser}, read off the parser itself."""
    def choices(p):
        (sub,) = (a for a in p._actions if isinstance(a, argparse._SubParsersAction))
        return sub.choices

    return {(group, cmd): leaf for group, gp in choices(parser).items()
            for cmd, leaf in choices(gp).items()}


SUBCOMMANDS = _subcommands(cli.build_parser())
COMMAND_IDS = [" ".join(k) for k in sorted(SUBCOMMANDS)]


def _valid_argv(group, cmd) -> list[str]:
    """A command line that sets every argument of the command."""
    argv = [group, cmd]
    for a in SUBCOMMANDS[group, cmd]._actions:
        if isinstance(a, argparse._HelpAction):
            continue
        value = a.choices[-1] if a.choices else "2" if a.type is int else "x"
        argv += [a.option_strings[-1]] if a.nargs == 0 else [*a.option_strings[-1:], value]
    return argv


def _malformed_argvs(group, cmd) -> list[list[str]]:
    valid = _valid_argv(group, cmd)
    out = [valid + ["--bogus", "1"], valid + ["extra"], valid + ["-h"], [group, cmd, "-h"],
           [group, "nocommand"], ["nogroup", cmd], [group], []]
    for a in SUBCOMMANDS[group, cmd]._actions:
        if a.option_strings and a.nargs is None:
            at = valid.index(a.option_strings[-1])
            if a.required:
                out.append(valid[:at] + valid[at + 2:])
            if a.type is int:
                out.append(valid[:at + 1] + ["x"] + valid[at + 2:])
    return out


def _outcome(parse, argv, capsys):
    """(namespace or exit code, stdout, stderr) of one parse."""
    try:
        result = parse(argv)
    except SystemExit as exc:
        result = ("exit", exc.code)
    captured = capsys.readouterr()
    return result, captured.out, captured.err


class TestDispatch:
    """`main` parses with the parser of the command its first two words
    name; it must answer exactly as the whole parser does."""

    def test_every_subcommand_is_recorded(self):
        assert set(cli._parsers()[1]) == set(SUBCOMMANDS)
        assert all(cli._parsers()[1][k] is leaf for k, leaf in SUBCOMMANDS.items())

    @pytest.mark.parametrize("group, cmd", sorted(SUBCOMMANDS), ids=COMMAND_IDS)
    def test_a_valid_argv_parses_as_the_whole_parser_does(self, monkeypatch, group, cmd):
        argv = _valid_argv(group, cmd)
        whole = cli.build_parser().parse_args(argv)
        # the command's own parser answers without the whole parser
        monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("the whole parser ran"))
        assert cli._parse_args(argv) == whole
        assert (whole.group, whole.cmd) == (group, cmd)

    @pytest.mark.parametrize("group, cmd", sorted(SUBCOMMANDS), ids=COMMAND_IDS)
    def test_a_malformed_argv_fails_as_the_whole_parser_does(self, capsys, group, cmd):
        for argv in _malformed_argvs(group, cmd):
            fast = _outcome(cli._parse_args, argv, capsys)
            whole = _outcome(cli.build_parser().parse_args, argv, capsys)
            assert fast == whole, argv
            assert fast[0][0] == "exit", argv
