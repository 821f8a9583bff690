"""Arbitrary JSON through `--in` and `--space`, and arbitrary text
through the free-text flags: every subcommand that reads a document, an
inline space or such a flag must answer with exit 0, 1 or 2, and never
let an exception escape.

Runs `cli.main` in-process, so an escaping exception fails the test
with its own traceback. Documents are either arbitrary JSON values or
valid documents with one part replaced or removed.
"""

import functools
import json
import operator
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

from ordfrag import cli
from ordfrag import generators as gen
from ordfrag.errors import DomainError
from ordfrag.openpart import partition_open, partition_from_json, partition_to_json
from ordfrag.ordinal import parse
from ordfrag.ptree import NODE_CAP, build_tree, staged_to_json, tree_to_json
from ordfrag.simple import is_simple, witness_from_json, witness_to_json
from ordfrag.space import FiniteChain, OrderSum, OrdinalInterval, SplitChain

# every subcommand with --in, with the flags it needs and the kind of
# document it reads
DOC_COMMANDS = [
    (["tree", "verify"], "tree"),
    (["tree", "export"], "tree"),
    (["staged", "cut", "--level", "1", "--pool", "0"], "tree"),
    (["staged", "check-simple"], "staged"),
    (["staged", "construct"], "staged"),  # the operation is drawn separately
    (["staged", "partition"], "staged"),
    (["frag", "ln"], "staged"),
    (["frag", "delta"], "decomposition"),
    (["frag", "density", "--samples", "20"], "decomposition"),
    (["frag", "check"], "decomposition"),
    (["frag", "weight"], "staged"),
    (["rn", "witness", "--denbound", "4"], "decomposition"),
    (["rn", "dense", "--denbound", "4"], "decomposition"),
    (["rn", "approx", "--point", "1", "--n", "2"], "rn-witness"),
    (["rn", "check", "--samples", "10", "--subsets", "2", "--denbound", "4"], "decomposition"),
]

FIELDS = ["v", "kind", "space", "nodes", "id", "parent", "level", "interval", "payload",
          "top_level", "pool", "limit_top", "levels", "size", "alpha", "parts", "labels",
          "budget", "family", "dense", "tree", "staged", "decomposition", "finite", "ordinal",
          "split", "sum", "rn-witness"]

scalars = (hst.none() | hst.booleans() | hst.integers(-3, 40)
           | hst.floats(allow_nan=False, allow_infinity=False, width=32)
           | hst.sampled_from(FIELDS + ["0", "1", "w", "w^2", "(0,+)", "part0:1", "1/2", "1/0",
                                        "-1", ""])
           | hst.text(max_size=6))
json_values = hst.recursive(
    scalars,
    lambda kids: hst.lists(kids, max_size=4)
    | hst.dictionaries(hst.sampled_from(FIELDS) | hst.text(max_size=4), kids, max_size=4),
    max_leaves=12,
)


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """Valid documents of every kind the subcommands read."""
    where = tmp_path_factory.mktemp("fuzz")
    docs = {}

    def make(*argv):
        path = where / f"doc{len(docs)}.json"
        assert cli.main([*argv, "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        docs[doc["kind"]] = doc
        return path

    make("tree", "build", "--space", '{"kind":"sum","parts":[{"kind":"finite","size":3},'
                                     '{"kind":"ordinal","alpha":"w"}]}', "--budget", "9")
    comb = make("staged", "gen", "--kind", "comb", "--seed", "1", "--teeth", "2", "--room", "2")
    levels = make("frag", "ln", "--in", str(comb))
    make("rn", "witness", "--in", str(levels), "--denbound", "4")
    return where, docs


def paths(doc, here=()):
    """Every place inside a JSON value, as key/index paths."""
    yield here
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from paths(v, here + (k,))
    elif isinstance(doc, list):
        for k, v in enumerate(doc):
            yield from paths(v, here + (k,))


@hst.composite
def near_misses(draw, doc):
    doc = json.loads(json.dumps(doc))
    where = draw(hst.sampled_from(list(paths(doc))[1:]))
    holder = doc
    for k in where[:-1]:
        holder = holder[k]
    how = draw(hst.sampled_from(["delete", "scalar", "value"]))
    if how == "delete":
        del holder[where[-1]]
    else:
        holder[where[-1]] = draw(scalars if how == "scalar" else json_values)
    return doc


@given(data=hst.data())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_documents_never_escape_the_triage(documents, capsys, data):
    where, docs = documents
    argv, kind = data.draw(hst.sampled_from(DOC_COMMANDS))
    if argv[-1] == "construct":
        argv = argv + [data.draw(hst.sampled_from(["cofinal", "compose", "disjoint", "bounded", "lr",
                                                   "core"]))]
    doc = data.draw(json_values | near_misses(docs[kind]) | near_misses(docs[kind]))
    path = where / "input.json"
    path.write_text(json.dumps(doc))
    code = cli.main([*argv, "--in", str(path)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, doc, err)
    assert "Traceback" not in err


# every subcommand that takes an inline --space; `space show` lists every
# point of a finite space, so generated sizes stay small
SPACE_COMMANDS = [["space", "show"], ["space", "sample"], ["tree", "build", "--budget", "9"]]

space_leaves = (
    hst.builds(lambda n: {"kind": "finite", "size": n}, hst.integers(1, 16))
    | hst.builds(lambda n: {"kind": "finite", "size": n, "labels": [f"x{i}" for i in range(n)]},
                 hst.integers(1, 4))
    | hst.builds(lambda a: {"kind": "ordinal", "alpha": a},
                 hst.sampled_from(["0", "3", "w", "w*2+1", "w^2", "w^3*2+w+3"]))
    | hst.builds(lambda n: {"kind": "split", "size": n}, hst.integers(1, 8))
)
space_docs = hst.recursive(
    space_leaves,
    lambda kids: hst.lists(kids, min_size=1, max_size=3).map(lambda ps: {"kind": "sum", "parts": ps}),
    max_leaves=6,
)


@given(data=hst.data())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_inline_spaces_never_escape_the_triage(capsys, data):
    argv = data.draw(hst.sampled_from(SPACE_COMMANDS))
    doc = data.draw(space_docs | space_docs.flatmap(near_misses) | json_values)
    code = cli.main([*argv, f"--space={json.dumps(doc)}"])  # "=": the JSON may start with "-"
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, doc, err)
    assert "Traceback" not in err


# each free-text flag, with the command that reads it and the kind of
# document that command reads through --in
TEXT_FLAGS = [
    (["frag", "check"], "--eps", "decomposition"),
    (["frag", "check"], "--members", "decomposition"),
    (["rn", "approx", "--n", "2"], "--point", "rn-witness"),
    (["staged", "cut", "--level", "1"], "--pool", "tree"),
    (["staged", "construct", "cofinal"], "--levels", "staged"),
]

near_texts = hst.sampled_from(["1/0", "inf", "-inf", "nan", "", ",", " ", ",,", "1/2/3", "0x1",
                               "1e3", "1_0", "-1", "0", "1", "2", "1/8", "-1/8", "w", "w^2",
                               "(0,+)", "part0:1", "True", "None", "\x00", "\u0661"])
flag_texts = (hst.text(max_size=8) | near_texts
              | hst.lists(near_texts | hst.text(max_size=3), min_size=1, max_size=4).map(",".join))


@given(data=hst.data())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_free_text_flags_never_escape_the_triage(documents, capsys, data):
    where, docs = documents
    argv, flag, kind = data.draw(hst.sampled_from(TEXT_FLAGS))
    text = data.draw(flag_texts)
    path = where / f"{kind}.json"
    path.write_text(json.dumps(docs[kind]))
    code = cli.main([*argv, "--in", str(path), f"{flag}={text}"])  # "=": the text may start with "-"
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, flag, text, err)
    assert "Traceback" not in err


# every command that reads a staged document through --in
STAGED_COMMANDS = [
    ["staged", "check-simple"],
    *(["staged", "construct", op] for op in ("disjoint", "bounded", "lr", "core", "cofinal",
                                             "compose")),
    ["staged", "partition"],
    ["frag", "ln"],
    ["frag", "weight"],
]

stages = hst.one_of(
    hst.builds(gen.gen_comb, hst.integers(0, 50)),
    hst.builds(gen.gen_broom, hst.integers(0, 50)),
    hst.builds(gen.gen_random_staged, hst.integers(0, 50)),
    hst.builds(gen.gen_split_miniature, hst.integers(2, 4)),
    hst.builds(gen.gen_sibling_tops, hst.integers(0, 50)),
).map(staged_to_json)


def wrong_ids(x):
    """Stand-ins for an id or a parent x that JSON can carry but that are
    not ints: its text, its float, a bool; for a root's null parent, 0's."""
    x = 0 if x is None else x
    return hst.sampled_from([str(x), float(x), True, False])


@hst.composite
def malformed_stages(draw):
    """A generated stage with one malformation: a repeated row, an
    earlier row that conflicts with a later one, a level that is a bool
    or a float, an id or a parent that is not an int, or a limit_top
    that is not a bool."""
    doc = draw(stages)
    rows = doc["nodes"]
    k = draw(hst.integers(0, len(rows) - 1))
    how = draw(hst.sampled_from(["repeat", "conflict", "node-level", "top-level", "pool", "id",
                                 "parent", "limit-top"]))
    if how == "repeat":
        rows.append(dict(rows[k]))
    elif how == "conflict":
        clash = dict(rows[k], parent=draw(hst.sampled_from([None, 0, k])),
                     level=draw(hst.integers(0, doc["top_level"])))
        rows.insert(draw(hst.integers(0, k)), clash)
    elif how == "node-level":
        rows[k]["level"] = draw(hst.sampled_from([True, False, float(rows[k]["level"])]))
    elif how == "top-level":
        doc["top_level"] = draw(hst.booleans())
    elif how == "pool":
        levels = doc["pool"] or [0]
        doc["pool"] = doc["pool"] + [draw(hst.sampled_from([True, False, float(levels[-1])]))]
    elif how == "limit-top":
        doc["limit_top"] = draw(hst.sampled_from(["no", "true", 0, 1, 1.0, None]))
    else:
        rows[k][how] = draw(wrong_ids(rows[k][how]))
    return doc


def assert_exit_2(commands, flag, capsys, doc) -> list[str]:
    """Each command, given `flag` (an --in or --space argument), exits 2
    with nothing on stdout and one error line on stderr; the lines, in
    the order of `commands`."""
    errors = []
    for argv in commands:
        code = cli.main([*argv, flag])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), (argv, doc, captured.err)
        assert captured.err.startswith("ordfrag: error: ") and "Traceback" not in captured.err
        errors.append(captured.err)
    return errors


@given(doc=malformed_stages())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_malformed_stages_are_exit_2(tmp_path, capsys, doc):
    path = tmp_path / "stage.json"
    path.write_text(json.dumps(doc))
    assert_exit_2(STAGED_COMMANDS, f"--in={path}", capsys, doc)


# every command that reads a tree document through --in
TREE_COMMANDS = [["tree", "verify"], ["staged", "cut", "--level", "1", "--pool", "0"]]

trees = hst.builds(
    lambda K, budget: tree_to_json(build_tree(K, budget)),
    hst.sampled_from([FiniteChain(9), OrdinalInterval(parse("w^2")), SplitChain(4),
                      OrderSum((FiniteChain(3), OrdinalInterval(parse("w"))))]),
    hst.integers(3, 30),
)


@hst.composite
def malformed_trees(draw):
    """A built tree with one malformation: a repeated row, or an id or a
    parent that is not an int."""
    doc = draw(trees)
    rows = doc["nodes"]
    k = draw(hst.integers(0, len(rows) - 1))
    how = draw(hst.sampled_from(["repeat", "id", "parent"]))
    if how == "repeat":
        rows.append(dict(rows[k]))
    else:
        rows[k][how] = draw(wrong_ids(rows[k][how]))
    return doc


@given(doc=malformed_trees())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_malformed_trees_are_exit_2(tmp_path, capsys, doc):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(doc))
    assert_exit_2(TREE_COMMANDS, f"--in={path}", capsys, doc)


# nesting past what Python's recursion limit lets a decoder walk: JSON
# arrays 200,000 deep, and order sums 330 deep (about 20 KB)
DEEP_ARRAY = "[" * 200_000
DEEP_SUM = {"kind": "finite", "size": 3}
for _ in range(330):
    DEEP_SUM = {"kind": "sum", "parts": [DEEP_SUM]}


@pytest.mark.parametrize("argv,kind", DOC_COMMANDS, ids=lambda a: " ".join(a) if isinstance(a, list) else a)
def test_deep_nesting_through_in_is_exit_2(documents, capsys, argv, kind):
    where, docs = documents
    if argv[-1] == "construct":
        argv = argv + ["disjoint"]
    path = where / f"deep-{kind}.json"
    for text in (DEEP_ARRAY, json.dumps(dict(docs[kind], space=DEEP_SUM))):
        path.write_text(text)
        assert_exit_2([argv], f"--in={path}", capsys, text[:40])


@pytest.mark.parametrize("argv", SPACE_COMMANDS, ids=" ".join)
def test_deep_nesting_through_space_is_exit_2(capsys, argv):
    for text in (DEEP_ARRAY, json.dumps(DEEP_SUM)):
        assert_exit_2([argv], f"--space={text}", capsys, text[:40])


@pytest.mark.parametrize("argv, kind", [(TREE_COMMANDS[0], "tree"), (STAGED_COMMANDS[0], "staged")],
                         ids=["tree", "staged"])
def test_node_rows_past_the_cap_are_refused_before_any_is_read(documents, tmp_path, capsys,
                                                                argv, kind):
    _, docs = documents
    path = tmp_path / "nodes.json"
    # an empty row fails its decoder, so only a refusal before decoding
    # names the cap; at the cap itself the rows are decoded
    for rows, cap_named in ((NODE_CAP + 1, True), (NODE_CAP, False)):
        path.write_text(json.dumps(dict(docs[kind], nodes=[{}] * rows)))
        (err,) = assert_exit_2([argv], f"--in={path}", capsys, rows)
        assert (f"{rows} node rows exceed the node cap {NODE_CAP}" in err) == cap_named, err


# every command that reads a decomposition through --in
DECOMPOSITION_COMMANDS = [argv for argv, kind in DOC_COMMANDS if kind == "decomposition"]


@pytest.mark.parametrize("levels, field", [("ab", "levels"), ({"0": ["0"]}, "levels"),
                                           (["0", "1"], "level row"), ([["0"], "01"], "level row")],
                         ids=["string", "object", "string-rows", "one-string-row"])
def test_decomposition_levels_that_are_not_lists_are_exit_2(documents, tmp_path, capsys,
                                                             levels, field):
    """A string of levels was once read as the point texts of its letters."""
    _, docs = documents
    doc = dict(docs["decomposition"], levels=levels)
    path = tmp_path / "levels.json"
    path.write_text(json.dumps(doc))
    for err in assert_exit_2(DECOMPOSITION_COMMANDS, f"--in={path}", capsys, doc):
        assert f"{field} is not a list" in err, err


@pytest.mark.parametrize("value", [3, None, ["0"]], ids=repr)
def test_a_level_row_point_that_is_not_a_string_is_exit_2(documents, tmp_path, capsys, value):
    _, docs = documents
    doc = dict(docs["decomposition"], levels=[docs["decomposition"]["levels"][0], [value]])
    path = tmp_path / "levels.json"
    path.write_text(json.dumps(doc))
    for err in assert_exit_2(DECOMPOSITION_COMMANDS, f"--in={path}", capsys, doc):
        assert f"expected a point text in a level row, got {value!r}" in err, err


@pytest.mark.parametrize("value", [3, 2.5, True, None, "1/0", "half", ["1/2"], {"1/2": 1}],
                         ids=repr)
def test_box_bound_that_is_not_a_fraction_string_is_exit_2(comb0_bundle, tmp_path, capsys,
                                                            value):
    """A JSON number or bool where a box bound belongs was once read as
    a fraction and answered with exit 0."""
    argv = ["rn", "approx", "--point", "3", "--n", "2"]
    assert cli.main([*argv, f"--in={comb0_bundle}"]) == 0
    capsys.readouterr()
    doc = json.loads(comb0_bundle.read_text())
    doc["dense"]["z"][0]["box"][0][0] = value
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(doc))
    (err,) = assert_exit_2([argv], f"--in={path}", capsys, value)
    assert f"box bound {value!r} is not a fraction string" in err, err


# -- every field the readers read, deleted or given another JSON type ----------

# one value of each JSON type; a field is given each one not of its own
# type (a parent's type is int or null)
WRONG_TYPES = [None, True, 2.5, 7, "x", [7], {"x": 7}]
OWN_TYPES = {"parent": (int, type(None))}
DELETE = object()
# fields a document may leave out, and fields no command reads
OPTIONAL = {"budget", "limit_top", "labels"}
UNREAD = {"rn-witness": {"levels"}}


def fields(doc, here=()):
    """The path of every object field in doc, descending into the first
    and the last entry of each list."""
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield here + (k,)
            yield from fields(v, here + (k,))
    elif isinstance(doc, list):
        for i in sorted({0, len(doc) - 1} if doc else ()):
            yield from fields(doc[i], here + (i,))


def mutations(doc, optional=OPTIONAL, unread=()):
    """(field name, copy of doc) for each field of doc deleted, unless it
    is optional, and for each value of another JSON type put in its place."""
    for where in fields(doc):
        if where[0] in unread:
            continue
        *up, name = where
        own = OWN_TYPES.get(name, (type(functools.reduce(operator.getitem, up, doc)[name]),))
        for value in ([] if name in optional else [DELETE]) + WRONG_TYPES:
            if type(value) in own:
                continue
            bad = json.loads(json.dumps(doc))
            holder = functools.reduce(operator.getitem, up, bad)
            if value is DELETE:
                del holder[name]
            else:
                holder[name] = value
            yield name, bad


def names(name: str, message: str) -> bool:
    """message names the field, as a word, with its underscores read as
    spaces where it has any."""
    return any(re.search(rf"\b{re.escape(n)}\b", message) for n in (name, name.replace("_", " ")))


def refusal(argv, flag, capsys) -> str:
    """The one error line that `argv` with `flag` must exit 2 with."""
    code = cli.main([*argv, flag])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, ""), (argv, captured.err)
    assert captured.err.startswith("ordfrag: error: ") and captured.err.count("\n") == 1, captured.err
    return captured.err


@pytest.mark.parametrize("kind", ["tree", "staged", "decomposition", "rn-witness"])
def test_every_field_of_a_document_is_refused_by_name(documents, tmp_path, capsys, kind):
    where, docs = documents
    commands = [argv + ["disjoint"] if argv[-1] == "construct" else argv
                for argv, k in DOC_COMMANDS if k == kind]
    path = tmp_path / "doc.json"
    unnamed = []
    for name, bad in mutations(docs[kind], unread=UNREAD.get(kind, ())):
        path.write_text(json.dumps(bad))
        for argv in commands:
            err = refusal(argv, f"--in={path}", capsys)
            if not names(name, err):
                unnamed.append((name, argv, err))
    assert unnamed == []


SPACES = [{"kind": "finite", "size": 3, "labels": ["a", "b", "c"]}, {"kind": "ordinal", "alpha": "w^2"},
          {"kind": "split", "size": 4},
          {"kind": "sum", "parts": [{"kind": "split", "size": 2}, {"kind": "ordinal", "alpha": "w"}]}]


@pytest.mark.parametrize("doc", SPACES, ids=lambda d: d["kind"])
def test_every_field_of_an_inline_space_is_refused_by_name(capsys, doc):
    for argv in SPACE_COMMANDS:
        assert cli.main([*argv, f"--space={json.dumps(doc)}"]) == 0
    capsys.readouterr()
    unnamed = []
    for name, bad in mutations(doc):
        for argv in SPACE_COMMANDS:
            err = refusal(argv, f"--space={json.dumps(bad)}", capsys)
            if not names(name, err):
                unnamed.append((name, argv, err))
    assert unnamed == []


def test_a_box_bound_that_is_a_list_is_refused_by_name(comb0_bundle, tmp_path, capsys):
    """It was once hashed by the cached bound parser first, and refused
    as `unhashable type: 'list'` without naming the field."""
    doc = json.loads(comb0_bundle.read_text())
    doc["dense"]["z"][0]["box"] = [[["1/2"], "1"]]
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(doc))
    err = refusal(["rn", "approx", "--point", "3", "--n", "2"], f"--in={path}", capsys)
    assert err == "ordfrag: error: box bound ['1/2'] is not a fraction string\n"


def _witness():
    st = gen.gen_comb(1)
    return witness_to_json(is_simple(st, frozenset(st.tops())))


def _partition():
    return partition_to_json(partition_open(gen.gen_comb(1)))


@pytest.mark.parametrize("decode, make", [(witness_from_json, _witness),
                                          (partition_from_json, _partition)],
                         ids=["regressive-map", "open-partition"])
def test_decoders_with_no_command_refuse_only_with_domain_error(decode, make):
    doc = make()
    assert decode(json.loads(json.dumps(doc))) is not None
    # a map may leave out any of its members
    for name, bad in mutations(doc, OPTIONAL | set(doc.get("map", ()))):
        with pytest.raises(DomainError) as err:
            decode(bad)
        assert names(name, str(err.value)), (name, err.value)


# -- digit runs longer than int() reads (4300 digits by default) ----------------

LONG = "1" * 5000


@pytest.mark.parametrize("field, text, message", [
    ("interval", "part" + LONG + ":0", "sum part index has 5000 digits"),
    ("interval", "part0:" + LONG, "chain point has 5000 digits"),
    ("interval", "part1:" + LONG, "ordinal term has 5000 digits"),
    ("interval", "part1:w^" + LONG, "ordinal exponent has 5000 digits"),
    ("interval", "part1:w*" + LONG, "ordinal coefficient has 5000 digits"),
    ("level", LONG, "ordinal term has 5000 digits"),
    ("level", "w^" + LONG, "ordinal exponent has 5000 digits"),
    ("budget", None, "an integer has too many digits"),
], ids=lambda x: x[:12] if isinstance(x, str) else repr(x))
def test_an_overlong_digit_run_in_a_tree_is_exit_2(documents, tmp_path, capsys, field, text,
                                                    message):
    """int() raises ValueError on such a run, which once escaped as a
    traceback with exit 1, the status of a verified negative answer."""
    _, docs = documents
    doc = json.loads(json.dumps(docs["tree"]))
    if field == "interval":
        doc["nodes"][0]["interval"][1] = text
    elif field == "level":
        doc["nodes"][0]["level"] = text
    path = tmp_path / "tree.json"
    # json.dumps cannot write an int that long either, so it goes in as text
    path.write_text(json.dumps(doc).replace('"v": 1', f'"{field}": {LONG}, "v": 1')
                    if text is None else json.dumps(doc))
    for err in assert_exit_2(TREE_COMMANDS, f"--in={path}", capsys, (field, text and text[:12])):
        assert message in err, err


def test_an_overlong_digit_run_in_a_split_point_is_exit_2(tmp_path, capsys):
    path = tmp_path / "tree.json"
    assert cli.main(["tree", "build", "--space", '{"kind":"split","size":4}', "--budget", "9",
                     "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["nodes"][0]["interval"][1] = f"({LONG},+)"
    path.write_text(json.dumps(doc))
    (err,) = assert_exit_2(TREE_COMMANDS[:1], f"--in={path}", capsys, "split")
    assert "split point has 5000 digits" in err, err


@pytest.mark.parametrize("key, message", [(LONG, "map key has 5000 digits"), ("-1", "bad map key '-1'"),
                                          ("07x", "bad map key '07x'")], ids=["long", "negative", "letter"])
def test_a_map_key_that_is_not_a_digit_run_is_a_domain_error(key, message):
    doc = _witness()
    doc["map"][key] = 0
    with pytest.raises(DomainError, match=message):
        witness_from_json(doc)
