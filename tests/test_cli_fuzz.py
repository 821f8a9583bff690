"""Arbitrary JSON through `--in`: every subcommand that reads a document
must answer with exit 0, 1 or 2, and never let an exception escape.

Runs `cli.main` in-process, so an escaping exception fails the test
with its own traceback. Documents are either arbitrary JSON values or
valid documents with one part replaced or removed.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

from ordfrag import cli

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
           | hst.sampled_from(FIELDS + ["0", "1", "w", "w^2", "(0,+)", "part0:1", "1/2", "-1", ""])
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
