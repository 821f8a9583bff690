"""Each console command executes only the modules its group needs.

`cli` imports `errors`, `space` and `ptree` (and through them `ordinal`)
at once. It registers every other module it uses as a lazy module,
which executes on its first attribute access. Each row runs one
command in a fresh interpreter and lists, through the `exec` audit
event, the package modules whose code ran. A module registered in
`sys.modules` but never executed does not count.
"""

import json
import subprocess
import sys

import pytest

from ordfrag import cli

# the child records every code object that `exec` runs, imports the CLI,
# runs the probe, then the command, and prints the package modules that ran
CHILD = """
import json, pathlib, sys
ran = []
sys.addaudithook(lambda event, args: event == "exec" and ran.append(args[0].co_filename))
import ordfrag.cli
{probe}
code = ordfrag.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else None
package = pathlib.Path(ordfrag.__file__).parent
names = {{p.stem for p in map(pathlib.Path, ran) if p.parent == package}} - {{"__init__"}}
print(json.dumps({{"code": code, "ran": sorted(names)}}))
"""

EAGER = {"errors", "ordinal", "space", "ptree", "cli"}

# (argv, what it executes beyond EAGER); an argument in DOCS is a document path
ROWS = [
    ([], set()),
    (["space", "show", "--space", '{"kind":"finite","size":3}'], set()),
    (["tree", "build", "--space", '{"kind":"finite","size":8}', "--budget", "9"], set()),
    (["tree", "verify", "--in", "@tree"], set()),
    (["staged", "check-simple", "--in", "@comb"], {"simple"}),
    (["staged", "partition", "--in", "@comb"], {"openpart", "simple"}),
    (["frag", "ln", "--in", "@comb"], {"frag", "openpart", "simple"}),
    (["frag", "check", "--in", "@levels"], {"frag"}),
    # rnwit imports frag, which imports openpart and simple only when staging
    (["rn", "witness", "--in", "@levels"], {"rnwit", "frag"}),
]


DOCS = ("@tree", "@comb", "@levels")


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    d = tmp_path_factory.mktemp("lazy")
    tree, comb, levels = (str(d / f"{name[1:]}.json") for name in DOCS)
    for argv in (["tree", "build", "--space", '{"kind":"finite","size":8}', "--budget", "9",
                  "--out", tree],
                 ["staged", "gen", "--kind", "comb", "--seed", "0", "--out", comb],
                 ["frag", "ln", "--in", comb, "--out", levels]):
        assert cli.main(argv) == 0
    return dict(zip(DOCS, (tree, comb, levels)))


def executed(argv, probe=""):
    """(exit code, modules executed) of one command in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", CHILD.format(probe=probe), *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    return out["code"], set(out["ran"])


@pytest.mark.parametrize("argv, extra", ROWS, ids=[" ".join(argv[:2]) or "import" for argv, _ in ROWS])
def test_a_command_executes_only_its_groups_modules(docs, argv, extra):
    code, ran = executed([docs.get(a, a) for a in argv])
    assert code in (None, 0)
    assert ran == EAGER | extra


def test_the_guard_sees_a_lazy_handle_touched_at_import(docs):
    # as if cli read one name of `simple` at module level
    code, ran = executed(["tree", "verify", "--in", docs["@tree"]],
                         probe="ordfrag.cli.simple.is_simple")
    assert code == 0
    assert ran == EAGER | {"simple"}
