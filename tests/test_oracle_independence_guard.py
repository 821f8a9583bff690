"""The definitional tree oracle shares no code with the fast verifier.

`bruteforce.definitional_verify_admissible` re-checks
`ptree.verify_admissible` from the clauses themselves, so `bruteforce`
may take only the tree and verdict records from `ptree`, and the oracle
must compare points through the space, not through their order keys.
This test parses `bruteforce` and fails when it imports any other name
from `ptree` (or the module itself), or when the oracle, or a
`bruteforce` function it calls, reads `key`, `point_key` or a private
name of `ptree`.
"""

import ast
from pathlib import Path

import ordfrag

SRC = Path(ordfrag.__file__).parent
ORACLE = "definitional_verify_admissible"
PTREE_NAMES = {"PartitionTree", "StagedTree", "Verdict", "Violation"}
KEY_NAMES = {"key", "point_key"}


def ptree_private_names() -> set[str]:
    """The module-level names of `ptree` that start with an underscore."""
    names = set()
    for n in ast.parse((SRC / "ptree.py").read_text()).body:
        if isinstance(n, (ast.FunctionDef, ast.ClassDef)):
            names.add(n.name)
        elif isinstance(n, ast.Assign):
            names.update(t.id for t in n.targets if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_")}


FORBIDDEN = KEY_NAMES | ptree_private_names()


def ptree_imports(module: ast.Module) -> list[str]:
    """The names `module` imports from `ptree` beyond the records, and
    "ptree" when it imports the module itself."""
    out = []
    for n in ast.walk(module):
        if isinstance(n, ast.ImportFrom):
            if (n.level, n.module) in ((1, "ptree"), (0, "ordfrag.ptree")):
                out += [a.name for a in n.names if a.name not in PTREE_NAMES]
            elif (n.level, n.module) in ((1, None), (0, "ordfrag")):
                out += [a.name for a in n.names if a.name == "ptree"]
        elif isinstance(n, ast.Import):
            out += ["ptree" for a in n.names if a.name == "ordfrag.ptree"]
    return out


def oracle_reads(module: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each forbidden name read, as a bare name or an
    attribute, by the oracle or a module function it calls."""
    funcs = {n.name: n for n in module.body if isinstance(n, ast.FunctionDef)}
    todo, seen, out = [ORACLE], set(), []
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for n in ast.walk(funcs[name]):
            read = n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else None
            if read in FORBIDDEN:
                out.append((read, n.lineno))
            elif read in funcs:
                todo.append(read)
    return sorted(out)


def test_the_oracle_takes_only_records_from_ptree():
    module = ast.parse((SRC / "bruteforce.py").read_text())
    assert ptree_imports(module) == []
    assert oracle_reads(module) == []


def test_the_guard_flags_an_injected_key_call():
    text = (SRC / "bruteforce.py").read_text()
    anchor = "    K, nodes = tree.space, tree.nodes\n"
    assert text.count(anchor) == 1
    line = text[:text.index(anchor)].count("\n") + 2
    probe = text.replace(anchor, anchor + "    K.key(nodes[0].interval.lo)\n")
    assert oracle_reads(ast.parse(probe)) == [("key", line)]
    # a helper the oracle calls is read too
    helper = text + "\n\ndef _probe(K, p):\n    return ptree._walk(K, p)\n"
    helper = helper.replace(anchor, anchor + "    _probe(K, None)\n")
    assert [name for name, _ in oracle_reads(ast.parse(helper))] == ["_walk"]
    assert ptree_imports(ast.parse("from .ptree import Verdict, _pair_clauses\n")) == ["_pair_clauses"]
    assert ptree_imports(ast.parse("from . import ptree, space\n")) == ["ptree"]
    assert {"_pair_clauses", "_walk", "_PAIR_REPORT_CAP"} <= FORBIDDEN
