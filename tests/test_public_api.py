"""No public API that nothing in `src/` calls.

Parses every module of `src/ordfrag` and fails when a public
module-level function or class is referenced nowhere in `src/` outside
its own definition and `__all__`. Tests alone do not keep a name alive:
a helper only tests use belongs in the test that uses it, or in
`bruteforce.py` when it is an oracle.
"""

import ast
from pathlib import Path

import ordfrag

SRC = Path(ordfrag.__file__).parent

# module -> names kept without a caller in src/, each with its reason
ALLOWED = {
    # the Cantor-Bendixson oracle planned for criterion 5 is built on it
    ("ordinal", "fundamental_sequence"),
    # the stricter norm audit planned for criterion 7's norm clause
    ("rnwit", "verify_step_function"),
    # decoders of documents the CLI writes
    ("simple", "witness_from_json"),
    ("openpart", "partition_from_json"),
    # the checked contract of the default split, which build_tree inlines
    ("space", "canonical_split"),
}


def _exempt(module: str, name: str) -> bool:
    # main looks command handlers up by name; bruteforce holds test oracles
    return name.startswith("cmd_") or module == "bruteforce"


def _definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node


def _references(tree: ast.Module) -> set[str]:
    """Every name read as a bare name or an attribute in `tree`. A
    definition binds its name without reading it, and `__all__` holds
    strings, so neither counts; a recursive call does."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def unreferenced() -> list[tuple[str, str]]:
    modules = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}
    used = set().union(*map(_references, modules.values()))
    return [
        (module, node.name)
        for module, tree in modules.items()
        for node in _definitions(tree)
        if node.name not in used and not _exempt(module, node.name)
    ]


def test_every_public_name_has_a_caller_in_src():
    assert sorted(set(unreferenced()) - ALLOWED) == []


def test_the_allowlist_holds_only_uncalled_names():
    # a name that gains a caller leaves the allowlist
    assert sorted(ALLOWED - set(unreferenced())) == []
