"""No public API that nothing in `src/` calls, and no option that
nothing in `src/` sets.

Parses every module of `src/ordfrag` and fails when a public
module-level function or class is referenced nowhere in `src/` outside
its own definition and `__all__`. Tests alone do not keep a name alive:
a helper only tests use belongs in the test that uses it, or in
`bruteforce.py` when it is an oracle.

The same holds for a defaulted parameter of a public module-level
function: some call in `src/` must set it, by keyword, by position or
through `*args`/`**kwargs`. An option with one value in use is a
constant.
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


# (module, function, parameter) kept without a setter in src/
ALLOWED_OPTIONS = {
    # the console entry point reads sys.argv when called without argv
    ("cli", "main", "argv"),
}


def _modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


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
    modules = _modules()
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


def _options(fn: ast.FunctionDef):
    """(position or None, name) of each defaulted parameter of fn; a
    keyword-only one has no position."""
    a = fn.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    out = [(k, x.arg) for k, x in enumerate(positional[first:], first)]
    out += [(None, x.arg) for x, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def _sets(call: ast.Call, position, name: str) -> bool:
    if any(isinstance(x, ast.Starred) for x in call.args):
        return True
    if position is not None and len(call.args) > position:
        return True
    return any(k.arg in (name, None) for k in call.keywords)  # None: **kwargs


def unset_options() -> list[tuple[str, str, str]]:
    """(module, function, parameter) for every defaulted parameter of a
    public module-level function that no call in `src/` sets. A call
    matches by the called name, bare or as an attribute."""
    modules = _modules()
    calls: dict[str, list[ast.Call]] = {}
    for tree in modules.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                f = n.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(n)
    return [
        (module, node.name, name)
        for module, tree in modules.items()
        for node in _definitions(tree)
        if isinstance(node, ast.FunctionDef)
        for position, name in _options(node)
        if not any(_sets(c, position, name) for c in calls.get(node.name, ()))
    ]


def test_every_option_is_set_by_a_caller_in_src():
    assert sorted(set(unset_options()) - ALLOWED_OPTIONS) == []


def test_the_option_allowlist_holds_only_unset_options():
    # an option that gains a setter leaves the allowlist
    assert sorted(ALLOWED_OPTIONS - set(unset_options())) == []
