"""No public name, member or constant that nothing in `src/` reads, and
no option that nothing in `src/` sets.

Parses every module of `src/ordfrag`. The underscore prefix is the only
declaration of what is private; everything else is held to five checks:

- a public module-level function or class is referenced somewhere in
  `src/` outside its own definition;
- a public method, property or annotated field of a public class is
  read as an attribute somewhere in `src/` outside the class body;
- a public module-level constant is read somewhere in `src/`;
- a defaulted parameter of a public function, of a public class's
  constructor (an explicit `__init__` or the defaulted fields of a
  dataclass) or of a public method is set by some call in `src/`, by
  keyword, by position or through `*args`/`**kwargs`. An option with
  one value in use is a constant;
- no public dataclass only wraps another public class of `src/`: one
  field, typed as that class, and no method of its own. Its callers can
  hold the class itself.

Tests alone do not keep a name alive: a helper only tests use belongs in
the test that uses it, or in `bruteforce.py` when it is an oracle. Each
check has an allowlist test, so an entry that gains a reader leaves the
allowlist, and a negative control that injects a probe it must flag.
"""

import ast
from pathlib import Path

import ordfrag

SRC = Path(ordfrag.__file__).parent

# module -> names kept without a caller in src/, each with its reason
ALLOWED = {
    # the stricter norm audit planned for criterion 7's norm clause
    ("rnwit", "verify_step_function"),
    # decoders of documents the CLI writes
    ("simple", "witness_from_json"),
    ("openpart", "partition_from_json"),
}

# (module, "Class.member") kept without a reader in src/
ALLOWED_MEMBERS = {
    # perfbench/ordbench/tree_verify.py reads both for its workload
    ("ptree", "PartitionTree.root_id"),
    ("ptree", "StagedTree.origin"),
    # a field of the space document: space_from_json reads it from the
    # document and to_json writes it back, and it shows in every repr
    ("space", "FiniteChain.labels"),
}

# (module, constant) kept without a reader in src/
ALLOWED_CONSTANTS: set[tuple[str, str]] = set()

# (module, function, parameter) kept without a setter in src/
ALLOWED_OPTIONS = {
    # the console entry point reads sys.argv when called without argv
    ("cli", "main", "argv"),
}

# (module, class) kept as a one-field wrapper of another public class
ALLOWED_WRAPPERS: set[tuple[str, str]] = set()


def _modules(sources: dict[str, str] | None = None) -> dict[str, ast.Module]:
    if sources is None:
        sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    return {module: ast.parse(text, module) for module, text in sources.items()}


def _sources(**extra: str) -> dict[str, str]:
    """The modules of `src/`, with `extra` text appended to the named ones."""
    out = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    for module, text in extra.items():
        out[module] += text
    return out


def _exempt(module: str, name: str) -> bool:
    # main looks command handlers up by name; bruteforce holds test oracles
    return name.startswith("cmd_") or module == "bruteforce"


def _definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node


def _references(tree: ast.AST) -> set[str]:
    """Every name read as a bare name or an attribute in `tree`. A
    definition binds its name without reading it; a recursive call
    reads it."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def unreferenced(sources=None) -> list[tuple[str, str]]:
    modules = _modules(sources)
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


# -- members --------------------------------------------------------------------


def _classes(tree: ast.Module):
    return [n for n in _definitions(tree) if isinstance(n, ast.ClassDef)]


def _members(cls: ast.ClassDef):
    """Public methods, properties and annotated fields of cls."""
    for n in cls.body:
        if isinstance(n, ast.FunctionDef) and not n.name.startswith("_"):
            yield n.name
        elif isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name):
            if not n.target.id.startswith("_"):
                yield n.target.id


def _attribute_reads(node: ast.AST) -> set[str]:
    return {
        n.attr for n in ast.walk(node)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }


def unread_members(sources=None) -> list[tuple[str, str]]:
    """(module, "Class.member") for every member of a public class that
    no attribute read in `src/` names outside the class body."""
    modules = _modules(sources)
    reads = [(stmt, _attribute_reads(stmt)) for tree in modules.values() for stmt in tree.body]
    out = []
    for module, tree in modules.items():
        for cls in _classes(tree):
            outside = set().union(*(r for stmt, r in reads if stmt is not cls))
            out += [(module, f"{cls.name}.{m}") for m in _members(cls) if m not in outside]
    return out


def test_every_public_member_is_read_in_src():
    assert sorted(set(unread_members()) - ALLOWED_MEMBERS) == []


def test_the_member_allowlist_holds_only_unread_members():
    # a member that gains a reader leaves the allowlist
    assert sorted(ALLOWED_MEMBERS - set(unread_members())) == []


def test_the_member_guard_flags_an_injected_property():
    probe = (
        "\n\nclass Probe:\n"
        "    size: int\n\n"
        "    @property\n"
        "    def unread(self):\n"
        "        return self.size\n\n"
        "    def _peek(self):\n"
        "        return self.unread\n"
    )
    base = set(unread_members())
    flagged = set(unread_members(_sources(frag=probe))) - base
    # a read inside the class body keeps nothing alive
    assert flagged == {("frag", "Probe.unread")}
    reader = "\n\ndef _probe_reader(p):\n    return p.unread\n"
    assert set(unread_members(_sources(frag=probe, rnwit=reader))) == base


# -- constants ------------------------------------------------------------------


def _constants(tree: ast.Module):
    for n in tree.body:
        if isinstance(n, ast.Assign):
            targets = n.targets
        elif isinstance(n, ast.AnnAssign):
            targets = [n.target]
        else:
            continue
        for t in targets:
            if isinstance(t, ast.Name) and not t.id.startswith("_"):
                yield t.id


def _loads(tree: ast.Module) -> set[str]:
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out.add(n.attr)
    return out


def unread_constants(sources=None) -> list[tuple[str, str]]:
    """(module, name) for every public module-level assignment that no
    load in `src/` reads."""
    modules = _modules(sources)
    used = set().union(*map(_loads, modules.values()))
    return [
        (module, name)
        for module, tree in modules.items()
        for name in _constants(tree)
        if name not in used
    ]


def test_every_public_constant_is_read_in_src():
    assert sorted(set(unread_constants()) - ALLOWED_CONSTANTS) == []


def test_the_constant_allowlist_holds_only_unread_constants():
    # a constant that gains a reader leaves the allowlist
    assert sorted(ALLOWED_CONSTANTS - set(unread_constants())) == []


def test_the_constant_guard_flags_an_injected_constant():
    probe = "\n\nPROBE_LIMIT = 3\n"
    base = set(unread_constants())
    assert set(unread_constants(_sources(ordinal=probe))) - base == {("ordinal", "PROBE_LIMIT")}
    reader = "\n\ndef _probe_reader():\n    return ord_.PROBE_LIMIT\n"
    assert set(unread_constants(_sources(ordinal=probe, ptree=reader))) == base


# -- options --------------------------------------------------------------------


def _options(fn: ast.FunctionDef, skip: int = 0):
    """(position or None, name) of each defaulted parameter of fn, with
    positions counted after the first `skip` parameters; a keyword-only
    one has no position."""
    a = fn.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    out = [(k - skip, x.arg) for k, x in enumerate(positional[first:], first)]
    out += [(None, x.arg) for x, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def _decorator(node, name: str):
    """The decorator of node called `name`, bare or called, or None."""
    for d in node.decorator_list:
        f = d.func if isinstance(d, ast.Call) else d
        if getattr(f, "id", getattr(f, "attr", None)) == name:
            return d
    return None


def _field_options(cls: ast.ClassDef):
    """(position, name) of each defaulted field of a dataclass that
    generates its `__init__`; none otherwise."""
    d = _decorator(cls, "dataclass")
    if d is None or any(
        k.arg == "init" and getattr(k.value, "value", True) is False
        for k in getattr(d, "keywords", ())
    ):
        return []
    out, k = [], 0
    for n in cls.body:
        if not (isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)):
            continue
        v = n.value
        if isinstance(v, ast.Call) and any(
            kw.arg == "init" and getattr(kw.value, "value", True) is False for kw in v.keywords
        ):
            continue  # field(init=False) is no parameter
        if v is not None:
            out.append((k, n.target.id))
        k += 1
    return out


def _callables(tree: ast.Module):
    """(called name, label, options) of every public function, public
    class constructor and public method in tree."""
    for node in _definitions(tree):
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, _options(node)
            continue
        init = next(
            (n for n in node.body if isinstance(n, ast.FunctionDef) and n.name == "__init__"), None
        )
        ctor = _options(init, skip=1) if init is not None else _field_options(node)
        yield node.name, f"{node.name}.__init__", ctor
        for n in node.body:
            if isinstance(n, ast.FunctionDef) and not n.name.startswith("_"):
                skip = 0 if _decorator(n, "staticmethod") else 1
                yield n.name, f"{node.name}.{n.name}", _options(n, skip)


def _sets(call: ast.Call, position, name: str) -> bool:
    if any(isinstance(x, ast.Starred) for x in call.args):
        return True
    if position is not None and len(call.args) > position:
        return True
    return any(k.arg in (name, None) for k in call.keywords)  # None: **kwargs


def unset_options(sources=None) -> list[tuple[str, str, str]]:
    """(module, callable, parameter) for every defaulted parameter that
    no call in `src/` sets. A call matches by the called name, bare or
    as an attribute: a function's or method's own name, a class's name
    for its constructor."""
    modules = _modules(sources)
    calls: dict[str, list[ast.Call]] = {}
    for tree in modules.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                f = n.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(n)
    return [
        (module, label, name)
        for module, tree in modules.items()
        for called, label, options in _callables(tree)
        for position, name in options
        if not any(_sets(c, position, name) for c in calls.get(called, ()))
    ]


def test_every_option_is_set_by_a_caller_in_src():
    assert sorted(set(unset_options()) - ALLOWED_OPTIONS) == []


def test_the_option_allowlist_holds_only_unset_options():
    # an option that gains a setter leaves the allowlist
    assert sorted(ALLOWED_OPTIONS - set(unset_options())) == []


def test_the_option_guard_flags_injected_constructor_and_method_options():
    probe = (
        "\n\nclass Probe:\n"
        "    def __init__(self, a, b=0):\n"
        "        self.a = a\n\n"
        "    def probe_step(self, x, by=1):\n"
        "        return x + by\n\n\n"
        "@dataclass(frozen=True)\n"
        "class ProbeRow:\n"
        "    a: int\n"
        "    b: int = 0\n\n\n"
        "def _probe_use():\n"
        "    return Probe(1).probe_step(2), ProbeRow(1)\n"
    )
    base = set(unset_options())
    assert set(unset_options(_sources(frag=probe))) - base == {
        ("frag", "Probe.__init__", "b"),
        ("frag", "Probe.probe_step", "by"),
        ("frag", "ProbeRow.__init__", "b"),
    }
    # positions count after self, and a dataclass field by its place
    setter = "\n\ndef _probe_set():\n    return Probe(1, 2).probe_step(2, 3), ProbeRow(1, 2)\n"
    assert set(unset_options(_sources(frag=probe, rnwit=setter))) == base


# -- wrappers -------------------------------------------------------------------


def wrappers(sources=None) -> list[tuple[str, str]]:
    """(module, class) for every public dataclass with exactly one field,
    annotated as another public class of `src/`, and no method of its
    own."""
    modules = _modules(sources)
    public = {cls.name for tree in modules.values() for cls in _classes(tree)}
    out = []
    for module, tree in modules.items():
        for cls in _classes(tree):
            fields = [n for n in cls.body if isinstance(n, ast.AnnAssign)]
            if _decorator(cls, "dataclass") is None or len(fields) != 1:
                continue
            if any(isinstance(n, ast.FunctionDef) for n in cls.body):
                continue
            ann = fields[0].annotation
            held = getattr(ann, "id", getattr(ann, "value", None))  # a name or a string
            if held in public - {cls.name}:
                out.append((module, cls.name))
    return out


def test_no_public_dataclass_only_wraps_another_class():
    assert sorted(set(wrappers()) - ALLOWED_WRAPPERS) == []


def test_the_wrapper_allowlist_holds_only_wrappers():
    # a wrapper that gains a method or a field leaves the allowlist
    assert sorted(ALLOWED_WRAPPERS - set(wrappers())) == []


def test_the_wrapper_guard_flags_an_injected_wrapper():
    probe = (
        "\n\n@dataclass(frozen=True)\n"
        "class ProbeBox:\n"
        "    held: HallViolator\n\n\n"
        "@dataclass(frozen=True)\n"
        "class ProbeQuoted:\n"
        "    held: 'RegressiveMap'\n\n\n"
        "@dataclass(frozen=True)\n"
        "class ProbeCount:\n"
        "    held: int\n\n\n"
        "@dataclass(frozen=True)\n"
        "class ProbeView:\n"
        "    held: HallViolator\n\n"
        "    def size(self):\n"
        "        return len(self.held.members)\n"
    )
    base = set(wrappers())
    # a plain field type or a method of its own is no bare wrapper
    assert set(wrappers(_sources(simple=probe))) - base == {
        ("simple", "ProbeBox"),
        ("simple", "ProbeQuoted"),
    }
