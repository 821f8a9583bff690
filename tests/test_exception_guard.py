"""No `except` in `src/ordfrag` turns Python's own errors into answers.

A handler that catches `AttributeError`, `IndexError`, `KeyError`,
`TypeError`, `ValueError` or `ZeroDivisionError`, catches `Exception`,
or is bare, hides a bug inside the code it guards behind whatever it
reports instead: a decoder wrapped in one once answered "document of the
wrong shape" for its own faults. Malformed input is refused through the
typed readers of `errors` instead. The few handlers that guard one call
into a parser with no checking alternative are listed below, each with
the call it guards; a listed site that loses its handler leaves the list.
"""

import ast
from pathlib import Path

import ordfrag

SRC = Path(ordfrag.__file__).parent

BROAD = {"AttributeError", "IndexError", "KeyError", "TypeError", "ValueError",
         "ZeroDivisionError", "Exception", "BaseException"}

# (module, function) -> the one call its handler guards
ALLOWED = {
    ("cli", "_load"): "json.loads() of a document, which refuses an overlong integer",
    ("errors", "read_digits"): "int() of a digit run, which refuses an overlong one",
    ("errors", "read_fraction"): "Fraction() of a fraction string",
    ("openpart", "OpenPartition.index_of"): "the cell lookup of a node",
}


def _caught(handler: ast.ExceptHandler) -> set[str]:
    """The exception names a handler catches; a bare one catches everything."""
    if handler.type is None:
        return {"BaseException"}
    kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {k.attr if isinstance(k, ast.Attribute) else getattr(k, "id", "") for k in kinds}


def broad_handlers(sources: dict[str, str] | None = None) -> set[tuple[str, str]]:
    """(module, qualified function) of every broad handler in `src/`."""
    if sources is None:
        sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    found = set()

    def visit(module, node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            if isinstance(child, ast.ExceptHandler) and _caught(child) & BROAD:
                found.add((module, ".".join(scope) or "<module>"))
            visit(module, child, inner)

    for module, text in sources.items():
        visit(module, ast.parse(text, module), ())
    return found


def test_no_broad_handler_outside_the_allowlist():
    assert sorted(broad_handlers() - set(ALLOWED)) == []


def test_the_allowlist_holds_only_broad_handlers():
    # a site that loses its handler leaves the allowlist
    assert sorted(set(ALLOWED) - broad_handlers()) == []


def test_the_guard_flags_an_injected_catch_all():
    probe = (
        "\n\ndef _probe_decoder(fn):\n"
        "    def decode(*args):\n"
        "        try:\n"
        "            return fn(*args)\n"
        "        except TypeError as err:\n"
        "            raise DomainError(str(err)) from err\n"
        "    return decode\n"
        "\n\nclass _Probe:\n"
        "    def read(self, doc):\n"
        "        try:\n"
        "            return doc['x']\n"
        "        except:\n"
        "            return None\n"
    )
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    sources["ptree"] += probe
    assert broad_handlers(sources) - broad_handlers() == {
        ("ptree", "_probe_decoder.decode"), ("ptree", "_Probe.read")}
