"""Layers key their points through the space's own `key` method.

`space.point_key` stays defined as part of the package's interface,
and the `bruteforce` oracles call it. Every other module of
`src/ordfrag` keys its points with `K.key` where they enter, so this
test parses each one and fails when it reads the name `point_key` as a
bare name, an attribute or an import.
"""

import ast
from pathlib import Path

import ordfrag

SRC = Path(ordfrag.__file__).parent
ALLOWED = {"space", "bruteforce"}


def point_key_reads(text: str) -> list[int]:
    """Line numbers at which `text` reads or imports `point_key`."""
    out = []
    for n in ast.walk(ast.parse(text)):
        if isinstance(n, ast.Name) and n.id == "point_key":
            out.append(n.lineno)
        elif isinstance(n, ast.Attribute) and n.attr == "point_key":
            out.append(n.lineno)
        elif isinstance(n, ast.ImportFrom) and any(a.name == "point_key" for a in n.names):
            out.append(n.lineno)
    return out


def offenders(sources: dict[str, str]) -> dict[str, list[int]]:
    return {
        module: lines
        for module, text in sorted(sources.items())
        if module not in ALLOWED and (lines := point_key_reads(text))
    }


def test_only_space_and_bruteforce_read_point_key():
    assert offenders({p.stem: p.read_text() for p in SRC.glob("*.py")}) == {}


def test_the_guard_flags_an_injected_call():
    frag = (SRC / "frag.py").read_text()
    probe = "\n\ndef _probe(K, p):\n    return sp.point_key(K, p)\n"
    assert offenders({"frag": frag}) == {}
    assert offenders({"frag": frag + probe}) == {"frag": [frag.count("\n") + 4]}
    imported = "from .space import point_key\n"
    assert offenders({"simple": imported}) == {"simple": [1]}
    # the allowed modules may read it
    assert offenders({"bruteforce": frag + probe}) == {}
