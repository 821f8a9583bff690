"""Fixtures shared by the command-line tests."""

import pytest

from ordfrag import cli


@pytest.fixture(scope="module")
def comb0_bundle(tmp_path_factory):
    """The `rn witness` bundle of the seed-0 comb, built in-process."""
    d = tmp_path_factory.mktemp("bundle")
    for argv in (["staged", "gen", "--kind", "comb", "--seed", "0", "--out", d / "comb.json"],
                 ["frag", "ln", "--in", d / "comb.json", "--out", d / "levels.json"],
                 ["rn", "witness", "--in", d / "levels.json", "--out", d / "bundle.json"]):
        assert cli.main([str(a) for a in argv]) == 0
    return d / "bundle.json"
