"""No fast path builds a `TreeNode`.

A partition tree is kept as position-indexed columns. Only its `nodes`
view makes node records, for the oracles of `bruteforce` and for tests.
This test counts every `TreeNode.__init__` call while trees are built,
verified, cut, written and read, in process and through the `tree
build`, `tree verify`, `tree export` and `staged cut` commands, and
requires none; `len(tree.nodes)` builds none either. Negative controls
read nodes through the view and must be counted.
"""

import pytest

from ordfrag import cli, ptree
from ordfrag.ordinal import add, from_int, parse
from ordfrag.space import FiniteChain, OrderSum, OrdinalInterval, SplitChain

SPACES = (
    FiniteChain(300),
    SplitChain(90),
    OrdinalInterval(parse("w^2*3+5")),
    OrderSum((FiniteChain(9), OrdinalInterval(parse("w^2+3")), SplitChain(7))),
)


@pytest.fixture
def built(monkeypatch) -> list:
    """The ids of the TreeNodes constructed from here on."""
    made = []
    init = ptree.TreeNode.__init__

    def counting(self, id, *args, **kwargs):
        made.append(id)
        init(self, id, *args, **kwargs)

    monkeypatch.setattr(ptree.TreeNode, "__init__", counting)
    return made


def broken_copy(tree):
    """`tree` with one node's level raised by two, through `make_tree`
    rows read off the columns: verifying it walks the tree and sweeps."""
    ids, lo, hi, levels, parents, _ = tree.columns
    rows = [list(r) for r in zip(ids, lo, hi, levels, parents)]
    rows[-1][3] = add(rows[-1][3], from_int(2))
    rows[-2][1:3] = rows[0][1:3]
    return ptree.make_tree(tree.space, [tuple(r) for r in rows], tree.budget)


@pytest.mark.parametrize("K", SPACES, ids=lambda K: type(K).__name__)
def test_the_library_builds_no_node(built, K):
    tree = ptree.build_tree(K, 301)
    assert len(tree.nodes) == 301
    assert ptree.verify_admissible(tree).ok
    st = ptree.to_staged(tree, 4, {0, 2})
    assert st.tops()
    decoded = ptree.tree_from_json(ptree.tree_to_json(tree))
    assert ptree.verify_admissible(decoded).ok
    assert ptree.to_staged(decoded, 3, {1}).tops()
    assert "->" in ptree.tree_to_dot(decoded)
    assert not ptree.verify_admissible(broken_copy(tree)).ok
    assert built == []


def test_the_tree_commands_build_no_node(built, tmp_path):
    doc, dot, cut = (str(tmp_path / name) for name in ("tree.json", "tree.dot", "cut.json"))
    space = '{"kind":"sum","parts":[{"kind":"finite","size":9},{"kind":"ordinal","alpha":"w^2"}]}'
    assert cli.main(["tree", "build", "--space", space, "--budget", "301", "--out", doc]) == 0
    assert cli.main(["tree", "verify", "--in", doc, "--out", str(tmp_path / "verdict.json")]) == 0
    assert cli.main(["tree", "export", "--in", doc, "--dot", dot]) == 0
    assert cli.main(["staged", "cut", "--in", doc, "--level", "3", "--pool", "0,1", "--out", cut]) == 0
    assert built == []


def test_the_guard_counts_nodes_read_through_the_view(built):
    tree = ptree.build_tree(FiniteChain(300), 301)
    assert len(tree.nodes) == 301 and built == []
    node = tree.nodes[7]
    assert tree.nodes[7] is node and built == [7]  # built once, then kept
    built.clear()
    assert len(list(tree.nodes.values())) == 301
    assert built == list(range(301)) and tree.nodes[7] is node
