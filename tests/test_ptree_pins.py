"""Pinned outputs of tree building and verification, and a guard on how
often they validate points.

The digests, verdicts and error texts below are fixed values: building
and verifying must reproduce them byte for byte, including the
exceptions raised for endpoints outside the space.
"""

import hashlib
import json
import random

import pytest

from ordfrag import space as sp
from ordfrag.bruteforce import definitional_verify_admissible
from ordfrag.errors import DomainError
from ordfrag.ordinal import ZERO, add, from_int, parse
from ordfrag.ptree import (StagedTree, build_tree, make_tree, to_staged, tree_from_json, tree_to_json,
                           verify_admissible)
from ordfrag.space import ClosedInterval, FiniteChain, OrderSum, OrdinalInterval, SplitChain

W = parse("w")
ONE, TWO = from_int(1), from_int(2)

SPACES = {
    "finite": FiniteChain(2000),
    "ordinal": OrdinalInterval(parse("w^3*2+w^2*3+5")),
    "split": SplitChain(1500),
    "sum": OrderSum((FiniteChain(40), OrdinalInterval(parse("w^2+3")), SplitChain(30))),
    "nested-sum": OrderSum((SplitChain(5), OrderSum((FiniteChain(7), OrdinalInterval(W))))),
}

BUILT_DIGESTS = {
    ("finite", 25): "ee296388e85a13f39cc8ef88f95bee9587457ffb3e2d9d2af44ecaa98ae4c84a",
    ("finite", 301): "a6da6ea6290813a58a7f43882284f7cdf3d89a4f07bdcd13cb2f10c6621e0641",
    ("finite", 3001): "cecdef6ce078feba5a1fbe34a0cdf6fbb1f57644cc82452b7145bce8122059d3",
    ("ordinal", 25): "71188342e9e5a41c487b808b00d405171f6f93786e5ab6f7b75150b5a5d7b8c9",
    ("ordinal", 301): "9cf06bf62e0393bb11f58a25a6b89df5dc2432f9fe34d93c8842042a3cc7fc69",
    ("ordinal", 3001): "34133489e78e2c066e474bfd6439c5c2d80dbe8dc1d11b5d2f1f7a5b04484951",
    ("split", 25): "f946eb58c188180fd94ac9bc8faf54fa9322571e0f1a6570241ec4c50129f945",
    ("split", 301): "c08f8ffbecbbaf185a52c28ab8dd3a767a28d1e107c9cc23931a2cbb4c218c49",
    ("split", 3001): "bacf6aca7e615dd178ee3dbd5d725fc010df5a61c5cd18c9937bac331a36e538",
    ("sum", 25): "5e4e75cf6c42143ebbc38d8aff2805f1465a2a803772b34459b908fa1a8283b0",
    ("sum", 301): "eff9336852616c31e9cd2f8f1c960830812e83f9e62338dcff669063a66d2070",
    ("sum", 3001): "1c3c92401664cd8e0ced8e31ec433327047cf2b83ee2ed7e017add4608ed6c3e",
    ("nested-sum", 25): "97a76e1d6ce8454dd8d131bd0093a0baebf135e349dc7e66f306c5399cf7f560",
    ("nested-sum", 301): "caf60e353638d15c72e571e7237c037af0c2660702cdb6791b468f5d67d3db39",
    ("nested-sum", 3001): "65e806276406e35aabdfbc86537d9cc986d172e901126631a3fd4136c1cf9406",
}


def digest(tree) -> str:
    return hashlib.sha256(json.dumps(tree_to_json(tree), sort_keys=True).encode()).hexdigest()


def verdict_rows(v):
    return (v.ok, dict(v.counts), [(x.clause, x.nodes, x.detail) for x in v.violations])


def outcome(verify, tree):
    """The whole outcome of verifying a tree: its verdict rows, or the
    text of the DomainError an endpoint outside the space raises."""
    try:
        return verdict_rows(verify(tree))
    except DomainError as err:
        return str(err)


@pytest.mark.parametrize("kind, budget", sorted(BUILT_DIGESTS))
def test_built_tree_bytes_are_pinned(kind, budget):
    tree = build_tree(SPACES[kind], budget)
    assert len(tree.nodes) == budget
    assert digest(tree) == BUILT_DIGESTS[kind, budget]


SUM3 = OrderSum((FiniteChain(3), OrdinalInterval(W), SplitChain(2)))
RI = "tree order and reverse interval inclusion disagree"
SPLIT = "children do not split at a single interior point"
ORDER = ("nontrivial", "interval endpoints out of order")
EMPTY = ("nontrivial", "interval has 0 points")

# (space, rows, expected verdict rows or the DomainError text raised)
BROKEN = {
    "finite-high-outside": (
        FiniteChain(5),
        [(0, 0, 4, ZERO, None), (1, 0, 2, ONE, 0), (2, 2, 7, ONE, 0)],
        "7 is not a point of FiniteChain(size=5, labels=None)",
    ),
    "finite-root-outside": (
        FiniteChain(5),
        [(0, 0, 7, ZERO, None), (1, 0, 3, ONE, 0), (2, 3, 7, ONE, 0)],
        "7 is not a point of FiniteChain(size=5, labels=None)",
    ),
    "finite-leaf-outside": (
        FiniteChain(5),
        [(0, 0, 4, ZERO, None), (1, 0, 2, ONE, 0), (2, 2, 4, ONE, 0), (3, 2, 3, TWO, 2),
         (4, 3, 9, TWO, 2)],
        "9 is not a point of FiniteChain(size=5, labels=None)",
    ),
    "ordinal-outside": (
        OrdinalInterval(W),
        [(0, ZERO, W, ZERO, None), (1, ZERO, ONE, ONE, 0), (2, ONE, parse("w+1"), ONE, 0)],
        "Ordinal(terms=((1, 1), (0, 1))) is not a point of OrdinalInterval(alpha=Ordinal(terms=((1, 1),)))",
    ),
    "ordinal-limit-outside": (
        OrdinalInterval(parse("w^2")),
        [(0, ZERO, parse("w^2"), ZERO, None), (1, ZERO, W, ONE, 0), (2, W, parse("w^2"), ONE, 0),
         (3, W, parse("w^3"), W, 2)],
        "Ordinal(terms=((3, 1),)) is not a point of OrdinalInterval(alpha=Ordinal(terms=((2, 1),)))",
    ),
    "split-outside": (
        SplitChain(3),
        [(0, (0, 0), (2, 1), ZERO, None), (1, (0, 0), (1, 0), ONE, 0), (2, (1, 0), (2, 1), ONE, 0),
         (3, (1, 0), (9, 0), TWO, 2), (4, (9, 0), (2, 1), TWO, 2)],
        "(9, 0) is not a point of SplitChain(size=3)",
    ),
    "sum-outside": (
        SUM3,
        [(0, (0, 0), (2, (1, 1)), ZERO, None), (1, (0, 0), (1, ZERO), ONE, 0),
         (2, (1, ZERO), (2, (1, 1)), ONE, 0), (3, (0, 0), (0, 99), TWO, 1), (4, (0, 99), (1, ZERO), TWO, 1)],
        "99 is not a point of FiniteChain(size=3, labels=None)",
    ),
    "sum-missing-part": (
        OrderSum((FiniteChain(3), FiniteChain(3))),
        [(0, (0, 0), (1, 2), ZERO, None), (1, (0, 0), (0, 2), ONE, 0), (2, (0, 2), (1, 2), ONE, 0),
         (3, (0, 0), (0, 1), TWO, 1), (4, (5, 0), (5, 1), TWO, 1)],
        "(5, 0) is not a point of an order sum with 2 parts",
    ),
    "split-string": (
        SplitChain(3),
        [(0, (0, 0), (2, 1), ZERO, None), (1, (0, 0), (1, 0), ONE, 0), (2, (1, 0), (2, 1), ONE, 0),
         (3, (1, 0), "a", TWO, 2), (4, "a", (2, 1), TWO, 2)],
        "'a' is not a point of SplitChain(size=3)",
    ),
    "split-string-unordered": (
        SplitChain(3),
        [(0, (0, 0), (2, 1), ZERO, None), (1, (0, 0), (1, 0), ONE, 0), (2, (1, 0), (2, 1), ONE, 0),
         (3, (1, 0), "ab", TWO, 2), (4, "ab", (2, 1), TWO, 2)],
        "'ab' is not a point of SplitChain(size=3)",
    ),
    "reversed-leaf": (
        FiniteChain(5),
        [(0, 0, 4, ZERO, None), (1, 0, 2, ONE, 0), (2, 4, 2, ONE, 0)],
        (False, {"binary-split": 1, "nontrivial": 2, "reverse-inclusion": 1},
         [("binary-split", (0, 1, 2), SPLIT), (ORDER[0], (2,), ORDER[1]), (EMPTY[0], (2,), EMPTY[1]),
          ("reverse-inclusion", (1, 2), RI)]),
    ),
    "reversed-split": (
        FiniteChain(5),
        [(0, 0, 4, ZERO, None), (1, 0, 2, ONE, 0), (2, 2, 4, ONE, 0), (3, 0, 3, TWO, 1), (4, 3, 2, TWO, 1)],
        (False, {"binary-split": 1, "nontrivial": 2, "reverse-inclusion": 3, "comparability": 1},
         [("binary-split", (1, 3, 4), SPLIT), (ORDER[0], (4,), ORDER[1]), (EMPTY[0], (4,), EMPTY[1]),
          ("reverse-inclusion", (1, 3), RI), ("reverse-inclusion", (2, 4), RI),
          ("reverse-inclusion", (3, 4), RI),
          ("comparability", (2, 3), "overlapping intervals on incomparable nodes")]),
    ),
    "reversed-root": (
        FiniteChain(5),
        [(0, 4, 0, ZERO, None), (1, 4, 2, ONE, 0), (2, 2, 0, ONE, 0)],
        (False, {"root": 1, "nontrivial": 6, "binary-split": 1, "reverse-inclusion": 2},
         [("root", (0,), "root interval is not the whole space"), (ORDER[0], (0,), ORDER[1]),
          (EMPTY[0], (0,), EMPTY[1]), ("binary-split", (0, 2, 1), SPLIT), (ORDER[0], (1,), ORDER[1]),
          (EMPTY[0], (1,), EMPTY[1]), (ORDER[0], (2,), ORDER[1]), (EMPTY[0], (2,), EMPTY[1]),
          ("reverse-inclusion", (0, 1), RI), ("reverse-inclusion", (0, 2), RI)]),
    ),
}


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_broken_tree_verdicts_are_pinned(name):
    K, rows, want = BROKEN[name]
    tree = make_tree(K, rows)
    if isinstance(want, str):
        with pytest.raises(DomainError) as err:
            verify_admissible(tree)
        assert str(err.value) == want
    else:
        assert verdict_rows(verify_admissible(tree)) == want


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_broken_trees_match_the_definitional_oracle(name):
    K, rows, _ = BROKEN[name]
    tree = make_tree(K, rows)
    assert outcome(verify_admissible, tree) == outcome(definitional_verify_admissible, tree)


# the DomainError text of a one-level cut, or None when the cut succeeds
STAGED_CUTS = {
    "finite-high-outside": "7 is not a point of FiniteChain(size=5, labels=None)",
    "finite-root-outside": "7 is not a point of FiniteChain(size=5, labels=None)",
    "finite-leaf-outside": None,
    "ordinal-outside": "Ordinal(terms=((1, 1), (0, 1))) is not a point of "
                       "OrdinalInterval(alpha=Ordinal(terms=((1, 1),)))",
    "reversed-leaf": "payload of 2 out of order",
    "reversed-split": None,
    "reversed-root": "payload of 0 out of order",
}


@pytest.mark.parametrize("name", sorted(STAGED_CUTS))
def test_cuts_of_broken_trees_are_pinned(name):
    K, rows, _ = BROKEN[name]
    tree = make_tree(K, rows)
    if STAGED_CUTS[name] is None:
        assert len(to_staged(tree, 1, {0}).nodes()) == 3
    else:
        with pytest.raises(DomainError) as err:
            to_staged(tree, 1, {0})
        assert str(err.value) == STAGED_CUTS[name]


def staged(parent, level, payload):
    return StagedTree(parent=parent, level=level, top_level=max(level.values()), pool=frozenset({0}),
                      payload={i: ClosedInterval(*p) for i, p in payload.items()},
                      space=FiniteChain(5))


FORK = ({0: None, 1: 0, 2: 0}, {0: 0, 1: 1, 2: 1})
PATH = ({5: None, 3: 5, 1: 3}, {5: 0, 3: 1, 1: 2})  # the child comes first in id order
STAGED_PAYLOADS = {
    "child-outside": (FORK, {0: (0, 4), 1: (0, 2), 2: (2, 9)},
                      "9 is not a point of FiniteChain(size=5, labels=None)"),
    "parent-hi-outside": (PATH, {5: (0, 4), 3: (0, 7), 1: (0, 2)},
                          "7 is not a point of FiniteChain(size=5, labels=None)"),
    "parent-lo-outside": (PATH, {5: (0, 4), 3: (-1, 4), 1: (0, 2)},
                          "-1 is not a point of FiniteChain(size=5, labels=None)"),
    "escape-before-parent-hi": (PATH, {5: (0, 4), 3: (1, 7), 1: (0, 2)},
                                "7 is not a point of FiniteChain(size=5, labels=None)"),
    "reversed": (FORK, {0: (0, 4), 1: (2, 0), 2: (2, 4)}, "payload of 1 out of order"),
    "trivial": (FORK, {0: (0, 4), 1: (0, 0), 2: (0, 4)}, "payload of 1 is trivial"),
    "root-not-whole": (FORK, {0: (0, 3), 1: (0, 2), 2: (2, 3)}, "root payload must be the whole space"),
    "escapes": (({0: None, 1: 0, 2: 0, 3: 1, 4: 1}, {0: 0, 1: 1, 2: 1, 3: 2, 4: 2}),
                {0: (0, 4), 1: (0, 2), 2: (2, 4), 3: (0, 1), 4: (1, 3)}, "payload of 4 escapes its parent"),
    "overlap": (FORK, {0: (0, 4), 1: (0, 3), 2: (2, 4)}, "same-level payloads of 1 and 2 overlap nontrivially"),
}


@pytest.mark.parametrize("name", sorted(STAGED_PAYLOADS))
def test_staged_payload_errors_are_pinned(name):
    (parent, level), payload, want = STAGED_PAYLOADS[name]
    with pytest.raises(DomainError) as err:
        staged(parent, level, payload).validate()
    assert str(err.value) == want


def verify_counting_validations(monkeypatch, kind, decoded):
    """Verify a 301-node tree over SPACES[kind], built or passed through
    JSON, recording each point `sp.validate_point` is given while
    building and while verifying (decoding validates too, and is not
    recorded). Returns the tree and the points in call order."""
    K = SPACES[kind]
    calls = []
    validate = sp.validate_point

    def counting(space, p):
        if space == K:  # a decoded tree has its own equal space
            calls.append(p)
        return validate(space, p)

    monkeypatch.setattr(sp, "validate_point", counting)
    tree = build_tree(K, 301)
    assert calls == []
    if decoded:
        tree = tree_from_json(tree_to_json(tree))
        calls.clear()
    assert verify_admissible(tree).ok
    assert len(tree.nodes) == 301
    first = {}
    for i in sorted(tree.nodes):
        iv = tree.nodes[i].interval
        for x in (iv.lo, iv.hi):
            first.setdefault(id(x), x)
    assert [id(x) for x in calls] == list(first)
    return tree, calls


@pytest.mark.parametrize("kind", sorted(SPACES))
def test_each_endpoint_is_validated_once(monkeypatch, kind):
    """Building an n-node tree validates no point of its space, and
    verifying it validates each distinct endpoint object once, in id
    order and low end first: a built tree shares each split point
    between two children, so 301 nodes make 152 calls."""
    _, calls = verify_counting_validations(monkeypatch, kind, decoded=False)
    assert len(calls) == 152


@pytest.mark.parametrize("kind", sorted(SPACES))
def test_each_decoded_endpoint_is_validated_once(monkeypatch, kind):
    """A decoded tree makes one call per endpoint object too. The decoder
    reads each distinct point text once and returns one object per text,
    so a decoded tree shares its split points as a built one does and
    its 301 nodes make the same 152 calls, one per distinct point."""
    tree, calls = verify_counting_validations(monkeypatch, kind, decoded=True)
    assert len(calls) == 152
    assert len({tree.space.key(x) for x in calls}) == 152


@pytest.mark.parametrize("kind", sorted(SPACES))
def test_each_cut_node_is_validated_twice(monkeypatch, kind):
    """`to_staged` validates the payload endpoints of each cut node at
    most twice: `StagedTree.validate` makes one call per distinct
    endpoint object, in id order and low end first, and the frontier is
    counted on validated payloads."""
    K = SPACES[kind]
    tree = build_tree(K, 301)
    calls = []
    validate = sp.validate_point

    def counting(space, p):
        if space is K:
            calls.append(p)
        return validate(space, p)

    monkeypatch.setattr(sp, "validate_point", counting)
    st = to_staged(tree, 4, {0, 2})
    assert st.tops()
    first = {}
    for i in st.nodes():
        for x in (st.payload[i].lo, st.payload[i].hi):
            first.setdefault(id(x), x)
    assert [id(x) for x in calls] == list(first)
    assert len(calls) < 2 * len(st.nodes())


# -- seeded mutants ------------------------------------------------------------

MUTANT_SPACES = {
    "finite": FiniteChain(23),
    "split": SplitChain(11),
    "ordinal": OrdinalInterval(parse("w^2*2+w+3")),
    "sum": OrderSum((FiniteChain(4), OrdinalInterval(parse("w^2+1")), SplitChain(3))),
}
LIMITS = (W, parse("w+1"), parse("w*2"), parse("w^2"), parse("w^2+w"))
MUTANT_KINDS = ("level-step", "binary-split", "linkage", "root", "swap", "whole", "equal",
                "one-point", "reversed", "limit-level", "level-shift", "limit-subtree", "limit-meet")
MUTANTS_PER_CASE = 8


def _depths(rows, root):
    """Depth of each row reachable from `root` through parent links."""
    kids = {}
    for i, r in rows.items():
        kids.setdefault(r[4], []).append(i)
    depth, todo = {root: 0}, [root]
    while todo:
        i = todo.pop()
        for c in kids.get(i, ()):
            if c not in depth:
                depth[c] = depth[i] + 1
                todo.append(c)
    return depth, kids


def _mutate(rng, rows, root, kind):
    """Apply one mutation in place, as `mutated_trees` in test_ptree does,
    including `level-shift` (every non-root level up by one, so the root's
    children miss level 1), `limit-subtree` (a limit level L on a node
    at depth 2 or more, and L + k on its descendants k levels down) and
    `limit-meet` (a limit node at depth 2 or more under a parent widened
    to the whole space, given its grandparent's interval or the whole
    space: the meet of all its ancestors differs from its parent's)."""
    ids = sorted(rows)
    a, b = rng.choice(ids), rng.choice(ids)
    parent = rows[a][4]
    if kind == "level-step" and parent is not None:
        rows[a][3] = add(rows[parent][3], from_int(2))
    elif kind == "binary-split" and parent is not None:
        rows[a][2] = rows[parent][2]
    elif kind == "linkage":
        rows[a][4] = b
    elif kind == "root":
        rows[a][3] = ZERO
    elif kind == "swap":
        rows[a][1:3], rows[b][1:3] = rows[b][1:3], rows[a][1:3]
    elif kind == "whole":
        rows[a][1:3] = rows[root][1:3]
    elif kind == "equal":
        rows[b][1:3] = rows[a][1:3]
    elif kind == "one-point":
        rows[a][2] = rows[a][1]
    elif kind == "reversed":
        rows[a][1], rows[a][2] = rows[a][2], rows[a][1]
    elif kind == "limit-level":
        rows[a][3] = rng.choice(LIMITS)
    elif kind == "level-shift":
        for i, r in rows.items():
            if r[4] is not None:
                r[3] = add(r[3], ONE)
    elif kind == "limit-subtree":
        depth, kids = _depths(rows, root)
        deep = sorted(i for i, d in depth.items() if d >= 2) or sorted(depth)
        top = rng.choice(deep)
        limit = rng.choice(LIMITS[::2])
        todo = [(top, 0)]
        while todo:
            i, k = todo.pop()
            rows[i][3] = add(limit, from_int(k))
            todo.extend((c, k + 1) for c in kids.get(i, ()) if depth.get(c) == depth[i] + 1)
    elif kind == "limit-meet":
        depth, _ = _depths(rows, root)
        deep = sorted(i for i, d in depth.items() if d >= 2)
        if deep:
            v = rng.choice(deep)
            u = rows[v][4]
            rows[u][1:3] = rows[root][1:3]
            rows[v][1:3] = rows[rows[u][4]][1:3] if rng.random() < 0.5 else rows[root][1:3]
            rows[v][3] = rng.choice(LIMITS[::2])


def seeded_mutants(space_name, kind):
    """MUTANTS_PER_CASE built trees, each with the named mutation (twice
    for limit-subtree, so limits sit under limits) and up to two more
    drawn from every kind."""
    K = MUTANT_SPACES[space_name]
    for seed in range(MUTANTS_PER_CASE):
        rng = random.Random(f"{space_name}:{kind}:{seed}")
        tree = build_tree(K, rng.randint(3, 61))
        rows = {i: [i, n.interval.lo, n.interval.hi, n.level, n.parent] for i, n in tree.nodes.items()}
        kinds = [kind] * (2 if kind == "limit-subtree" else 1)
        kinds += [rng.choice(MUTANT_KINDS) for _ in range(rng.randint(0, 2))]
        for k in kinds:
            _mutate(rng, rows, tree.root_id, k)
        yield make_tree(K, [tuple(r) for r in rows.values()], tree.budget)


def verdict_digest(v) -> str:
    """sha256 of a whole verdict: ok, the violations in order and the
    counts in order."""
    whole = (v.ok, [(x.clause, x.nodes, x.detail) for x in v.violations], list(v.counts.items()))
    return hashlib.sha256(repr(whole).encode()).hexdigest()


MUTANT_DIGESTS = {
    ('finite', 'binary-split'): "392bda6cc20ebc1050e03736d7f4e61105bf891bb189da9fc602914175c0e5fd",
    ('finite', 'equal'): "1fb7e2c3c02f80cef251f6397f4fff89020bcc9a7fd1d27db5457dc99be44e74",
    ('finite', 'level-shift'): "fbf39c9a5609a628fad3bb0b65e561b7c52858499e2584f104a0f14584acff2c",
    ('finite', 'level-step'): "e024084ede5e27a5b8de4dcf3b0d0a5dba9c447c3ba099e32a4fd8ad19108c7d",
    ('finite', 'limit-level'): "9103429d4558c6035787a7bf7fe2077a5bb80262a673647abfeed82e86757d8f",
    ('finite', 'limit-meet'): "ef15c0bc2388a33ef37b5a690fb0ed2235ddb52503522266f80cc026eb61efe4",
    ('finite', 'limit-subtree'): "fca30e8dc3c0c82e115355e180dc971baaf8751112aa8519e9dc0c24a26497fe",
    ('finite', 'linkage'): "d77e4612c0ad30f3b631f3ebc20530292b29d62e27cd8492968796a2b803bda4",
    ('finite', 'one-point'): "b40ce7f79046ee155a316200cbb2296741e0448b32b8d7588633a70ba368b30c",
    ('finite', 'reversed'): "1dbabe0c0e78574ebe9a97a5c87756bd5b16ea3f1c3c0bd1440a2f9432d2e747",
    ('finite', 'root'): "6ba8692ffc86c2c5bc113dcbf7bba22ebe6a9e2b02dcde30c61f43c481c13e59",
    ('finite', 'swap'): "82c4b7ae5436ed3c46e3097ca14b954b588ddba08a5acee3ac495ecfb1610213",
    ('finite', 'whole'): "4b6e4867e76fb764894591c43978f77489d154d062e5afc9e8a548f5a34b4f40",
    ('ordinal', 'binary-split'): "0351288166ae9773ad725d5f3048f31246cea71932cf83ccc8451d87cd413fd1",
    ('ordinal', 'equal'): "cc7e4b26977ed7ab00da6ec4b7fa42ed72a83f452c54fcc4ef14bc48d88d1d86",
    ('ordinal', 'level-shift'): "6eb01f0eb35a7bb41d13f1b60cf9fd95152d59197c99a85cc77e7a4d02a81dff",
    ('ordinal', 'level-step'): "c6fa15df4b2d3c7a44f183749c9a04fe14145b5ba1b72853a638e2afc6148012",
    ('ordinal', 'limit-level'): "edd021ca5bf9137aa8cca25d3c60a7edb932dc6dca8541cc430279dc51e5bb98",
    ('ordinal', 'limit-meet'): "690553539c7eb2610e75c2993f36c67794e531c866b090f3d3070eed6c6630c8",
    ('ordinal', 'limit-subtree'): "538cb018e88c066104b0e4d37aaa23835faa0d587a611a1d8f6e003959bf7f9f",
    ('ordinal', 'linkage'): "ed199fcfbea7ff1b045b2ba0a0b347cb0f792b5d13baa979f7d82bdb7f8de183",
    ('ordinal', 'one-point'): "14de3f3a692f4d76c33808f66575aa7cd59e55d5a982707b8fea9ce7aaaf7938",
    ('ordinal', 'reversed'): "a9b414d4c6e325e7aa2353681cc0610a26b4bfe0512864107b553d3096264f72",
    ('ordinal', 'root'): "971b676acdc5b729fc99806f24ad7dff0dc92baedb6ecf87d8c6b44ba0f5382f",
    ('ordinal', 'swap'): "087eaec84b61a0f54ff98c949b509c1c25de63f2df8cb439d9227fca1ecead97",
    ('ordinal', 'whole'): "580dbb3bf59f1000d4511d8bd1ae02f9620aa8886bddeefca770e22d4b73598b",
    ('split', 'binary-split'): "8312980790dfd447a622c77846eb5dfa2941bd07780900c8e747d3d6fb896f48",
    ('split', 'equal'): "06e9599da579672abea2bc6cb7b343718c810abcb9c1f0280bf66f07b37e6c0c",
    ('split', 'level-shift'): "7f8adb56fc1d1228ae545c6a9255f995d48b5f3192602b489d0b53b4336fb582",
    ('split', 'level-step'): "6787a46d9eb068f9515b294d88dc665e7a23dcba3253027076a6623529f2a24e",
    ('split', 'limit-level'): "539c228a7fde24114896d9ec15e1fd125ebe315d6f85e9e157ee163eedbdd625",
    ('split', 'limit-meet'): "0876959d298c39a046f250e5634bfb46177b354159894b780dcdf32fe9c2e3cb",
    ('split', 'limit-subtree'): "28d54aaa3c72d7e8ce4a1c1d8b827636b639b8a8f486c42387e5ab31b9322dae",
    ('split', 'linkage'): "f360f4c76c7521b12bd58dee5db8daecceccd60543d5a1452823b4d466a17535",
    ('split', 'one-point'): "41ab6ac1cdbf198d9d920800ac4bfb92c8007343e55a29970eb87ac23fd8758c",
    ('split', 'reversed'): "c163a8848e8f88e6644689943ca7917f7560c0dd8806cb75bef3804bf9d36e86",
    ('split', 'root'): "895690624818239e13a34d009fdb00911ab7c6d94418cba90448d7f73d7f045f",
    ('split', 'swap'): "8d2a611709246af2f55dd4a836460b70bcc6b35d2db021104a065e50c62748e3",
    ('split', 'whole'): "3137f1c68d701791c42ba1e30af89786ac30874e62bcd02ce85815ffe28666fc",
    ('sum', 'binary-split'): "3186b69c4873c57791d5be73da2d35edbd89a74253ddf2dd4420739b7e86efc4",
    ('sum', 'equal'): "7d55a0d1a5542826389b3ce1831d22effe9a3300489c64a1e52cc71d8043023b",
    ('sum', 'level-shift'): "0093c979ed098e394a17c342cb32dd24fce4e21dfbc5b0d43c16e2e7c1a720d6",
    ('sum', 'level-step'): "f4be78d7bfeff4903fcd7cb6dc3183bd27aeab715125e0892b1e0be2329414ef",
    ('sum', 'limit-level'): "7fb40676664f4a621494d1df5fb5d09ded1eb789e03988fffb73123e57e48195",
    ('sum', 'limit-meet'): "7cb0a57df896e09ee47ae7a679d2ecb74e079a8a1148e1c970ada9af9d3fdcff",
    ('sum', 'limit-subtree'): "9065be824720af9c045ea660c11c7cd73ec79419c9695e48694369ee17657fb9",
    ('sum', 'linkage'): "7ad7e7342f3d3829186e023bbc3b713cbe1e423f05be0012c6a8ecc263028e49",
    ('sum', 'one-point'): "c666b7192427b493fc5875f842e3e4360530ee7632ba48ed964f76d672e297b7",
    ('sum', 'reversed'): "524ee23c754bcfabc21ea63bfed57a735d4a7ddd381002d373929097f683bafb",
    ('sum', 'root'): "a0d9640a83a1cb3d067c6bd3a20b5c13992ac398d6af2380817fb83af7e3236c",
    ('sum', 'swap'): "8991ac8a9a48b8e7c0cbbe5949dba005d9c2c9f2487b824f1af4ac7e7a145b27",
    ('sum', 'whole'): "7b49da50b5ed45252f19062e36822a88ff01ba1401dcc93402d6a006aaa5d47c",
}


@pytest.mark.parametrize("space_name, kind", sorted(MUTANT_DIGESTS))
def test_seeded_mutant_verdicts_are_pinned(space_name, kind):
    got = [verdict_digest(verify_admissible(t)) for t in seeded_mutants(space_name, kind)]
    assert hashlib.sha256(" ".join(got).encode()).hexdigest() == MUTANT_DIGESTS[space_name, kind]


@pytest.mark.parametrize("space_name, kind", sorted(MUTANT_DIGESTS))
def test_seeded_mutants_match_the_definitional_oracle(space_name, kind):
    """Whole verdicts: ok, the violations in order and the counts in order."""
    for tree in seeded_mutants(space_name, kind):
        fast, oracle = verify_admissible(tree), definitional_verify_admissible(tree)
        assert (fast.ok, fast.violations, list(fast.counts.items())) == (
            oracle.ok, oracle.violations, list(oracle.counts.items()))
