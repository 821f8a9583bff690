"""Pinned bytes of the `rn` commands.

Each case cuts a staged tree, decomposes it with `frag ln` and runs
`rn dense`, `rn witness`, `rn approx` (two points at two depths each)
and `rn check` through `cli.main`. The sha256 of every command's exit
code and output bytes is a fixed value: a faster density pipeline must
reproduce them byte for byte. On the finite cases `approximate` is
pinned too, at every point and every admissible depth.
"""

import hashlib
import json
import random

import pytest

from ordfrag import cli
from ordfrag import generators as gen
from ordfrag import ptree
from ordfrag import rnwit as rn
from ordfrag import space as sp
from ordfrag.frag import ln_decomposition
from ordfrag.openpart import partition_open
from ordfrag.ordinal import parse

DIGESTS = {
    "comb0": {
        "dense": "b0e66181b4f6bb51f7fe31491c939223683f63dcdd8f3863db26125ee21e8a16",
        "witness": "0d3dcd9cdc007d96f1b6ee9526d5648933475e6f48367cf4cc72f13caf61c928",
        "approx": "c17d69a127fdcd66fb043778bba7c2f4fbc012724e75a1c27c3c0bc86a193766",
        "check": "8504f691b1e1c92d61a218bf24eeab0543e33e864da22864508f45888c9c7143",
    },
    "comb1": {
        "dense": "a08faa731177d0d70aeb4fd8da27803db7640c1f9a10b4ab2180c24cab9e2668",
        "witness": "39eff203ea55304d7a88d2987800cd9e623ab5df80d464fdab3255361bc1606d",
        "approx": "70e0ac9de448a3d0b2c724312f18dc5629e077cc6be56d636efedd7d9e45d156",
        "check": "915a5f3d77d2ff2807743f627abe425b017823f9de3eedadaa60d3e31a2f2c4b",
    },
    "comb2": {
        "dense": "edd3492108ef0387bdf0c9f0a0fa8f7cb183d19dc33694bc7b0342c93dfee5e1",
        "witness": "f9759b61283ae3ae190f936e934ae259710996432ca6ad5d89664b44192a13e8",
        "approx": "6a1521a96b700980ba58a9e49435f010cb90fa520d6b646e1a175515258dddec",
        "check": "5a27f494754eee73caca18558f6094f1d657d44d3b9bc7d27237a81878f17947",
    },
    "comb3": {
        "dense": "a08faa731177d0d70aeb4fd8da27803db7640c1f9a10b4ab2180c24cab9e2668",
        "witness": "39eff203ea55304d7a88d2987800cd9e623ab5df80d464fdab3255361bc1606d",
        "approx": "4f871eb1b1c8527453d42eeaa85cf004780fc20826d87be078cd54bc28020db7",
        "check": "915a5f3d77d2ff2807743f627abe425b017823f9de3eedadaa60d3e31a2f2c4b",
    },
    "comb4": {
        "dense": "74921170c25d55659d83c414a182418671f9753be089965d0c3de2a7db0a5229",
        "witness": "d806f5138ccbb1a77d1eee79e615e40924d83eee90af43c4b1abddf1fbf7e72f",
        "approx": "707bd551950081652a03a269630d6c463fa626a4aba49b7a6aeb14d650728bd9",
        "check": "c0eff915a5b4dd84d0f534e9e9621cc74747e0f4ffa6a6944c5c6573cfc1ef86",
    },
    "comb5": {
        "dense": "aab6fed74091f45d8cba40fb4f54209a3cdf5099167e24736f35e5fa8fab365d",
        "witness": "07ad5c983d7d45da446bc0a81cc13baf61f7c7d83937a505af87ee88b25a444d",
        "approx": "f5fbab2b0af6821c6758d9eb0c397374d39d84c3102ae27fb9ccb442d3a1f693",
        "check": "0b01e5e35bed1baee0c1bbddd9b2b39f67928941466689af8e5cba3e3f6289e6",
    },
    "comb6": {
        "dense": "1363fab8ad0f843113624f7ba09c7d8fc5283ef7bc6ae54ef4e14b710b0d42b1",
        "witness": "f8c03e239fb077d4c6ff7e9b04d1df1f2801ffa7016af5283ac07828f2800839",
        "approx": "ed230023cbd8281e516495e1fdf6edc4cf502ec5356b9fc74fdb4826fb35fd2e",
        "check": "723232adc1530e0030173ce9a8de1f1dd27d3941e8bc410e7200bf1dc7fda3e0",
    },
    "comb7": {
        "dense": "7bd8cff696e902e0b21e7b234a2ef76ee5179ddc3f462acfd639ec376fdf3591",
        "witness": "839470e2a23fca56892859c4d751edcc3a6836d8c7a278f8d7bcaedbaf601f7b",
        "approx": "592b2d617abdd0ca7f6dc403beb2974bea3bb99795612283a97e6bc35aa6d383",
        "check": "95afd721b4813047e51608deb8e1135387f2095c76f31bc1047a6309241bf659",
    },
    "comb8": {
        "dense": "74921170c25d55659d83c414a182418671f9753be089965d0c3de2a7db0a5229",
        "witness": "d806f5138ccbb1a77d1eee79e615e40924d83eee90af43c4b1abddf1fbf7e72f",
        "approx": "bb1134216c7b6dc454671f8f6bfdc0300e3f109abb08db98abaf0693b3677653",
        "check": "c0eff915a5b4dd84d0f534e9e9621cc74747e0f4ffa6a6944c5c6573cfc1ef86",
    },
    "comb9": {
        "dense": "7bd0c13a18a198b9b794db0442c44c70a3c4504d2436146a2e65f3b050773018",
        "witness": "a438fd5708435ea788368d3f279f3e6a8d7e22f38b6abd221783c77fb0519a6e",
        "approx": "714799a3ce5dabe48421455767500238e79fc74c1053469bd2ae1c9b7b090ae6",
        "check": "a068033940ec7328a22ee81f69bb2b133819369c04380030ce84d988704e2fab",
    },
    "finite16": {
        "dense": "52f13aeb1852ed009468becfe8399209bd5c62749be9cf17eb9a0ccad5f2972c",
        "witness": "29760f0dd9b183b20b261b86e54ce71c617e3ae28698b86d382c60d29f779c8f",
        "approx": "ed30c5334e52adcc2302808e65f4ce7e6d72334259b3ba4d34c35f232e0a4e48",
        "check": "7787582bb66f742071ea5155f2ed35c8dc9b8fb4a8c045c99fad30c2307e02a2",
    },
    "split8": {
        "dense": "927ceedd8a0090cfad86e01447864b3f80c1b2873aefa9df12fd9958d37ed38c",
        "witness": "66385c47a4b51c90c3c931f72ee9541b49ecf696da1d50157e5e34c42fe5d3c0",
        "approx": "81d0746b215dd3f52227afbfbb216d492a7686f9b8d3e9fc76de8380cfc72bac",
        "check": "7787582bb66f742071ea5155f2ed35c8dc9b8fb4a8c045c99fad30c2307e02a2",
    },
    "ordinal": {
        "dense": "704c45b5f5055bb9b40cf54e2d64f1c31194236f76d5d501c33de22f5afe02fb",
        "witness": "ecb370cb80b9e0f7a7ba1a18c8d6452e7f71af9e5c0941f7e62c9fb5533847a1",
        "approx": "837d5377856a6a3219461bb15fb53c428b02c5c69b6223012b61345a6b24c7e6",
        "check": "e87a3dc6bb7d675337c68d47def2398c523ae029e7a3cc7d3b556cad1f8ab2d4",
    },
}


def staged(name):
    """The stage a case names: a seeded comb, one of the finite cuts the
    cli-staged benchmark makes, or a cut of an ordinal tree."""
    if name.startswith("comb"):
        return gen.gen_comb(int(name[4:]))
    if name == "ordinal":
        tree = ptree.build_tree(sp.OrdinalInterval(parse("w^3")), 120)
        return ptree.to_staged(tree, 3, range(1, 3), limit_top=False)
    K = sp.FiniteChain(16) if name == "finite16" else sp.SplitChain(8)
    tree = ptree.build_tree(K, 4 * sp.space_size(K))
    m = max(n.level.terms[0][1] for n in tree.nodes.values() if n.level.terms)
    return ptree.to_staged(tree, m, range(max(m - 1, 1)), limit_top=False)


def query_points(name, K):
    if name == "ordinal":
        return ["w^2+w*3+1", "w*5+2"]
    rng = random.Random(f"{name}:approx")
    return [sp.render_point(K, p) for p in rng.sample(sp.enumerate_points(K), 2)]


def run(argv, out) -> bytes:
    code = cli.main(argv + ["--out", str(out)])
    return f"{code}\n".encode() + out.read_bytes()


def digests(name, tmp_path) -> dict:
    st = staged(name)
    doc = tmp_path / "staged.json"
    doc.write_text(json.dumps(ptree.staged_to_json(st)))
    levels = tmp_path / "levels.json"
    assert cli.main(["frag", "ln", "--in", str(doc), "--out", str(levels)]) == 0
    lv = ["--in", str(levels)]
    bundle = tmp_path / "bundle.json"
    outputs = {
        "dense": run(["rn", "dense", *lv], tmp_path / "dense.json"),
        "witness": run(["rn", "witness", *lv], bundle),
    }
    outputs["approx"] = b"".join(
        run(["rn", "approx", "--in", str(bundle), "--point", text, "--n", str(n)],
            tmp_path / "approx.json")
        for text in query_points(name, st.space) for n in (2, 8))
    check = ["rn", "check", *lv]
    if name == "ordinal":
        check += ["--seed", "5", "--samples", "12"]
    outputs["check"] = run(check, tmp_path / "check.json")
    return {cmd: hashlib.sha256(data).hexdigest() for cmd, data in outputs.items()}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_rn_bytes_are_pinned(name, tmp_path):
    assert digests(name, tmp_path) == DIGESTS[name]


APPROXIMATIONS = {
    "comb0": "1b03f1eaf52b85b9ee8c96ff557d903627ca29f4171af79f978542a1d53732a2",
    "comb1": "dca4a00def4512b35f75aea6a4db56f61d214da8c91dd4559aaa884405390fd7",
    "comb2": "4c11a8a1bc44d27e59f16c4c75938acaad7cecc7ccd4d12af18c184d21b58c6d",
    "comb3": "1d44a3ff3340314e02ffd1f488208a12e059993ab54d0b2dfefa7249c526a2f5",
    "comb4": "bc9fcdfa5d1b3826d74a4e82405867a8f4c176fbae058e08ad7bf6d054a50fd9",
    "comb5": "58e6c71857c372061bd741e1881338c52e1985d8c6b5a576c5219fac5a5da4b1",
    "comb6": "75e2b7499874321451abd9b73b41e35977dd2ab5c0f8b94a8f3e5570ec015771",
    "comb7": "a9bdf0b70f5a17f5d4b2ad01f0cd7eb3f02b944cdc086e3010e4e8f6c752e864",
    "comb8": "347d03fcfbc9b5b077cdcf31256bc21aa179b25dc35a83dc4142e8e7b7bfffd0",
    "comb9": "00ca81362f463e796252db4acec90736dcc46bf57fad6a9f6dfddd605c816df9",
    "finite16": "c395450bdaa6601fb0dcccf0f3773eb3ca131003b1489fccedb13a4339333813",
    "split8": "8328292ade31a1c0141c4228192a64e0b9e57e703b06ba2e2d42e4b0301c1316",
}


def approximations(name) -> str:
    """sha256 over (w, n, z, d_A(w, z)) for every point w and every depth
    n <= n_cap, with the full family and three subfamilies drawn as
    criterion 6 draws them, each against its own dense set."""
    st = staged(name)
    K = st.space
    levels = ln_decomposition(st, partition_open(st))
    ordered = sorted(rn.separating_family(K, levels), key=lambda f: rn._tag_key(K, f))
    rng = random.Random(f"{name}:subfamilies")
    families = [ordered] + [
        sorted(rng.sample(ordered, rng.randint(1, len(ordered))), key=lambda f: rn._tag_key(K, f))
        for _ in range(3)]
    h = hashlib.sha256()
    for A in families:
        metric = rn.pseudo_metric(A)
        D = rn.dense_set(K, metric, levels)
        for w in sp.enumerate_points(K):
            for n in range(1, D.n_cap + 1):
                z = rn.approximate(K, w, n, metric, D)
                line = (sp.render_point(K, w), n, sp.render_point(K, z), metric.distance(w, z))
                h.update(f"{line}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(APPROXIMATIONS))
def test_approximate_is_pinned(name):
    assert approximations(name) == APPROXIMATIONS[name]
