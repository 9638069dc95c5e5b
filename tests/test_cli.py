"""CLI surface: subcommands, exit codes, determinism, schema validation,
graph ingestion, and the names the package exports."""

import ast
import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tangleforge
from tangleforge import cli as cli_module
from tangleforge import core, profiles
from tangleforge.core import Graph, graph_to_json
from tangleforge.cli import cli_main, read_graph
from tangleforge.fixtures import FIXTURES, doubled_bridge_ring, triangle_ring
from tangleforge.profinite import product_chain_universe

from jsonforms import universe_to_json


SCHEMA_PATH = os.path.join(
    os.path.dirname(__file__), "..", "src", "tangleforge", "schemas", "cli.json"
)
with open(SCHEMA_PATH, "r", encoding="utf-8") as fh:
    SCHEMA = json.load(fh)


def run_cli(argv, capsys):
    code = cli_main(argv)
    out = capsys.readouterr().out
    return code, out


def validate(command: str, payload: dict):
    jsonschema.validate(payload, SCHEMA)
    result_schema = dict(SCHEMA["$defs"][command])
    result_schema["$defs"] = SCHEMA["$defs"]
    jsonschema.validate(payload["result"], result_schema)


SMOKE_COMMANDS = [
    ["separations", "--fixture", "FIX_P4", "--k", "2"],
    ["profiles", "--fixture", "FIX_P4", "--k", "2"],
    ["distinguish", "--fixture", "FIX_P4", "--k", "2"],
    ["splinter", "--fixture", "FIX_2K4", "--k", "2"],
    ["thin-splinter", "--fixture", "FIX_2K4"],
    ["profinite-splinter", "--fixture", "FIX_2K4"],
    ["nested-separators", "--fixture", "FIX_2K4"],
    ["nested-separations", "--fixture", "FIX_2K4"],
    ["treedec", "--fixture", "FIX_2K4"],
    ["totd", "--fixture", "FIX_2K4"],
    ["fixtures"],
]


@pytest.mark.parametrize("argv", SMOKE_COMMANDS, ids=lambda a: a[0])
def test_subcommand_json_validates(argv, capsys):
    code, out = run_cli(argv, capsys)
    assert code == 0, out
    payload = json.loads(out)
    assert payload["command"] == argv[0]
    validate(argv[0], payload)


def test_verify_quick_suites(capsys):
    code, out = run_cli(
        ["verify", "--suite", "canonical-separators-2k4", "--suite", "totd-2k4", "--seed", "7"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    validate("verify", payload)
    assert payload["result"]["ok"] is True
    assert {s["name"] for s in payload["result"]["suites"]} == {
        "canonical-separators-2k4",
        "totd-2k4",
    }


def test_verify_output_is_byte_deterministic(capsys):
    """Suite timings go to stderr only, so two runs of one suite at one
    seed print the same bytes."""
    argv = ["verify", "--suite", "canonical-separators-2k4", "--seed", "7"]
    _, first = run_cli(argv, capsys)
    _, second = run_cli(argv, capsys)
    assert first == second
    assert all("seconds" not in suite for suite in json.loads(first)["result"]["suites"])


def test_output_is_deterministic(capsys):
    argv = ["nested-separations", "--fixture", "FIX_2K4"]
    _, first = run_cli(argv, capsys)
    _, second = run_cli(argv, capsys)
    assert first == second


def test_dot_output(capsys):
    code, out = run_cli(["treedec", "--fixture", "FIX_2K4", "--format", "dot"], capsys)
    assert code == 0
    assert out.startswith("graph treedec {")
    code, out = run_cli(["totd", "--fixture", "FIX_2K4", "--format", "dot"], capsys)
    assert code == 0
    assert out.startswith("digraph totd {")


# sha256 of stdout and the exit code of every graph verb on every fixture at
# its PIPELINE_K under the default caps: the CLI's output is a byte-identical
# contract, so a change here must be an intended change of output.
GOLDEN = [
    ("separations FIX_2K2", 0, "2748b174d89700fe6b86db548a5af6f9d803b4b09cc9a72c70744b2a4b137304"),
    ("profiles FIX_2K2", 0, "c84726b8d81426fee349e2309642ec44aa8f0036dba38dcbbcea681f37040dad"),
    ("distinguish FIX_2K2", 0, "2cebae127c8d3bde768188ab6439008b4de35ba591a8f4e68509236cb338d067"),
    ("splinter FIX_2K2", 0, "2820c912484911cebe69d4a07f225db74feef48cb347d7ad92c6a7bc42228dbd"),
    ("thin-splinter FIX_2K2", 0, "1f3e0fa45089d09111ec6d91e16ad5a40a34797f3b666baabad1edb777bbf618"),
    ("profinite-splinter FIX_2K2", 0, "a1c81dec5a208065af758b6a5b7a11792f415200aa49394106ede9263ba434d5"),
    ("nested-separators FIX_2K2", 0, "0993a379213e601ba51b4a6a55440c3618249fa323bcd80b0aee4b8e8a0aaa66"),
    ("nested-separations FIX_2K2", 0, "b7fd6686375e9be0e2700cc114b6e2a38755c7d0a5667fab9ba7cf0eb74544cc"),
    ("treedec FIX_2K2", 0, "f883b56abfd62a273facccfb856f7f2ad844297554b476c3c0bd6ab18edca512"),
    ("totd FIX_2K2", 1, "f019e1cff42adc5a2d80170ac13ea95c5d793da6884d4bef5bad870b620e1e45"),
    ("separations FIX_2K4", 0, "b527ea16de4580a51b082a8de62629f646b2f26d6b1647e2bedcfcc260e2a1f5"),
    ("profiles FIX_2K4", 0, "08a037b48f397f5a6af22c7218229ce3cd2b6514710d110cfc64c555c6a440b9"),
    ("distinguish FIX_2K4", 0, "f8daf6cc2001f9207b435258e320cc294c41e091ef9af9b8d2c9578d6c90847b"),
    ("splinter FIX_2K4", 0, "dd8011a95e1b70db95cbaa10f9f27623a3b5be3e66f9912f4f8e49f731748341"),
    ("thin-splinter FIX_2K4", 0, "1b4ae73cf6e27644172909c55663fb839970eae4c27c2bb10b90ae0e0f5e4aaa"),
    ("profinite-splinter FIX_2K4", 0, "963978f1d4024a5b0d90387d38b804860898c9bed440f35c664ea5d1054d058e"),
    ("nested-separators FIX_2K4", 0, "5bdd4e43bc7320b2b1d3a49fbf6cfbe6cf27adc58dd4e6cd5409d7d0f3bdb477"),
    ("nested-separations FIX_2K4", 0, "2f432138eaa786fae659c988983430556513f29611e15300ba073d596f34d006"),
    ("treedec FIX_2K4", 0, "43c078f568043552c71bb740c37016d23722d61657c134536726c8414934caae"),
    ("totd FIX_2K4", 0, "fff8bf44808c37b84e817f8a5875c27b26a4c4b756502eabe67c2de9457b720d"),
    ("separations FIX_C4", 0, "8d41b0cec0e62347f82206dea59bce1c25ede6dacbe0df79128c6d0bfc5db024"),
    ("profiles FIX_C4", 0, "a9a97121e5ad67308e26f8766eb57698b62b525e90e9de3822f6f4249942ee07"),
    ("distinguish FIX_C4", 0, "416416152b82165e61328996964252ebdc30cdb673f8c0954d3589b08be08339"),
    ("splinter FIX_C4", 0, "2071983ff88c80053fcd7ff93092a033b35bb1417df7f7f301bc7543e1b9a607"),
    ("thin-splinter FIX_C4", 0, "bca2a927efedb36de9c296f28289edcf249261805afc3b0263ba1baacf268b2c"),
    ("profinite-splinter FIX_C4", 1, "efb95e21f273cb31cec3bdca18fae18b137c2c49b8ca578885c75419f11a375e"),
    ("nested-separators FIX_C4", 0, "f2c60fc5d67c561655b5b048a34603cee8897199f629e7bd72d3cb9389da30a6"),
    ("nested-separations FIX_C4", 0, "134f15135991432c8bf11dec432ac54eaea13ce3473d77ee6bd3e0984cc318e8"),
    ("treedec FIX_C4", 0, "38514221519279a2e111384fd7fad7c0abd5af2491f5598a5dfffc459ebbdc7f"),
    ("totd FIX_C4", 0, "3f07287ad3d1e812f7f33541d233ac75c7d85ec968bdc323b8649159d5ca16d4"),
    ("separations FIX_GRID33", 0, "55415c54f7e7a1c1358900929a373e4f1ad5e78c16113468b5a9205df868c7f5"),
    ("profiles FIX_GRID33", 0, "037b2b353f3f23b391402ede3efa1ed0b4c98330ba77686df74e71fecde0914c"),
    ("distinguish FIX_GRID33", 0, "8bb62066f0867b8ebe790479975d0c5b382e78513e4c3041411fa52fccc79d86"),
    ("splinter FIX_GRID33", 0, "694d6c3f8940a3482b83dcc3506ce52d3d23bbf092068b52d8feb7f8eecb58f5"),
    ("profinite-splinter FIX_GRID33", 0, "b9b842c8bcf78f453b1c559d77ef48e0f68f589d85ed004be24df6132c7c1e81"),
    ("thin-splinter FIX_GRID33", 0, "04563aa1959b9698a241698c1bf129fb511193f53955f2f364449d024f72b4ed"),
    ("nested-separators FIX_GRID33", 0, "64d1fb15331145bfd437a58b8febac11b0aee609df2a5a3c85426643cc34091b"),
    ("nested-separations FIX_GRID33", 0, "f58bb6c8dee870dbe6a80a64f65b7bacfc3ba726730f589ccb340c83aef7f4d0"),
    ("treedec FIX_GRID33", 0, "e4c40495133bcdd9e54ed2a76388f15d63347a3faa12f641c38634fb7cc68ca6"),
    ("totd FIX_GRID33", 0, "f6db89afa669f6cafdbcf589847a2cc7ab3bb8343142a7ce9a72a7fb9cb6f1c4"),
    ("separations FIX_P4", 0, "6a6866641b300d54f582400dedca1746186ec908f97a96aa21e384b0319bcabf"),
    ("profiles FIX_P4", 0, "00240c541b77eaaa6cb68dfbfd6ff3b39668eead0193e441e11fd932efbdae3b"),
    ("distinguish FIX_P4", 0, "3d7e89f1a4ce444f6484e6ee62aefe4aac9253cd570a3896f3a6ae4a79d0498e"),
    ("splinter FIX_P4", 0, "33d7adb6295951c415cee9df1535a12750cdaee829efc1095a9d0b3398a727af"),
    ("thin-splinter FIX_P4", 0, "5fe0a4cc42445bce5e3ac71b6ab9e5ea7afa10a2ea6bd533e7e8cec0f4643629"),
    ("profinite-splinter FIX_P4", 0, "4873e6a4ed881a2a1ac23a57d8a5727c6fb5329695718b1e8ef8a25225aa3240"),
    ("nested-separators FIX_P4", 0, "7488e8fbac2790f55d66474b303d79693e2b54b9eb7bb532330229cef9965228"),
    ("nested-separations FIX_P4", 0, "d769266a5305b7a0f34ace8cfc6ae8af480fb528d6a0ba12814a6ce3138e6332"),
    ("treedec FIX_P4", 0, "a28ab34d0b019b4d26b54aab1419942d0fbd11207f4742f5a690ba68cc110b76"),
    ("totd FIX_P4", 0, "f22606016da81dcc6da42c2a9a770b25c45a710c53080c650206b9e96d8c8773"),
    ("treedec FIX_2K4 --format dot", 0, "8593fbe6f04e47587838985f528b2c04690ac8f95b4c468fa26f39753a4628b8"),
    ("totd FIX_2K4 --format dot", 0, "5b78160267074e4c6d28fda715c5056b5c297709774488f000e84a6693f3f889"),
]


@pytest.mark.parametrize("spec,code,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_output_digest(spec, code, digest, capsys, monkeypatch):
    monkeypatch.delenv("TANGLEFORGE_CAPS", raising=False)
    verb, fixture, *rest = spec.split()
    got_code, out = run_cli([verb, "--fixture", fixture, *rest], capsys)
    assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


# the JSON envelope is json.dumps(..., sort_keys=True, indent=2) byte for byte
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children)
    | st.tuples(children, children)
    | st.dictionaries(st.text(), children)
    | st.dictionaries(st.one_of(st.integers(), st.floats(), st.booleans(), st.none()), children, max_size=1)
    | st.dictionaries(st.integers(), children),
    max_leaves=20,
)


@settings(max_examples=200)
@given(JSON_VALUES)
@example({"a": [], "b": {}, "c": [[], {}], "d": [1, 2, 3], "é\n": float("nan")})
@example([float("inf"), float("-inf"), -0.0, 1e300, True, 1, None, (1, 2)])
def test_json_envelope_matches_json_dumps(value):
    assert cli_module._json(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [{1: 0, "a": 0}, {(1, 2): 0}, [set()], {"a": object()}, b"x"])
def test_json_envelope_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(value, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        cli_module._json(value)


def plain(value):
    """value with every Separation in it mapped through separation_to_json,
    the JSON form the encoder writes for one."""
    if type(value) is core.Separation:
        return core.separation_to_json(value)
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(x) for x in value]
    return value


def holds_separation(value) -> bool:
    if isinstance(value, dict):
        value = list(value.values())
    if type(value) is core.Separation:
        return True
    return isinstance(value, (list, tuple)) and any(map(holds_separation, value))


# separations from a small pool, so that a drawn value repeats some of them
SEPARATIONS = st.builds(core.Separation, st.integers(0, 15), st.integers(0, 15))
SEPARATION_VALUES = st.recursive(
    JSON_SCALARS | SEPARATIONS,
    lambda children: st.lists(children)
    | st.tuples(children, children)
    | st.dictionaries(st.text(), children),
    max_leaves=20,
)


@settings(max_examples=200)
@given(SEPARATION_VALUES)
@example(core.Separation(0, 0b1111))
@example([core.Separation(1, 3), [core.Separation(1, 3)], {"x": core.Separation(1, 3)}])
@example([(3, 5), core.Separation(3, 5), {"t": (3, 5), "s": core.Separation(3, 5)}])
def test_json_envelope_writes_separations_as_separation_to_json(value):
    """A Separation is written as separation_to_json's dict at every depth,
    repeats and a plain tuple beside an equal Separation included."""
    assert cli_module._json(value) == json.dumps(plain(value), sort_keys=True, indent=2) + "\n"


def test_json_envelope_writes_each_oriented_separation_once(capsys, monkeypatch):
    """profiles on FIX_GRID33 repeats most of S_k across its profiles; each
    distinct oriented separation is rendered once."""
    rendered = []
    real = core.separation_to_json
    monkeypatch.setattr(cli_module, "separation_to_json", lambda s: rendered.append(s) or real(s))
    code, out = run_cli(["profiles", "--fixture", "FIX_GRID33"], capsys)
    assert code == 0
    entries = [
        (tuple(x["a"]), tuple(x["b"]))
        for p in json.loads(out)["result"]["profiles"]
        for x in p["oriented"]
    ]
    assert len(rendered) == len(set(rendered)) == len(set(entries)) < len(entries)


def test_json_envelope_of_every_golden_payload(capsys, monkeypatch):
    monkeypatch.delenv("TANGLEFORGE_CAPS", raising=False)
    payloads = []
    real = cli_module._json
    monkeypatch.setattr(cli_module, "_json", lambda obj: payloads.append(obj) or real(obj))
    for spec, _, _ in GOLDEN:
        verb, fixture, *rest = spec.split()
        run_cli([verb, "--fixture", fixture, *rest], capsys)
    assert len(payloads) == len(GOLDEN) - 2  # the two DOT outputs are no JSON
    for obj in payloads:
        assert real(obj) == json.dumps(plain(obj), sort_keys=True, indent=2) + "\n"
    assert any(map(holds_separation, payloads))


# three triangles joined into a ring by bridges, the ring_decompose graph of
# the benchmark
TRIANGLE_RING3 = {
    "n": 9,
    "edges": [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5], [6, 7], [7, 8], [6, 8],
              [2, 3], [5, 6], [8, 0]],
}
# the same contract on the ring, read through a --graph file at k = 3
RING_GOLDEN = [
    ("profinite-splinter", 0, "c08d9ca60a156fcad99a941a9658a753e3b6c63d8feddeea97b3bfa21a559e22"),
    ("thin-splinter", 0, "5ee9cb9bd95a5a138db26f53092635afc2b47952a991ee4ded74f7d488af52e2"),
    ("nested-separators", 0, "d16eba9bc805376d17495af27ef8efbb0c932660c53bcc9149d6818d797a7417"),
    ("nested-separations", 0, "f8fde0809850b73c43bb32966ed348f1aa362246c2724dc9c1cf8fd2385588ac"),
    ("treedec", 0, "1c09ab36789583f1bcf69bc2babdfd91e7e99a6b1b965cc5c00525a53cc766a1"),
    ("totd", 0, "317db22099fcedb9f682aa4973b60f0d49550a22d3f54eeecd28ba23b6b33699"),
    ("treedec --format dot", 0, "00011bc7917d100da079e9590f171025709ed7b7ab2a6001eca844a81643201d"),
    ("totd --format dot", 0, "9e5e95a730440464e5e7b838d147a0878073ec4b560de0692711222a97a46d7e"),
]


@pytest.mark.parametrize("spec,code,digest", RING_GOLDEN, ids=[g[0] for g in RING_GOLDEN])
def test_golden_ring_digest(spec, code, digest, capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("TANGLEFORGE_CAPS", raising=False)
    monkeypatch.chdir(tmp_path)  # the envelope names the graph file as given
    (tmp_path / "ring.json").write_text(json.dumps(TRIANGLE_RING3))
    verb, *rest = spec.split()
    got_code, out = run_cli([verb, "--graph", "ring.json", "--k", "3", *rest], capsys)
    assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


# the same contract on the ring of six triangles (n = 18) at k = 3 with the
# caps lifted, where the thin-splinter check does most of the work
SIX_RING_GOLDEN = [
    ("nested-separations", "45deb9fcbb9a7acfed29b4f508885a9ab170f81bda917c177453892fccc6293f"),
    ("totd", "2fd2f33ac73614dcedb56fe78b5b1fa88185d9e2636d70d7e5447d185a51cbee"),
]


@pytest.mark.parametrize("verb,digest", SIX_RING_GOLDEN, ids=[g[0] for g in SIX_RING_GOLDEN])
def test_golden_six_triangle_ring_digest(verb, digest, capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("TANGLEFORGE_CAPS", '{"max_n":30,"max_sk":1024}')
    monkeypatch.chdir(tmp_path)
    edges = [[3 * i + a, 3 * i + b] for i in range(6) for a, b in ((0, 1), (1, 2), (0, 2))]
    edges += [[3 * i + 2, (3 * i + 3) % 18] for i in range(6)]
    (tmp_path / "ring6.json").write_text(json.dumps({"n": 18, "edges": edges}))
    got_code, out = run_cli([verb, "--graph", "ring6.json", "--k", "3"], capsys)
    assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)


# the profile stage on the rings, read through --graph files: the
# three-triangle ring at k = 3 under the default caps, and the three fixture
# rings at k = 3 and 4 with max_sk lifted (most of their S_k is forced)
PROFILE_RING_GRAPHS = {
    "triangle_ring3": lambda: TRIANGLE_RING3,
    "triangle_ring": lambda: graph_to_json(triangle_ring()),
    "triangle_ring_pendant": lambda: graph_to_json(triangle_ring(pendant=True)),
    "doubled_bridge_ring": lambda: graph_to_json(doubled_bridge_ring()),
}
PROFILE_RING_GOLDEN = [
    ("separations triangle_ring3 3", "a726a196fd34bf578f9317db6ca52e0bcecff36e334dc999efa26eef7fea9108"),
    ("profiles triangle_ring3 3", "63923795dfb9b3dd5083751ad1e0cc8d315766f1099b39dd373ba5804657c629"),
    ("distinguish triangle_ring3 3", "4f9199a6ccf084bdb18d666657d18204ef9815d4f60d3641b67230d65a72eb43"),
    ("profiles triangle_ring 3", "18c548e09b592c4c0ae31c39db5a3a42c34645b24884015717479e287cff8973"),
    ("distinguish triangle_ring 3", "9a7b1fe0709d5f76fcf0aafa3d88c4c35650072b7d7b441769d7dceca2472f21"),
    ("profiles triangle_ring 4", "6ddc8b2edde969abcfafed0f52cd065c1c9f28a191aac8dbc5f8ff6b5e02c517"),
    ("distinguish triangle_ring 4", "f14186480f06fabdf7a5deaecf09c9569f78330b12770fa5388f5802810fceca"),
    ("profiles triangle_ring_pendant 3", "6438c0180111ccfc98837341090300bd747bd7e050ba5969c0484fffd0fe95df"),
    ("distinguish triangle_ring_pendant 3", "8498064c034ab28c3ae7c46ebafaf34a8c1bdd44a712ba96776c12836b35f454"),
    ("profiles triangle_ring_pendant 4", "a6af02d6897c47c9bbf3c417f3c3fea86be645dcc57587c848c158309302df52"),
    ("distinguish triangle_ring_pendant 4", "94463dfb16bd38d8d2e7e8f18e62bbff5b02cab5966bf311118d5dc99a9608fb"),
    ("profiles doubled_bridge_ring 3", "d12d59133dddf96a90fcf411d362f3c9e46f1fb3a1e0a54c4d505bcffd476917"),
    ("distinguish doubled_bridge_ring 3", "8e9240941f79517029ed859f81be20648a3b5027111bcc1d71fcb350628849c4"),
    ("profiles doubled_bridge_ring 4", "5273842a9dfae9ea0ece06e9f13f2e6cbedfa1dfcd2c92b343a282a00fe9278d"),
    ("distinguish doubled_bridge_ring 4", "bfcf3d446da0eceae56fae14ed7e6c3edf78391f620b271f1a21c272dc9fae23"),
]


@pytest.mark.parametrize("spec,digest", PROFILE_RING_GOLDEN, ids=[g[0] for g in PROFILE_RING_GOLDEN])
def test_golden_profile_ring_digest(spec, digest, capsys, monkeypatch, tmp_path):
    verb, name, k = spec.split()
    if name == "triangle_ring3":
        monkeypatch.delenv("TANGLEFORGE_CAPS", raising=False)
    else:
        monkeypatch.setenv("TANGLEFORGE_CAPS", '{"max_sk": 1024}')
    monkeypatch.chdir(tmp_path)
    (tmp_path / f"{name}.json").write_text(json.dumps(PROFILE_RING_GRAPHS[name]()))
    got_code, out = run_cli([verb, "--graph", f"{name}.json", "--k", k], capsys)
    assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)


def ring_of_triangles(t: int) -> dict:
    """Graph JSON of t triangles joined into a ring by bridges (n = 3t)."""
    n = 3 * t
    edges = [[3 * i + a, 3 * i + b] for i in range(t) for a, b in ((0, 1), (1, 2), (0, 2))]
    edges += [[3 * i + 2, (3 * i + 3) % n] for i in range(t)]
    return {"n": n, "edges": edges}


# the finite splinter lemma on the ring of five triangles (n = 15) at k = 3
# with the caps lifted: 10 distinguisher families, 9 restrictions
FIVE_RING_SPLINTER_GOLDEN = "c27809384ab5aad8505451e1f728bc9d2cf4d24dbf337c626ae947fafbc147f9"


def test_golden_five_triangle_ring_splinter_digest(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("TANGLEFORGE_CAPS", '{"max_n":30,"max_sk":1024}')
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ring5.json").write_text(json.dumps(ring_of_triangles(5)))
    got_code, out = run_cli(["splinter", "--graph", "ring5.json", "--k", "3"], capsys)
    assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (0, FIVE_RING_SPLINTER_GOLDEN)


def test_splinter_checks_the_whole_instance_once(capsys, monkeypatch, tmp_path):
    """The splinter verb runs one whole splinter check; each of the 9
    restrictions of the five-ring's 10 families is checked only on the
    member pairs it touched, and splinters_check is not called."""
    from tangleforge import splinter

    counts = {"whole": 0, "restrict": 0}
    real_init, real_restrict = splinter._Splinters.__init__, splinter._Splinters.restrict

    def init(self, *args):
        counts["whole"] += 1
        real_init(self, *args)

    def restrict(self, *args):
        counts["restrict"] += 1
        return real_restrict(self, *args)

    monkeypatch.setattr(splinter._Splinters, "__init__", init)
    monkeypatch.setattr(splinter._Splinters, "restrict", restrict)
    calls = count_calls(monkeypatch, splinter, ("splinters_check",))
    monkeypatch.setenv("TANGLEFORGE_CAPS", '{"max_n":30,"max_sk":1024}')
    path = tmp_path / "ring5.json"
    path.write_text(json.dumps(ring_of_triangles(5)))
    code, out = run_cli(["splinter", "--graph", str(path), "--k", "3"], capsys)
    assert code == 0 and json.loads(out)["result"]["families"] == 10
    assert counts == {"whole": 1, "restrict": 9}
    assert calls == {"splinters_check": 0}


def test_splinter_tests_each_member_pair_once(capsys, monkeypatch, tmp_path):
    """On the eight-triangle ring at k = 3 the splinter verb's whole check
    tests each ordered pair of the 112 members once, 112² tests. The 27
    restrictions of its 28 families take the members that cross the pick
    out of every family at once, so no member that stays in a family loses
    a family, no watched pair loses a corner, and none of them re-tests a
    pair; the members left in a family are counted after each."""
    from tangleforge import splinter

    tested, left = [], []
    real_check, real_restrict = splinter._Splinters.check_pairs, splinter._Splinters.restrict

    def check_pairs(self, rows):
        rows = list(rows)
        tested.append(sum(len(ts) for _, ts in rows))
        return real_check(self, rows)

    def restrict(self, kept):
        left.append(len(set().union(*kept.values())))
        return real_restrict(self, kept)

    monkeypatch.setattr(splinter._Splinters, "check_pairs", check_pairs)
    monkeypatch.setattr(splinter._Splinters, "restrict", restrict)
    monkeypatch.setenv("TANGLEFORGE_CAPS", '{"max_n":30,"max_sk":1024}')
    path = tmp_path / "ring8.json"
    path.write_text(json.dumps(ring_of_triangles(8)))
    code, out = run_cli(["splinter", "--graph", str(path), "--k", "3"], capsys)
    assert code == 0 and json.loads(out)["result"]["families"] == 28
    assert tested == [112**2] + [0] * 27
    assert left == [88, 68, 52, 40, 32, 28, *[24] * 6, *[20] * 5, *[16] * 4, *[12] * 3, 8, 8, 4]


def test_profiles_reads_principality_off_one_cut_table(capsys, monkeypatch, tmp_path):
    """On the three-triangle ring at k = 3, the profile search enumerates
    S_3 from one `components_each` call over the 46 separators X, |X| < 3,
    and principality of all three profiles reads one table of the same 46
    cuts, where one table per profile took three calls. Each call runs
    `components` only on the 12 X that split G."""
    monkeypatch.delenv("TANGLEFORGE_CAPS", raising=False)
    calls = {"components_each": 0, "components": 0}
    for name in calls:
        real = getattr(core.Graph, name)

        def counted(self, *args, _name=name, _real=real):
            calls[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(core.Graph, name, counted)
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(TRIANGLE_RING3))
    code, out = run_cli(["profiles", "--graph", str(path), "--k", "3"], capsys)
    assert code == 0 and json.loads(out)["result"]["count"] == 3
    assert calls == {"components_each": 1 + 1, "components": 12 + 12}


def test_profinite_splinter_on_the_four_triangle_ring_ends_on_the_union_cap(
    capsys, monkeypatch, tmp_path
):
    """Its demo chain has universes of 193, 2,479 and 27,233 elements;
    validation certifies them per element, so the run reaches the
    transversal search and stops on its union cap in about a second."""
    monkeypatch.setenv("TANGLEFORGE_CAPS", '{"max_sk": 128}')
    g = triangle_ring()
    path = tmp_path / "ring4.json"
    path.write_text(json.dumps({"n": g.n, "edges": [list(e) for e in g.edges()]}))
    code, out = run_cli(["profinite-splinter", "--graph", str(path), "--k", "3"], capsys)
    assert code == 3
    error = json.loads(out)["error"]
    assert error == {"message": "union of projected families has 20 elements (cap 12)", "type": "cap"}


# a triangle on {0, 1, 2} with the path 2-3-4-5 hanging off it, the
# profinite_demo graph of the benchmark
LOLLIPOP_EDGES = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)]


def test_profinite_splinter_demo_chain_depends_on_labels(capsys, monkeypatch, tmp_path):
    """The demo chain of a --graph input is cut from vertex-label prefixes
    (cli._demo_chain), so its points are not canonical: under seeded
    relabellings of the lollipop at k = 2, the points pulled back to the
    original labels differ, while the limit count stays 3."""
    monkeypatch.delenv("TANGLEFORGE_CAPS", raising=False)
    path = tmp_path / "lollipop.json"
    pulled_back = set()
    for seed in range(8):
        perm = random.Random(seed).sample(range(6), 6)
        path.write_text(json.dumps({"n": 6, "edges": [[perm[u], perm[v]] for u, v in LOLLIPOP_EDGES]}))
        code, out = run_cli(["profinite-splinter", "--graph", str(path), "--k", "2"], capsys)
        assert code == 0, out
        result = json.loads(out)["result"]
        assert result["limit_count"] == 3
        pulled_back.add(
            tuple(tuple(sorted(perm.index(v) for v in point)) for point in result["points"])
        )
    assert len(pulled_back) >= 2


def test_splinter_picks_follow_vertex_labels(capsys, monkeypatch, tmp_path):
    """`splinter_finite` picks from the first family with a fitting member,
    and there its first member in element order, so the `splinter` verb is
    not canonical (only `thin_splinter` is): under this relabelling of the
    three-triangle ring at k = 3, the distinguisher families pulled back to
    the original labels are the original ones, but the picks are not."""
    monkeypatch.delenv("TANGLEFORGE_CAPS", raising=False)
    path = tmp_path / "ring.json"
    families, picks = [], []
    for label in (list(range(9)), [5, 6, 7, 4, 3, 0, 8, 1, 2]):

        def pulled_back(seps):
            return frozenset(
                core.canonical(
                    core.Separation(
                        *(core.mask_of(label.index(v) for v in core.vertices_of(side)) for side in s)
                    )
                )
                for s in seps
            )

        edges = [[label[u], label[v]] for u, v in TRIANGLE_RING3["edges"]]
        path.write_text(json.dumps({"n": 9, "edges": edges}))
        code, out = run_cli(["splinter", "--graph", str(path), "--k", "3"], capsys)
        assert code == 0, out
        transversal = json.loads(out)["result"]["transversal"]
        picks.append(
            pulled_back(
                core.Separation(core.mask_of(s["a"]), core.mask_of(s["b"])) for s in transversal
            )
        )
        g = Graph.from_edges(9, edges)
        chosen = profiles.pipeline_profiles(g, profiles.enumerate_k_profiles(g, 3))
        families.append(
            {
                pulled_back(profiles.efficient_distinguishers(g, p, q).seps)
                for i, p in enumerate(chosen)
                for q in chosen[i + 1 :]
            }
        )
    assert len(families[0]) == 3
    assert families[0] == families[1]
    assert picks[0] != picks[1]


GRAPH_VERBS = [name for name in cli_module.COMMANDS if name not in ("verify", "fixtures")]
COUNTED_JOBS = [
    (verb, graph) for graph in [*sorted(FIXTURES), "triangle_ring3"] for verb in GRAPH_VERBS
]


def count_calls(monkeypatch, owner, names) -> dict:
    """Count calls of the named functions of the module `owner` through
    every tangleforge module that binds them."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(owner, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("tangleforge") and (
                getattr(module, name, None) is real
            ):
                monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("verb,graph", COUNTED_JOBS, ids=[" ".join(j) for j in COUNTED_JOBS])
def test_each_job_builds_s_k_once(verb, graph, capsys, monkeypatch, tmp_path):
    """S_k comes from the profile search and is read off the profiles after
    it; only profinite-splinter builds whole universes. Principality is
    checked once per profile, by the preconditions of
    separators_to_separations and build_totd, and each pair's distinguisher
    set is computed once, by build_separator_instance."""
    monkeypatch.delenv("TANGLEFORGE_CAPS", raising=False)
    if graph == "triangle_ring3":
        path = tmp_path / "ring.json"
        path.write_text(json.dumps(TRIANGLE_RING3))
        argv = [verb, "--graph", str(path), "--k", "3"]
    else:
        argv = [verb, "--fixture", graph]
    calls = count_calls(monkeypatch, core, ("enumerate_separations", "all_separations"))
    per_profile = count_calls(monkeypatch, profiles, ("_principal", "efficient_distinguishers"))
    code, out = run_cli(argv, capsys)
    assert code in (0, 1), out
    if (verb, graph) == ("splinter", "FIX_2K4"):
        assert json.loads(out)["result"]["families"] > 0  # the universe is built
    assert calls["enumerate_separations"] <= 1
    if verb != "profinite-splinter":
        assert calls["all_separations"] == 0
    if graph == "triangle_ring3" and verb in ("nested-separations", "treedec", "totd"):
        assert per_profile["_principal"] == 3  # one per regular robust 3-profile
        assert per_profile["efficient_distinguishers"] == 3  # one per pair of them


def test_every_traced_layer_name_is_a_library_callable():
    """perfbench/spans.py wraps its LAYERS by module attribute, so a name
    that is gone would drop out of a traced run without an error."""
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for layer, names in spans.LAYERS.items():
        module = importlib.import_module(f"tangleforge.{layer}")
        for name in names:
            owner = module.Graph if name == "components" else module
            assert callable(getattr(owner, name, None)), f"tangleforge.{layer}.{name}"


# public class members that only tests read, each kept on purpose
TEST_ONLY_MEMBERS = {
    "DistinguisherSet.first": "the exported record names the two profiles it distinguishes",
    "DistinguisherSet.second": "the exported record names the two profiles it distinguishes",
    "ThinSplinterReport.max_crossing": "property (1) of the exported thinly_splinters_check, "
    "which the oracle differentials compare",
}


def test_every_exported_name_is_used_by_the_library():
    """Each name `tangleforge` exports is referenced by some module other
    than `__init__` and `oracles`, outside the name's own definition, so
    that no helper only the tests reach is offered as API. A reference is a
    loaded Name or a `from ... import` alias.

    The same holds for the public methods and the fields of every class
    outside `oracles`: some module other than `__init__` and `oracles`
    reads an attribute of that name, or perfbench's `LAYERS` names it,
    unless `TEST_ONLY_MEMBERS` gives the reason to keep it. A read is an
    attribute loaded other than to be assigned into, as in
    `x.parent[c] = t`."""
    package = os.path.dirname(tangleforge.__file__)

    def parse(name):
        with open(os.path.join(package, name), "r", encoding="utf-8") as fh:
            return ast.parse(fh.read())

    exported = {
        alias.asname or alias.name
        for node in parse("__init__.py").body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    used, read, members = set(), set(), {}
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name in ("__init__.py", "oracles.py"):
            continue
        tree = parse(name)
        for stmt in tree.body:
            refs = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    refs.add(node.id)
                elif isinstance(node, ast.ImportFrom):
                    refs.update(alias.name for alias in node.names)
            refs.discard(getattr(stmt, "name", None))  # a def or class does not use itself
            used |= refs
        assigned = {
            id(node.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if id(node) not in assigned:
                    read.add(node.attr)
            elif isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.FunctionDef):
                        members[f"{node.name}.{stmt.name}"] = stmt.name
                    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        members[f"{node.name}.{stmt.target.id}"] = stmt.target.id
    assert sorted(exported - used) == []
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    read.update(name for names in spans.LAYERS.values() for name in names)
    unread = {m for m, attr in members.items() if not attr.startswith("_") and attr not in read}
    assert sorted(unread - TEST_ONLY_MEMBERS.keys()) == []
    assert sorted(TEST_ONLY_MEMBERS.keys() - unread) == []  # the list holds no name the library reads


def test_dot_rejected_elsewhere(capsys):
    code, _ = run_cli(["profiles", "--fixture", "FIX_P4", "--k", "2", "--format", "dot"], capsys)
    assert code == 2


def test_usage_errors(capsys):
    assert run_cli(["profiles"], capsys)[0] == 2  # no graph given
    assert run_cli(["no-such-command"], capsys)[0] == 2
    assert run_cli(["profiles", "--graph", "/nonexistent/file", "--k", "2"], capsys)[0] == 2


def system_json(edit=None) -> str:
    """A well-formed two-point system (the identity on the 2 x 2 chain
    product), with `edit` applied to it."""
    u_json = universe_to_json(product_chain_universe(2, 2))
    system = {
        "points": ["p0", "p1"],
        "poset": [["p0", "p1"]],
        "universes": {"p0": u_json, "p1": json.loads(json.dumps(u_json))},
        "maps": {"p1->p0": [[i, i] for i in range(4)]},
        "families": [{"p0": [0], "p1": [0]}],
    }
    if edit is not None:
        edit(system)
    return json.dumps(system)


# files written to the scratch directory "{tmp}" before each bad-input case
BAD_FILES = {
    "p4.txt": "0 1\n1 2\n2 3\n",
    "truncated.json": '{"elements": ["a", ',
    "graph-list.json": "[1, 2]",
    "graph-edge-triple.json": json.dumps({"n": 4, "edges": [[0, 1, 2]]}),
    "graph-edge-string.json": json.dumps({"n": 4, "edges": [["a", 1]]}),
    "graph-edge-float.json": json.dumps({"n": 4, "edges": [[0.5, 1]]}),
    "graph-edge-bool.json": json.dumps({"n": 2, "edges": [[True, False]]}),
    "graph-n-negative.json": json.dumps({"n": -1, "edges": []}),
    "graph-n-infinite.json": '{"n": 1e999, "edges": []}',
    "graph-n-float.json": json.dumps({"n": 4.5, "edges": []}),
    "graph-n-string.json": json.dumps({"n": "4", "edges": []}),
    "graph-n-bool.json": json.dumps({"n": True, "edges": []}),
    "instance-list.json": "[]",
    "instance-order.json": json.dumps(
        {"elements": ["a"], "nested": [], "families": [{"members": ["a"], "order": "one"}]}
    ),
    "instance-members.json": json.dumps(
        {"elements": ["a"], "nested": [], "families": [{"members": "a", "order": 1}]}
    ),
    "instance-name-twice.json": json.dumps(
        {
            "elements": [1, 2],
            "nested": [],
            "families": [
                {"name": "a", "members": [1], "order": 1},
                {"name": "a", "members": [2], "order": 1},
            ],
        }
    ),
    "instance-name-index.json": json.dumps(
        {
            "elements": [1, 2],
            "nested": [],
            "families": [{"members": [1], "order": 1}, {"name": 0, "members": [2], "order": 1}],
        }
    ),
    "instance-order-float.json": json.dumps(
        {"elements": ["a"], "nested": [], "families": [{"members": ["a"], "order": 1.5}]}
    ),
    "instance-order-digits.json": json.dumps(
        {"elements": ["a"], "nested": [], "families": [{"members": ["a"], "order": "2"}]}
    ),
    "instance-order-bool.json": json.dumps(
        {"elements": ["a"], "nested": [], "families": [{"members": ["a"], "order": True}]}
    ),
    "instance-member-outside.json": json.dumps(
        {"elements": ["a"], "nested": [], "families": [{"members": ["b"], "order": 1}]}
    ),
    "instance-members-empty.json": json.dumps(
        {"elements": ["a"], "nested": [], "families": [{"members": [], "order": 1}]}
    ),
    "instance-order-negative.json": json.dumps(
        {"elements": ["a"], "nested": [], "families": [{"members": ["a"], "order": -1}]}
    ),
    "system-points.json": '{"points": 3}',
    "system-list.json": "[]",
    "system-key-arrow.json": system_json(
        lambda s: s.update(maps={"p1p0": s["maps"]["p1->p0"]})
    ),
    "system-key-point.json": system_json(
        lambda s: s.update(maps={"p1->p9": s["maps"]["p1->p0"]})
    ),
    "system-star-short.json": system_json(lambda s: s["universes"]["p1"]["star"].pop()),
    "system-join-short.json": system_json(lambda s: s["universes"]["p0"]["join"].pop()),
    "system-meet-short.json": system_json(lambda s: s["universes"]["p1"]["meet"].pop()),
    "system-meet-outside.json": system_json(
        lambda s: s["universes"]["p1"]["meet"][0].__setitem__(2, 7)
    ),
    "system-map-short.json": system_json(lambda s: s["maps"]["p1->p0"].pop()),
    "system-map-outside.json": system_json(lambda s: s["maps"]["p1->p0"].append([3, 9])),
    "system-family-point.json": system_json(lambda s: s["families"][0].pop("p0")),
    "system-universe-missing.json": system_json(lambda s: s["universes"].pop("p1")),
}

BAD_INPUTS = [
    # (id, TANGLEFORGE_CAPS or None, argv; "{tmp}" is a scratch directory)
    ("cap-not-integer", '{"max_n": "abc"}', ["separations", "--fixture", "FIX_P4", "--k", "2"]),
    ("caps-not-object", "[16]", ["separations", "--fixture", "FIX_P4", "--k", "2"]),
    ("cap-infinite", '{"max_n": 1e999}', ["separations", "--fixture", "FIX_P4", "--k", "2"]),
    ("cap-fmt", '{"fmt": 1}', ["separations", "--fixture", "FIX_P4", "--k", "2"]),
    ("cap-seed", '{"seed": 3}', ["separations", "--fixture", "FIX_P4", "--k", "2"]),
    ("cap-float", '{"max_n": 3.9}', ["separations", "--fixture", "FIX_P4", "--k", "2"]),
    ("cap-bool", '{"max_n": true}', ["separations", "--fixture", "FIX_P4", "--k", "2"]),
    ("cap-string-digits", '{"max_n": "12"}', ["separations", "--fixture", "FIX_P4", "--k", "2"]),
    ("cap-negative", '{"max_sk": -5}', ["separations", "--fixture", "FIX_P4", "--k", "2"]),
    ("k-zero", None, ["profiles", "--fixture", "FIX_P4", "--k", "0"]),
    ("k-negative", None, ["profiles", "--fixture", "FIX_P4", "--k", "-3"]),
    ("k-zero-graph", None, ["profiles", "--graph", "{tmp}/p4.txt", "--k", "0"]),
    ("cap-n-negative", None, ["separations", "--fixture", "FIX_P4", "--k", "2", "--cap-n", "-1"]),
    ("graph-json-list", None, ["separations", "--graph", "{tmp}/graph-list.json", "--k", "2"]),
    ("out-missing-dir", None, ["separations", "--fixture", "FIX_P4", "--out", "{tmp}/no/x.json"]),
    ("out-is-directory", None, ["separations", "--fixture", "FIX_P4", "--out", "{tmp}"]),
    ("out-cap-envelope", None, ["separations", "--fixture", "FIX_P4", "--cap-n", "0", "--out", "{tmp}"]),
    ("out-diagnostic-envelope", None, ["totd", "--fixture", "FIX_2K2", "--out", "{tmp}/no/x.json"]),
    ("suite-unknown", None, ["verify", "--suite", "nosuch"]),
    ("all-with-suite", None, ["verify", "--all", "--suite", "totd-2k4"]),
    (
        "fixture-and-graph",
        None,
        ["separations", "--fixture", "FIX_P4", "--graph", "{tmp}/p4.txt", "--k", "2"],
    ),
    ("fixtures-graph-k", None, ["fixtures", "--k", "3", "--graph", "nothing"]),
    ("fixtures-fixture", None, ["fixtures", "--fixture", "FIX_P4"]),
    ("verify-fixture", None, ["verify", "--suite", "totd-2k4", "--fixture", "FIX_2K4"]),
    ("verify-graph", None, ["verify", "--all", "--graph", "{tmp}/p4.txt"]),
    ("verify-k", None, ["verify", "--k", "2"]),
    ("instance-and-graph", None, ["thin-splinter", "--instance", "{tmp}/x.json", "--graph", "g"]),
    ("system-and-k", None, ["profinite-splinter", "--system", "{tmp}/x.json", "--k", "2"]),
    ("dot-verify", None, ["verify", "--suite", "totd-2k4", "--format", "dot"]),
    ("dot-over-cap", '{"max_k": 1}', ["profiles", "--fixture", "FIX_P4", "--k", "2", "--format", "dot"]),
] + [
    (name[: -len(".json")], None, ["separations", "--graph", "{tmp}/" + name, "--k", "2"])
    for name in BAD_FILES
    if name.startswith("graph-") and name != "graph-list.json"
] + [
    ("instance-missing", None, ["thin-splinter", "--instance", "{tmp}/missing.json"]),
    ("instance-directory", None, ["thin-splinter", "--instance", "{tmp}"]),
    ("instance-truncated", None, ["thin-splinter", "--instance", "{tmp}/truncated.json"]),
    ("system-missing", None, ["profinite-splinter", "--system", "{tmp}/missing.json"]),
    ("system-truncated", None, ["profinite-splinter", "--system", "{tmp}/truncated.json"]),
] + [
    (name[: -len(".json")], None, [verb, flag, "{tmp}/" + name])
    for name in BAD_FILES
    if name.startswith(("instance-", "system-"))
    for verb, flag in [
        ("thin-splinter", "--instance") if name.startswith("instance-")
        else ("profinite-splinter", "--system")
    ]
]


@pytest.mark.parametrize("env,argv", [c[1:] for c in BAD_INPUTS], ids=[c[0] for c in BAD_INPUTS])
def test_bad_input_is_a_one_line_usage_error(env, argv, capsys, monkeypatch, tmp_path):
    for name, text in BAD_FILES.items():
        (tmp_path / name).write_text(text)
    if env is None:
        monkeypatch.delenv("TANGLEFORGE_CAPS", raising=False)
    else:
        monkeypatch.setenv("TANGLEFORGE_CAPS", env)
    code = cli_main([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("verb", GRAPH_VERBS)
def test_boolean_vertices_are_refused_by_every_graph_verb(verb, capsys, tmp_path):
    """JSON true and false are no vertices, although Python reads them as
    1 and 0: the edge [true, false] is refused, not taken as 0–1."""
    path = tmp_path / "g.json"
    path.write_text(BAD_FILES["graph-edge-bool.json"])
    code = cli_main([verb, "--graph", str(path), "--k", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {path}: graph JSON vertices must be integers\n"


def test_unknown_suite_is_named(capsys):
    code = cli_main(["verify", "--suite", "totd-2k4", "--suite", "nosuch"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: unknown suite: nosuch\n"


def test_bad_system_files_edit_a_well_formed_one(tmp_path, capsys):
    path = tmp_path / "system.json"
    path.write_text(system_json())
    code, out = run_cli(["profinite-splinter", "--system", str(path)], capsys)
    assert code == 0, out


def test_internal_key_error_is_not_a_usage_error(monkeypatch):
    def broken(args, cfg):
        raise KeyError("internal")

    monkeypatch.setitem(cli_module.COMMANDS, "fixtures", broken)
    with pytest.raises(KeyError):
        cli_main(["fixtures"])


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_default_caps_run_every_fixture(name, capsys, monkeypatch):
    monkeypatch.delenv("TANGLEFORGE_CAPS", raising=False)
    code, out = run_cli(["profiles", "--fixture", name], capsys)
    assert code == 0, out


def test_cap_exceeded_exit_code(capsys, tmp_path):
    path = tmp_path / "big.txt"
    path.write_text("".join(f"{i} {i + 1}\n" for i in range(17)))
    code, out = run_cli(["separations", "--graph", str(path), "--k", "2"], capsys)
    assert code == 3
    assert "cap" in json.loads(out)["error"]["type"]


def test_env_cap_override(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("TANGLEFORGE_CAPS", json.dumps({"max_n": 3}))
    code, _ = run_cli(["separations", "--fixture", "FIX_P4", "--k", "2"], capsys)
    assert code == 3
    monkeypatch.setenv("TANGLEFORGE_CAPS", "not json")
    assert run_cli(["separations", "--fixture", "FIX_P4", "--k", "2"], capsys)[0] == 2


def test_cap_n_flag(capsys):
    code, _ = run_cli(
        ["separations", "--fixture", "FIX_P4", "--k", "2", "--cap-n", "3"], capsys
    )
    assert code == 3


def test_cap_n_zero_is_a_cap(capsys):
    code, out = run_cli(
        ["separations", "--fixture", "FIX_P4", "--k", "2", "--cap-n", "0"], capsys
    )
    assert code == 3
    assert json.loads(out)["error"]["type"] == "cap"


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out = run_cli(
        ["separations", "--fixture", "FIX_P4", "--k", "2", "--out", str(target)], capsys
    )
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert payload["command"] == "separations"


def test_calls_in_one_process_match_calls_made_alone(tmp_path, capsys, monkeypatch):
    """cli_main shares one parser between calls: each call's stdout, stderr
    and exit code equal those of the same call in a fresh interpreter."""
    monkeypatch.delenv("TANGLEFORGE_CAPS", raising=False)
    calls = [
        ["profiles", "--fixture", "FIX_P4", "--k", "two"],  # usage error
        ["profiles", "--fixture", "FIX_P4", "--k", "2"],
        ["separations", "--fixture", "FIX_P4", "--k", "2", "--cap-n", "0"],  # cap error
        ["separations", "--fixture", "FIX_P4", "--out", str(tmp_path / "no" / "x.json")],
        ["totd", "--fixture", "FIX_2K4", "--format", "dot"],
    ]
    in_process = []
    for argv in calls:
        code = cli_main(argv)
        captured = capsys.readouterr()
        in_process.append((captured.out, captured.err, code))
    assert [code for _, _, code in in_process] == [2, 0, 3, 2, 0]
    env = {key: value for key, value in os.environ.items() if key != "TANGLEFORGE_CAPS"}
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    for argv, expected in zip(calls, in_process):
        alone = subprocess.run(
            [sys.executable, "-m", "tangleforge.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
        )
        assert (alone.stdout, alone.stderr, alone.returncode) == expected, argv


# ---------------------------------------------------------------------------
# graph ingestion

P4_EDGES = [(0, 1), (1, 2), (2, 3)]


def test_load_graph_fixture_and_edge_list(tmp_path):
    path = tmp_path / "p4.txt"
    path.write_text("# a path\n0 1\n1 2\n2 3\n")
    assert read_graph(str(path)) == (4, P4_EDGES)
    assert read_graph("FIX_P4") == (4, P4_EDGES)
    assert Graph.from_edges(*read_graph(str(path))) == FIXTURES["FIX_P4"].graph


def test_load_graph_json_roundtrip(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}))
    assert read_graph(str(path)) == (4, P4_EDGES)


def test_graph_cap_is_checked_before_the_graph_is_built(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("TANGLEFORGE_CAPS", raising=False)
    build = Graph.from_edges

    def guarded(n, edges):
        assert n <= 64, f"Graph.from_edges({n}) ran before the cap check"
        return build(n, edges)

    monkeypatch.setattr(Graph, "from_edges", staticmethod(guarded))
    (tmp_path / "huge.json").write_text(json.dumps({"n": 10**12, "edges": [[0, 1]]}))
    (tmp_path / "huge.txt").write_text(f"0 1\n1 {10**12 - 1}\n")
    for name in ("huge.json", "huge.txt"):
        code, out = run_cli(["separations", "--graph", str(tmp_path / name), "--k", "2"], capsys)
        assert code == 3
        assert json.loads(out)["error"]["type"] == "cap"


CAPPED_SEARCHES = [
    # (id, verb, graph JSON, k, |S_k|) against the default max_sk of 64
    ("edgeless16-k1", "profiles", {"n": 16, "edges": []}, 1, 32768),
    ("star16-k2", "profiles", {"n": 16, "edges": [[0, v] for v in range(1, 16)]}, 2, 16400),
    ("k5-11-k6", "profiles", {"n": 16, "edges": [[u, v] for u in range(5) for v in range(5, 16)]}, 6, 7908),
    ("separations-star16-k3", "separations", {"n": 16, "edges": [[0, v] for v in range(1, 16)]}, 3, 139385),
]


@pytest.mark.parametrize(
    "verb,graph,k,size", [c[1:] for c in CAPPED_SEARCHES], ids=[c[0] for c in CAPPED_SEARCHES]
)
def test_profile_search_cap_is_checked_before_any_separation_is_built(
    verb, graph, k, size, tmp_path, capsys, monkeypatch
):
    monkeypatch.delenv("TANGLEFORGE_CAPS", raising=False)
    built = []
    real = core.Separation

    def counted(a, b):
        built.append((a, b))
        return real(a, b)

    monkeypatch.setattr(core, "Separation", counted)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph))
    code, out = run_cli([verb, "--graph", str(path), "--k", str(k)], capsys)
    assert code == 3
    message = json.loads(out)["error"]["message"]
    assert message == f"|S_k| = {size} exceeds max_sk 64"
    assert built == []


def test_load_graph_rejects_self_loop(tmp_path):
    from tangleforge.errors import InputError

    path = tmp_path / "bad.txt"
    path.write_text("0 1\n2 2\n")
    with pytest.raises(InputError, match="bad.txt:2"):
        read_graph(str(path))


def test_load_graph_rejects_malformed_line(tmp_path):
    from tangleforge.errors import InputError

    path = tmp_path / "bad.txt"
    path.write_text("0 1 2\n")
    with pytest.raises(InputError, match=":1"):
        read_graph(str(path))


# ---------------------------------------------------------------------------
# file-driven abstract inputs

def test_thin_splinter_instance_file(tmp_path, capsys):
    instance = {
        "elements": ["a", "b", "c"],
        "nested": [["a", "c"], ["b", "c"]],
        "families": [
            {"name": "f1", "order": 1, "members": ["a", "c"]},
            {"name": "f2", "order": 1, "members": ["b", "c"]},
        ],
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance))
    code, out = run_cli(["thin-splinter", "--instance", str(path)], capsys)
    assert code == 0
    payload = json.loads(out)
    validate("thin-splinter", payload)
    assert payload["result"]["nested_set"] == ["c"]


def test_profinite_splinter_system_file(tmp_path, capsys):
    u = product_chain_universe(3, 3)
    u_json = universe_to_json(u)
    names = {x: i for i, x in enumerate(u.elements)}
    system = {
        "points": ["p0", "p1"],
        "poset": [["p0", "p1"]],
        "universes": {"p0": u_json, "p1": u_json},
        "maps": {"p1->p0": [[i, i] for i in range(len(u.elements))]},
        "families": [
            {"p0": [names[(0, 1)], names[(1, 1)]], "p1": [names[(0, 1)], names[(1, 1)]]}
        ],
    }
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system))
    code, out = run_cli(["profinite-splinter", "--system", str(path)], capsys)
    assert code == 0
    payload = json.loads(out)
    validate("profinite-splinter", payload)
    assert payload["result"]["limit_count"] >= 1


def test_profinite_splinter_with_no_families_exits_zero(tmp_path, capsys):
    """Zero families: the chosen nested set is empty at every point and
    no limit goes through it, which is a valid answer, not a bug."""
    path = tmp_path / "system.json"
    path.write_text(system_json(lambda s: s.update(families=[])))
    code, out = run_cli(["profinite-splinter", "--system", str(path)], capsys)
    assert code == 0, out
    payload = json.loads(out)
    validate("profinite-splinter", payload)
    assert payload["result"]["limit_count"] == 0
    assert payload["result"]["nested_choice"] == {"p0": [], "p1": []}


def test_hypothesis_failure_exit_code(tmp_path, capsys):
    instance = {
        "elements": ["a", "b"],
        "nested": [],
        "families": [
            {"name": "f1", "order": 1, "members": ["a"]},
            {"name": "f2", "order": 1, "members": ["b"]},
        ],
    }
    path = tmp_path / "bad_inst.json"
    path.write_text(json.dumps(instance))
    code, out = run_cli(["thin-splinter", "--instance", str(path)], capsys)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "HypothesisError"


def test_thin_splinter_witness_does_not_depend_on_the_hash_seed(tmp_path):
    """The failure witness lists each family's members in element order, so
    interpreters with different string hashing print the same bytes."""
    instance = {
        "elements": ["a", "b", "c", "d", "e", "f"],
        "nested": [],
        "families": [
            {"name": "f1", "order": 1, "members": ["a", "b", "c"]},
            {"name": "f2", "order": 2, "members": ["d", "e", "f"]},
        ],
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance))
    env = {key: value for key, value in os.environ.items() if key != "TANGLEFORGE_CAPS"}
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    runs = []
    for seed in ("1", "2"):
        env["PYTHONHASHSEED"] = seed
        runs.append(
            subprocess.run(
                [sys.executable, "-m", "tangleforge.cli", "thin-splinter", "--instance", str(path)],
                capture_output=True,
                text=True,
                env=env,
            )
        )
    assert runs[0].returncode == runs[1].returncode == 1
    assert runs[0].stdout == runs[1].stdout
    assert "('f1', 'f2', 'a', 'd')" in runs[0].stdout
