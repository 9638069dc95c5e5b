"""CLI surface: subcommands, exit codes, determinism, schema validation,
graph ingestion."""

import json
import os

import jsonschema
import pytest

from tangleforge import cli as cli_module
from tangleforge.cli import cli_main, load_graph
from tangleforge.fixtures import FIXTURES
from tangleforge.profinite import product_chain_universe, universe_to_json


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
    "instance-list.json": "[]",
    "instance-order.json": json.dumps(
        {"elements": ["a"], "nested": [], "families": [{"members": ["a"], "order": "one"}]}
    ),
    "instance-members.json": json.dumps(
        {"elements": ["a"], "nested": [], "families": [{"members": "a", "order": 1}]}
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
    ("k-zero", None, ["profiles", "--fixture", "FIX_P4", "--k", "0"]),
    ("k-negative", None, ["profiles", "--fixture", "FIX_P4", "--k", "-3"]),
    ("k-zero-graph", None, ["profiles", "--graph", "{tmp}/p4.txt", "--k", "0"]),
    ("cap-n-negative", None, ["separations", "--fixture", "FIX_P4", "--k", "2", "--cap-n", "-1"]),
    ("graph-json-list", None, ["separations", "--graph", "{tmp}/graph-list.json", "--k", "2"]),
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


# ---------------------------------------------------------------------------
# graph ingestion

def test_load_graph_fixture_and_edge_list(tmp_path):
    path = tmp_path / "p4.txt"
    path.write_text("# a path\n0 1\n1 2\n2 3\n")
    assert load_graph(str(path)) == FIXTURES["FIX_P4"].graph


def test_load_graph_json_roundtrip(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}))
    assert load_graph(str(path)) == FIXTURES["FIX_P4"].graph


def test_load_graph_rejects_self_loop(tmp_path):
    from tangleforge.errors import InputError

    path = tmp_path / "bad.txt"
    path.write_text("0 1\n2 2\n")
    with pytest.raises(InputError, match="bad.txt:2"):
        load_graph(str(path))


def test_load_graph_rejects_malformed_line(tmp_path):
    from tangleforge.errors import InputError

    path = tmp_path / "bad.txt"
    path.write_text("0 1 2\n")
    with pytest.raises(InputError, match=":1"):
        load_graph(str(path))


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
    from tangleforge.profinite import product_chain_universe, universe_to_json

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
