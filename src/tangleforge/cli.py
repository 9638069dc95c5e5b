"""Command-line surface.

Subcommands: separations, profiles, distinguish, splinter, thin-splinter,
profinite-splinter, nested-separators, nested-separations, treedec, totd,
verify, fixtures. Output is a deterministic JSON envelope (or DOT for the
decomposition verbs). Exit codes: 0 success, 1 hypothesis/certification
failure (JSON diagnostic), 2 usage or input error, 3 cap exceeded.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from .core import (
    DEFAULT_MAX_K,
    DEFAULT_MAX_N,
    Graph,
    Separation,
    canonical,
    enumerate_separations,
    graph_to_json,
    mask_of,
    separation_to_json,
    sorted_universe,
    vertices_of,
)
from .errors import (
    CapExceededError,
    CertificationError,
    HypothesisError,
    InputError,
    PreconditionError,
)
from .fixtures import FIXTURES, PIPELINE_K, get_fixture
from .jsonshape import require, rows, scalars
from .profiles import (
    DEFAULT_MAX_SK,
    distinguisher_sets,
    enumerate_k_profiles,
    is_robust,
    pipeline_profiles,
    principal_flags,
)
from .profinite import (
    graph_restriction_system,
    profinite_splinter,
    system_from_json,
)
from .separators import canonical_nested_separators, separators_to_separations
from .splinter import FiniteSplinterFamily, SplinterInstance, _transversal, thin_splinter
from .treedec import build_totd, treeset_to_treedecomposition


@dataclass
class RunConfig:
    """Caps and reproducibility knobs; TANGLEFORGE_CAPS (a JSON object)
    overrides individual caps with non-negative JSON integers: max_n,
    max_k, max_sk, profinite_union and profinite_product. In
    profinite_splinter, profinite_union bounds the union of the projected
    families at each point, and profinite_product both the nested
    transversals at the greatest point t and the choices of each limit
    enumeration (|U_t| after restriction, checked before the walk)."""

    max_n: int = DEFAULT_MAX_N
    max_k: int = DEFAULT_MAX_K
    max_sk: int = DEFAULT_MAX_SK
    profinite_union: int = 12
    profinite_product: int = 1_000_000
    seed: int = 7
    fmt: str = "json"

    @staticmethod
    def from_env_and_args(args) -> "RunConfig":
        cfg = RunConfig()
        env = os.environ.get("TANGLEFORGE_CAPS")
        if env:
            try:
                overrides = json.loads(env)
            except json.JSONDecodeError as exc:
                raise InputError(f"TANGLEFORGE_CAPS is not valid JSON: {exc}") from exc
            if not isinstance(overrides, dict):
                raise InputError("TANGLEFORGE_CAPS must be a JSON object")
            caps = ("max_n", "max_k", "max_sk", "profinite_union", "profinite_product")
            for key, value in overrides.items():
                if key not in caps:
                    raise InputError(f"unknown cap {key!r} in TANGLEFORGE_CAPS")
                if type(value) is not int or value < 0:
                    raise InputError(
                        f"cap {key!r} in TANGLEFORGE_CAPS must be a non-negative integer, "
                        f"got {value!r}"
                    )
                setattr(cfg, key, value)
        if getattr(args, "cap_n", None) is not None:
            if args.cap_n < 0:
                raise InputError(f"--cap-n must not be negative, got {args.cap_n}")
            cfg.max_n = args.cap_n
        if getattr(args, "seed", None) is not None:
            cfg.seed = args.seed
        if getattr(args, "format", None):
            cfg.fmt = args.format
        return cfg


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text") from exc


def _parse_json(text: str, path: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}") from exc


def read_graph(spec: str) -> tuple[int, list]:
    """(n, edges) of a fixture name, a JSON file ({"n": int, "edges":
    [[u, v], ...]}) or edge-list text (one 'u v' per line, '#' comments).
    Nothing is allocated per vertex, so a cap on n can be checked first."""
    if spec in FIXTURES:
        g = get_fixture(spec).graph
        return g.n, list(g.edges())
    if not os.path.exists(spec):
        raise InputError(f"no fixture or file named {spec!r}")
    text = _read_text(spec)
    if spec.endswith(".json") or text.lstrip().startswith("{"):
        obj = _parse_json(text, spec)
        if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
            raise InputError(f"{spec}: graph JSON needs 'n' and 'edges'")
        n = obj["n"]
        require(type(n) is int, f"{spec}: graph JSON 'n' must be an integer, got {n!r}")
        try:
            edges = [tuple(e) for e in obj["edges"]]
        except TypeError as exc:
            raise InputError(f"{spec}: {exc}") from exc
        # JSON true and false read as the ints 1 and 0, but are no vertices
        kinds = set(map(type, itertools.chain.from_iterable(edges)))
        require(kinds <= {int}, f"{spec}: graph JSON vertices must be integers")
        return n, edges
    edges = []
    max_v = -1
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 2:
            raise InputError(f"{spec}:{lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"{spec}:{lineno}: vertices must be integers") from None
        if u == v:
            raise InputError(f"{spec}:{lineno}: self-loop at {u}")
        edges.append((u, v))
        max_v = max(max_v, u, v)
    if max_v < 0:
        raise InputError(f"{spec}: no edges found")
    return max_v + 1, edges


def _refuse_graph_args(args, source: str):
    """Raise InputError when --fixture, --graph or --k is given to a
    command whose input is `source`, which would silently ignore them."""
    given = [f"--{name}" for name in ("fixture", "graph", "k") if getattr(args, name) is not None]
    if given:
        raise InputError(f"{source} takes no {', '.join(given)}")


def _resolve_graph_and_k(args, cfg) -> tuple[Graph, int, str]:
    if args.fixture and args.graph is not None:
        raise InputError("give one of --fixture or --graph, not both")
    if args.fixture:
        g = get_fixture(args.fixture).graph
        label = args.fixture
        k = args.k if args.k is not None else PIPELINE_K.get(args.fixture, 2)
    elif args.graph:
        n, edges = read_graph(args.graph)
        if n > cfg.max_n:
            raise CapExceededError(f"graph cap exceeded: n={n} (cap {cfg.max_n})")
        try:
            g = Graph.from_edges(n, edges)
        except (InputError, ValueError, TypeError) as exc:
            raise InputError(f"{args.graph}: {exc}") from exc
        label = args.graph
        if args.k is None:
            raise InputError("--k is required with --graph")
        k = args.k
    else:
        raise InputError("one of --fixture or --graph is required")
    if k < 1:
        raise InputError(f"--k must be at least 1, got {k}")
    return g, k, label


def _profiles(g: Graph, k: int, cfg: RunConfig):
    """The k-profiles of g, under the run's caps."""
    return enumerate_k_profiles(g, k, max_sk=cfg.max_sk, max_n=cfg.max_n, max_k=cfg.max_k)


def _pipeline_profiles(g: Graph, k: int, cfg: RunConfig):
    return pipeline_profiles(g, _profiles(g, k, cfg))


def _levels_json(nested) -> list:
    """The levels of a canonical nested separator set, separators as vertex lists."""
    return [
        {"k": lv.k, "added": [list(vertices_of(m)) for m in lv.added]}
        for lv in nested.result.levels
    ]


# ---------------------------------------------------------------------------
# subcommand bodies (each returns a JSON-able result dict)

def cmd_separations(args, cfg):
    g, k, label = _resolve_graph_and_k(args, cfg)
    seps = enumerate_separations(g, k, max_n=cfg.max_n, max_k=cfg.max_k, max_sk=cfg.max_sk)
    return {
        "graph": label,
        "k": k,
        "count": len(seps),
        "separations": seps,
    }


def cmd_profiles(args, cfg):
    g, k, label = _resolve_graph_and_k(args, cfg)
    profs = _profiles(g, k, cfg)
    entries = [
        {
            "k": p.k,
            "oriented": p.chosen,
            "flags": {"regular": p.is_regular(g), "robust": is_robust(g, p), "principal": principal},
        }
        for p, principal in zip(profs, principal_flags(g, profs))
    ]
    return {
        "graph": label,
        "k": k,
        "count": len(entries),
        "regular": sum(1 for e in entries if e["flags"]["regular"]),
        "profiles": entries,
    }


def cmd_distinguish(args, cfg):
    g, k, label = _resolve_graph_and_k(args, cfg)
    profs = _profiles(g, k, cfg)
    pairs = [
        {
            "pair": list(pair),
            "order": dset.order,
            "separations": dset.seps,
        }
        for pair, dset in distinguisher_sets(g, profs).items()
    ]
    return {"graph": label, "k": k, "profiles": len(profs), "pairs": pairs}


def cmd_splinter(args, cfg):
    g, k, label = _resolve_graph_and_k(args, cfg)
    profs = _pipeline_profiles(g, k, cfg)
    dsets = {pair: dset for pair, dset in distinguisher_sets(g, profs).items() if dset}
    if not dsets:
        return {"graph": label, "k": k, "families": 0, "transversal": []}
    fams = tuple(frozenset(dset.seps) for dset in dsets.values())
    fam_obj = FiniteSplinterFamily(_s_k_universe(g, profs[0]), fams)
    picks = _transversal(fam_obj, "distinguisher families do not splinter")
    return {
        "graph": label,
        "k": k,
        "families": len(fams),
        "pairs": [list(pair) for pair in dsets],
        "transversal": picks,
    }


def _s_k_universe(g: Graph, p):
    """Both orientations of S_k, read off a k-profile p, which orients all
    of S_k in S_k's order: graph_universe(g, max_order=p.k - 1), element
    order included, without enumerating S_k again."""
    return sorted_universe(map(canonical, p.chosen), closed=p.k > g.num_vertices)


def instance_from_json(obj) -> SplinterInstance:
    """Load {"elements": [...], "nested": [[a, b], ...], "families":
    [{"name": key, "order": int, "members": [...]}, ...]}. A family
    without a name is keyed by its index; two families with one key, an
    empty family, a member that is no element, and an order that is no
    non-negative JSON integer raise InputError, as does input of any other
    shape."""
    require(isinstance(obj, dict), "instance JSON must be an object")
    elements = tuple(scalars(obj.get("elements"), "instance 'elements'"))
    names = set(elements)
    nested_pairs = {tuple(p) for p in rows(obj.get("nested"), (names, names), "instance 'nested'")}
    nested_pairs |= {(b, a) for a, b in nested_pairs}
    nested_pairs |= {(e, e) for e in elements}
    fams = obj.get("families")
    require(
        isinstance(fams, list)
        and all(
            isinstance(fam, dict)
            and isinstance(fam.get("members"), list)
            and not any(isinstance(m, (list, dict)) for m in fam["members"])
            and not isinstance(fam.get("name"), (list, dict))
            for fam in fams
        ),
        "instance 'families' must be a list of objects with a 'members' list",
    )
    families = {}
    orders = {}
    for idx, fam in enumerate(fams):
        key = fam.get("name", idx)
        require(key not in families, f"instance family {key!r} is given twice")
        order = fam.get("order")
        require(type(order) is int, f"instance family {key!r} needs an integer 'order', got {order!r}")
        families[key] = frozenset(fam["members"])
        orders[key] = order
    try:
        return SplinterInstance(
            elements=elements,
            families=families,
            orders=orders,
            nested=lambda a, b: (a, b) in nested_pairs,
        )
    except PreconditionError as exc:  # an empty family, a non-element, a negative order
        raise InputError(f"instance {exc}") from None


def cmd_thin_splinter(args, cfg):
    if args.instance:
        _refuse_graph_args(args, "--instance")
        inst = instance_from_json(_parse_json(_read_text(args.instance), args.instance))
        res = thin_splinter(inst)
        return {
            "instance": args.instance,
            "levels": [{"k": lv.k, "added": sorted(lv.added, key=repr)} for lv in res.levels],
            "nested_set": sorted(res.nested_set, key=repr),
        }
    g, k, label = _resolve_graph_and_k(args, cfg)
    nested = canonical_nested_separators(g, _pipeline_profiles(g, k, cfg))
    return {
        "graph": label,
        "k": k,
        "levels": _levels_json(nested),
        "nested_set": [list(vertices_of(m)) for m in nested.separators],
    }


def cmd_profinite_splinter(args, cfg):
    if args.system:
        _refuse_graph_args(args, "--system")
        sys_obj, families = system_from_json(_parse_json(_read_text(args.system), args.system))
        res = profinite_splinter(
            sys_obj, families, union_cap=cfg.profinite_union, limit_cap=cfg.profinite_product
        )
        points = list(sys_obj.poset.points)
        return {
            "system": args.system,
            "points": [str(p) for p in points],
            "nested_choice": {
                str(p): sorted(map(repr, res.nested_choice[p])) for p in points
            },
            "limit_count": len(res.limits),
        }
    g, k, label = _resolve_graph_and_k(args, cfg)
    profs = _pipeline_profiles(g, k, cfg)
    if len(profs) < 2:
        raise PreconditionError("need at least two distinguishable profiles for the demo system")
    chain = _demo_chain(g)
    system = graph_restriction_system(g, chain)
    families = [
        {
            z: frozenset(Separation(s.a & z, s.b & z) for s in dset.seps)
            for z in system.poset.points
        }
        for dset in distinguisher_sets(g, profs).values()
    ]
    res = profinite_splinter(
        system, families, union_cap=cfg.profinite_union, limit_cap=cfg.profinite_product
    )
    return {
        "graph": label,
        "k": k,
        "points": [list(vertices_of(z)) for z in system.poset.points],
        "nested_choice": {
            str(list(vertices_of(z))): sorted(res.nested_choice[z])
            for z in system.poset.points
        },
        "limit_count": len(res.limits),
    }


def _demo_chain(g: Graph):
    verts = list(vertices_of(g.vertices))
    half = mask_of(verts[: max(2, len(verts) // 2)])
    three_q = mask_of(verts[: max(3, (3 * len(verts)) // 4)])
    return sorted({half, three_q, g.vertices})


def cmd_nested_separators(args, cfg):
    g, k, label = _resolve_graph_and_k(args, cfg)
    nested = canonical_nested_separators(g, _pipeline_profiles(g, k, cfg))
    return {
        "graph": label,
        "k": k,
        "separators": [list(vertices_of(m)) for m in nested.separators],
        "levels": _levels_json(nested),
    }


def cmd_nested_separations(args, cfg):
    g, k, label = _resolve_graph_and_k(args, cfg)
    nested = canonical_nested_separators(g, _pipeline_profiles(g, k, cfg))
    seps = separators_to_separations(g, nested)
    return {
        "graph": label,
        "k": k,
        "separators": [list(vertices_of(m)) for m in nested.separators],
        "separations": seps,
    }


def cmd_treedec(args, cfg):
    g, k, label = _resolve_graph_and_k(args, cfg)
    nested = canonical_nested_separators(g, _pipeline_profiles(g, k, cfg))
    td = treeset_to_treedecomposition(g, separators_to_separations(g, nested))
    return {"graph": label, "k": k, "treedec": td.to_json()}


def cmd_totd(args, cfg):
    g, k, label = _resolve_graph_and_k(args, cfg)
    totd = build_totd(g, _pipeline_profiles(g, k, cfg))
    return {"graph": label, "k": k, "totd": totd.to_json()}


def cmd_verify(args, cfg):
    from .verify import ALL_SUITES, run_suites  # the suites and their oracles load for this verb only

    _refuse_graph_args(args, "verify")
    if args.all and args.suite:
        raise InputError("--all runs every suite; give it without --suite")
    names = set(args.suite or ())
    unknown = sorted(names - {suite.suite_name for suite in ALL_SUITES})
    if unknown:
        raise InputError(f"unknown suite: {', '.join(unknown)}")
    results = run_suites(seed=cfg.seed, names=names)
    for r in results:
        status = "ok  " if r.ok else "FAIL"
        print(f"{status} {r.name:32s} {r.seconds:7.2f}s  {r.detail}", file=sys.stderr)
    if not all(r.ok for r in results):
        print(f"seed was {cfg.seed}", file=sys.stderr)
    return {
        "seed": cfg.seed,
        "suites": [{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results],
        "ok": all(r.ok for r in results),
    }


def cmd_fixtures(args, cfg):
    _refuse_graph_args(args, "fixtures")
    return {
        "fixtures": [
            {
                "name": fx.name,
                "description": fx.description,
                "graph": graph_to_json(fx.graph),
                "census": {str(k): list(v) for k, v in sorted(fx.census.items())},
                "pipeline_k": PIPELINE_K.get(fx.name),
            }
            for fx in FIXTURES.values()
        ]
    }


# ---------------------------------------------------------------------------
# DOT emitters

def _dot_treedec(td_json: dict) -> str:
    lines = ["graph treedec {", "  node [shape=box];"]
    for node in td_json["nodes"]:
        bag = ",".join(map(str, node["bag"]))
        lines.append(f'  t{node["id"]} [label="{{{bag}}}"];')
    for u, v in td_json["edges"]:
        lines.append(f"  t{u} -- t{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_totd(totd_json: dict) -> str:
    lines = ["digraph totd {", "  node [shape=box];"]
    counter = itertools.count()

    def emit(node, parent=None):
        idx = next(counter)
        bags = " | ".join(
            "{" + ",".join(map(str, n["bag"])) + "}" for n in node["td"]["nodes"]
        )
        lines.append(f'  n{idx} [label="{bags}"];')
        if parent is not None:
            lines.append(f"  n{parent} -> n{idx};")
        for child in node["children"]:
            emit(child, idx)

    emit(totd_json)
    lines.append("}")
    return "\n".join(lines) + "\n"


# the verbs --format dot serves, each with its writer of the result's DOT
DOT_WRITERS = {"treedec": _dot_treedec, "totd": _dot_totd}


# ---------------------------------------------------------------------------
# plumbing

COMMANDS = {
    "separations": cmd_separations,
    "profiles": cmd_profiles,
    "distinguish": cmd_distinguish,
    "splinter": cmd_splinter,
    "thin-splinter": cmd_thin_splinter,
    "profinite-splinter": cmd_profinite_splinter,
    "nested-separators": cmd_nested_separators,
    "nested-separations": cmd_nested_separations,
    "treedec": cmd_treedec,
    "totd": cmd_totd,
    "verify": cmd_verify,
    "fixtures": cmd_fixtures,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tangleforge",
        description="separation universes, profiles, splinter algorithms and certified tree-decompositions",
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--fixture", choices=sorted(FIXTURES), help="built-in graph")
    shared.add_argument("--graph", help="path to an edge-list or JSON graph file")
    shared.add_argument("--k", type=int, help="order bound (profiles of S_k)")
    shared.add_argument("--seed", type=int, help="seed for randomized verification")
    shared.add_argument("--cap-n", type=int, dest="cap_n", help="override the vertex cap")
    shared.add_argument("--format", choices=("json", "dot"), help="output format")
    shared.add_argument("--out", help="write output to this file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, parents=[shared])
        if name == "thin-splinter":
            p.add_argument("--instance", help="abstract instance JSON file")
        if name == "profinite-splinter":
            p.add_argument("--system", help="inverse system JSON file")
        if name == "verify":
            p.add_argument("--all", action="store_true", help="run every suite (default)")
            p.add_argument("--suite", action="append", help="run only the named suite")
    return parser


# parse_args keeps no state between calls, so one parser serves every call
PARSER = build_parser()


def cli_main(argv) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, text = _run(args)
        if args.out:
            _write_file(args.out, text)
        else:
            sys.stdout.write(text)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def _run(args) -> tuple[int, str]:
    """Exit code and output text of a parsed command line; usage and input
    errors raise InputError."""
    try:
        cfg = RunConfig.from_env_and_args(args)
        if cfg.fmt == "dot" and args.command not in DOT_WRITERS:
            raise InputError("--format dot is only available for treedec and totd")
        result = COMMANDS[args.command](args, cfg)
    except CapExceededError as exc:
        return 3, _json({"error": {"type": "cap", "message": str(exc)}})
    except (HypothesisError, CertificationError, PreconditionError) as exc:
        return 1, _json(
            {
                "error": {
                    "type": type(exc).__name__,
                    "message": str(exc),
                    "witness": repr(getattr(exc, "witness", None)),
                }
            }
        )

    code = 1 if args.command == "verify" and not result["ok"] else 0
    if cfg.fmt == "json":
        payload = {
            "command": args.command,
            "seed": cfg.seed,
            "caps": {"max_n": cfg.max_n, "max_k": cfg.max_k, "max_sk": cfg.max_sk},
            "result": result,
        }
        return code, _json(payload)
    return code, DOT_WRITERS[args.command](result[args.command])


def _json(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) + "\n", byte for byte, with
    every Separation in obj read as the dict separation_to_json gives.
    Results carry the library's Separation objects, and each distinct
    (separation, indent) is written once per call: a profile run repeats
    most of S_k across its profiles, and every repeat reuses the text. The
    memo lives in the call. An indent makes json.dumps fall back to its
    pure-Python encoder, which costs more than building the same string
    here."""
    return _encode(obj, "\n", {}) + "\n"


def _encode(obj, newline: str, memo: dict) -> str:
    """The indented JSON text of obj; `newline` is a newline followed by the
    indent of obj's own line, and `memo` maps (separation, newline) to its
    text. Containers come first, as the most frequent; a Separation is a
    tuple, so it is told apart by its exact type before the list branch,
    and a plain tuple stays a list. The types json tells apart exclude each
    other except bool and int, so testing bool first gives json's result.
    Whatever json.dumps refuses raises TypeError."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        items = [
            (encode_basestring_ascii(k) if isinstance(k, str) else _key(k)) + ": " + _encode(v, inner, memo)
            for k, v in sorted(obj.items())
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if type(obj) is Separation:
        key = (obj, newline)
        text = memo.get(key)
        if text is None:
            text = memo[key] = _encode(separation_to_json(obj), newline, memo)
        return text
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        if set(map(type, obj)) == {int}:
            items = map(int.__repr__, obj)
        else:
            items = [_encode(x, inner, memo) for x in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _key(key) -> str:
    """A dict key that is no str as json writes it: float, bool, None and
    int as their JSON text, quoted."""
    if isinstance(key, float):
        return '"' + _float(key) + '"'
    if key is True or key is False or key is None:
        return '"' + _encode(key, "", None) + '"'
    if isinstance(key, int):
        return '"' + int.__repr__(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _write_file(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
