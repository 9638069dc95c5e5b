"""Output checks for one job.

A job passes when its exit code is the expected one, its JSON validates
against the CLI schema (envelope and per-command result), and its summary
equals the reference summary taken on the identity labelling.

A summary keeps only what a relabelling of the input graph cannot change:
counts, multisets of separator sizes and separation orders, bag-size
multisets, the shape of the tree of tree-decompositions, the multiset of
distinguisher orders and the limit count. It leaves out the `splinter`
transversal (splinter_finite is not canonical) and the profinite nested
choice (the demo chain is cut by vertex label).
"""

from __future__ import annotations

import json

import jsonschema


def _sides(s) -> list:
    return sorted((len(s["a"]), len(s["b"])))


def _td_shape(td) -> list:
    bag = {node["id"]: len(node["bag"]) for node in td["nodes"]}
    nbrs = {t: [] for t in bag}
    for u, v in td["edges"]:
        nbrs[u].append(bag[v])
        nbrs[v].append(bag[u])
    return sorted([bag[t], sorted(nbrs[t])] for t in bag)


def _totd_shape(node) -> list:
    return [
        len(node["graph"]["vertices"]),
        _td_shape(node["td"]),
        sorted(_totd_shape(c) for c in node["children"]),
    ]


def _sizes(vertex_lists) -> list:
    return sorted(len(v) for v in vertex_lists)


def _levels(levels) -> list:
    return [[lv["k"], _sizes(lv["added"])] for lv in levels]


def summarize(command: str, result: dict):
    r = result
    if command == "separations":
        return {"count": r["count"], "seps": sorted([s["order"]] + _sides(s) for s in r["separations"])}
    if command == "profiles":
        return {
            "count": r["count"],
            "regular": r["regular"],
            "profiles": sorted(
                [
                    sorted([flag, value] for flag, value in p["flags"].items()),
                    sorted([x["order"], len(x["a"]), len(x["b"])] for x in p["oriented"]),
                ]
                for p in r["profiles"]
            ),
        }
    if command == "distinguish":
        return {
            "profiles": r["profiles"],
            "pairs": sorted([p["order"], len(p["separations"])] for p in r["pairs"]),
        }
    if command == "splinter":
        return {"families": r["families"], "pairs": len(r.get("pairs", []))}
    if command == "thin-splinter":
        return {"levels": _levels(r["levels"]), "nested_set": _sizes(r["nested_set"])}
    if command == "nested-separators":
        return {"separators": _sizes(r["separators"]), "levels": _levels(r["levels"])}
    if command == "nested-separations":
        return {
            "separators": _sizes(r["separators"]),
            "separations": sorted([s["order"]] + _sides(s) for s in r["separations"]),
        }
    if command == "treedec":
        return {"treedec": _td_shape(r["treedec"])}
    if command == "totd":
        return {"totd": _totd_shape(r["totd"])}
    if command == "profinite-splinter":
        return {"points": _sizes(r["points"]), "limit_count": r["limit_count"]}
    raise ValueError(f"no summary for command {command!r}")


def job_outcome(command: str, code: int, payload: dict) -> dict:
    """Exit code plus summary (or diagnostic type) of one CLI run; the form
    stored in reference.json."""
    if code == 0:
        return {"exit": 0, "summary": summarize(command, payload["result"])}
    return {"exit": code, "error": payload["error"]["type"]}


class Checker:
    def __init__(self, schema: dict, reference: dict):
        self.envelope = jsonschema.Draft202012Validator(schema)
        self.results = {}
        for name in schema["$defs"]:
            sub = dict(schema["$defs"][name])
            sub["$defs"] = schema["$defs"]
            self.results[name] = jsonschema.Draft202012Validator(sub)
        self.reference = reference

    def check(self, job, code: int, stdout: str):
        """None when the job's output is correct, else a one-line reason."""
        expected = self.reference.get(job.key)
        if expected is None:
            return f"no reference for {job.key}"
        if code != expected["exit"]:
            return f"exit {code}, expected {expected['exit']}"
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"stdout is not JSON: {exc}"
        if code == 0:
            for validator, obj in (
                (self.envelope, payload),
                (self.results[job.verb], payload.get("result")),
            ):
                err = jsonschema.exceptions.best_match(validator.iter_errors(obj))
                if err is not None:
                    return f"schema: {err.message}"
        try:
            outcome = job_outcome(job.verb, code, payload)
        except (KeyError, TypeError) as exc:
            return f"malformed output: {exc!r}"
        if outcome != expected:
            return f"summary differs from the identity labelling: {outcome} != {expected}"
        return None
