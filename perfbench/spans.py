"""Per-layer spans, recorded from outside the program.

`Tracer.install` replaces each listed public function with a timing wrapper
in every timed tangleforge module that binds it (the CLI imports names
directly, so its bindings are wrapped too), and `Graph.components` on the
class. `Tracer.uninstall` puts the originals back.

Every call becomes a span: name, parent span, start and end. Spans are kept
in a buffer allocated before tracing starts, so that recording them does not
show in tracemalloc's peak, and are written out at the end of the run as
little-endian records of `SPAN_RECORD` (name index, parent index or
0xFFFFFFFF, start and end seconds) next to a JSON file naming the layers.
While recording, the tracer also sums per name the call count, the self
time, the outermost span time (the span with its children, counted once
under recursion), the distinct arguments per job, and the result length of
the enumerators.

The tracer's own cost is charged to no span. A child's whole wrapper time,
from entering the wrapper to leaving it, counts as the parent's child time,
and a span's outermost time leaves out the bookkeeping of the wrappers
called inside it. The cost of calling through a wrapper, which the clock
reads cannot see, is measured once by `calibrate` and subtracted per call.
"""

from __future__ import annotations

import json
import math
import struct
import time

SPAN_RECORD = struct.Struct("<HIdd")
NO_PARENT = 0xFFFFFFFF

# layer -> functions timed on that layer; `components` is the Graph method
LAYERS = {
    "cli": ("cli_main",),
    "core": ("enumerate_separations", "all_separations", "graph_universe", "components"),
    "profiles": (
        "enumerate_k_profiles",
        "is_profile",
        "is_robust",
        "is_principal",
        "efficient_distinguishers",
    ),
    "splinter": (
        "thinly_splinters_check",
        "thin_splinter",
        "crossing_number",
        "splinters_check",
        "splinter_finite",
    ),
    "separators": (
        "build_separator_instance",
        "separator_nested",
        "canonical_nested_separators",
        "separators_to_separations",
    ),
    "treedec": ("build_totd", "certify_totd", "treeset_to_treedecomposition", "torso"),
    "profinite": (
        "graph_restriction_system",
        "validate_inverse_system",
        "profinite_splinter",
        "inverse_limits",
    ),
}

# modules whose bindings are left alone: slow reference code and input helpers
UNTIMED = ("oracles", "verify", "fixtures")

# spans whose distinct arguments are counted
KEYED = (
    "core.all_separations",
    "profiles.efficient_distinguishers",
    "splinter.crossing_number",
    "separators.separator_nested",
    "separators.canonical_nested_separators",
)

# span -> metric summing its result length
SIZED = {
    "core.enumerate_separations": "core.sk_size",
    "core.all_separations": "core.universe_size",
    "profiles.enumerate_k_profiles": "profiles.found",
    "profinite.inverse_limits": "profinite.limits",
}


def _arg_key(args, kwargs) -> int:
    parts = []
    for a in args + tuple(kwargs.items()):
        try:
            hash(a)
        except TypeError:
            a = id(a)
        parts.append(a)
    return hash(tuple(parts))


def calibrate(calls=20_000, rounds=7) -> tuple:
    """Seconds per call that a wrapper adds outside its bookkeeping: to the
    caller's self time (calling into the wrapper and returning from it) and
    to the callee's (calling the wrapped function from the wrapper). Each is
    the least of `rounds` loops of `calls` calls to a traced no-op, against
    the same loop calling the no-op directly and an empty loop."""
    clock = time.perf_counter

    def noop(x):
        return x

    def loop(f):
        for i in range(calls):
            f(i)

    def empty():
        for _ in range(calls):
            pass

    best = [math.inf] * 4  # empty loop, direct calls, traced caller, traced callee
    for _ in range(rounds):
        start = clock()
        empty()
        middle = clock()
        loop(noop)
        end = clock()
        probe = Tracer.__new__(Tracer)
        probe._allocate(["caller", "callee"], 0)
        probe._wrapper(0, loop)(probe._wrapper(1, noop))
        for i, t in enumerate((middle - start, end - middle, *probe.self_s)):
            best[i] = min(best[i], t)
    empty_s, direct_s, caller_s, callee_s = best
    return (caller_s - empty_s) / calls, (callee_s - (direct_s - empty_s)) / calls


class Tracer:
    def __init__(self, package_modules: dict, capacity: int):
        """package_modules maps module name ('tangleforge.core', ...) to the
        module object of one import of tangleforge."""
        self.modules = {
            name: mod
            for name, mod in package_modules.items()
            if name.rsplit(".", 1)[-1] not in UNTIMED
        }
        self.graph_class = package_modules["tangleforge.core"].Graph
        self._allocate([f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns], capacity)
        self.call_cost = calibrate()
        self.saved = []  # (owner, attribute, original)

    def _allocate(self, names, capacity):
        self.names = names
        m = len(names)
        self.calls = [0] * m
        self.self_s = [0.0] * m
        self.total_s = [0.0] * m
        self.sizes = [0] * m
        self.distinct = [0] * m
        self.keys = [set() if name in KEYED else None for name in self.names]
        self.depth = [0] * m
        self.capacity = capacity
        self.buffer = bytearray(capacity * SPAN_RECORD.size)
        self.count = 0
        self.stack = []  # [span index, seconds in child spans, wrappers included]
        self.overhead = 0.0  # seconds of tracing inside spans, bookkeeping and call cost
        self.call_cost = (0.0, 0.0)

    def _wrapper(self, nid: int, fn):
        stack = self.stack
        calls, self_s, total_s, depth = self.calls, self.self_s, self.total_s, self.depth
        sizes, keys = self.sizes, self.keys[nid]
        sized = self.names[nid] in SIZED
        buffer, pack, capacity = self.buffer, SPAN_RECORD.pack_into, self.capacity
        clock = time.perf_counter
        caller_cost, callee_cost = self.call_cost

        def traced(*args, **kwargs):
            enter = clock()
            if keys is not None:
                keys.add(_arg_key(args, kwargs))
            idx = self.count
            self.count = idx + 1
            parent = stack[-1][0] if stack else NO_PARENT
            frame = [idx, 0.0]
            stack.append(frame)
            depth[nid] += 1
            result = None
            overhead_before = self.overhead
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = end - start
                calls[nid] += 1
                self_s[nid] += span - frame[1] - callee_cost
                depth[nid] -= 1
                if not depth[nid]:
                    total_s[nid] += span - callee_cost - (self.overhead - overhead_before)
                if idx < capacity:
                    pack(buffer, idx * SPAN_RECORD.size, nid, parent, start, end)
                if sized and result is not None:
                    sizes[nid] += len(result)
                leave = clock()
                self.overhead += (leave - enter) - span + caller_cost + callee_cost
                if stack:
                    stack[-1][1] += leave - enter + caller_cost
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        originals = {}
        for layer, fns in LAYERS.items():
            mod = self.modules[f"tangleforge.{layer}"]
            for fn in fns:
                if fn != "components":
                    originals[getattr(mod, fn)] = self.names.index(f"{layer}.{fn}")
        wrappers = {orig: self._wrapper(nid, orig) for orig, nid in originals.items()}
        for mod in self.modules.values():
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in wrappers:
                    self.saved.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        comp = self.graph_class.components
        self.saved.append((self.graph_class, "components", comp))
        self.graph_class.components = self._wrapper(self.names.index("core.components"), comp)

    def uninstall(self):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()

    def end_job(self):
        """Fold the distinct-argument sets of the job that just ended."""
        for nid, keys in enumerate(self.keys):
            if keys is not None:
                self.distinct[nid] += len(keys)
                keys.clear()

    def stats(self, name: str) -> dict:
        nid = self.names.index(name)
        return {
            "calls": self.calls[nid],
            "self_s": self.self_s[nid],
            "total_s": self.total_s[nid],
            "size": self.sizes[nid],
            "distinct": self.distinct[nid],
        }

    def write(self, stem: str):
        """Write the recorded spans to <stem>.bin and their index to <stem>.json."""
        kept = min(self.count, self.capacity)
        with open(stem + ".bin", "wb") as fh:
            fh.write(memoryview(self.buffer)[: kept * SPAN_RECORD.size])
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "record": SPAN_RECORD.format,
                    "no_parent": NO_PARENT,
                    "names": self.names,
                    "spans": kept,
                    "dropped": self.count - kept,
                    "call_cost_s": list(self.call_cost),
                },
                fh,
                indent=1,
            )
