"""Span tracing from outside the program, for the per-layer numbers.

`Tracer.install` wraps every public function of the layer modules (and
replaces each name that other igate modules imported, such as the
`compile_program`, `propagate`, `canonicalize` and `ground_program` that
`igate.prob` calls once per world). A call records a span (the command
id, name, parent span, start and end) when it crosses a layer boundary,
that is when the calling code lives in another module, or when the
function has a per-layer metric of its own; a call from inside the same
module (such as `canonicalize_statement` from `canonicalize`, or
`atom_of_channel` from `Circuit.atoms`) is part of its caller's span. The
spans of a command stay in memory while it runs and are folded into
per-name and per-call-path totals when it ends; nothing is written during
a command. A span's self time is its duration minus the durations of its
child spans, so the self times of all spans add up to the time of the root
`cli.dispatch` spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

# The modules measured as layers. `vectors` and `classify` are cheap and no
# workload targets them; their time shows in the caller's self time.
LAYERS = ("cli", "dsl", "grounding", "circuit", "digital", "prob", "learn")

# Spans of these functions keep the returned value until the command ends,
# so sizes (models, worlds, gates, statements, pairs) are counted after the
# timed call instead of inside it.
SIZED = {
    "circuit.compile_program",
    "digital.enumerate_models",
    "grounding.ground_program",
    "prob.enumerate_worlds",
    "learn.count_associations",
    "learn.propose_rules",
}

# Per-layer metrics reported per workload, each a mean per traced command
# unless its name says otherwise.
SELF_MS = (
    "cli.dispatch",
    "dsl.parse_program",
    "dsl.canonicalize",
    "grounding.ground_program",
    "circuit.compile_program",
    "digital.propagate",
    "digital.enumerate_models",
    "prob.query_prob",
    "prob.enumerate_worlds",
    "learn.load_episodes_jsonl",
    "learn.count_associations",
    "learn.propose_rules",
)
CALLS = ("dsl.canonicalize", "circuit.compile_program", "digital.propagate")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [command, name, parent, start, end, result]
        self.stack: list[int] = []
        self.command = 0
        self.refused = 0
        self.patched: list[tuple[object, str, object]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.sized_s: dict[str, float] = defaultdict(float)
        self.sizes: Counter = Counter()
        self.tree: dict[str, list] = {}  # call path -> [calls, total s, self s]
        self.command_s = 0.0
        self.reject_s = 0.0

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        keep = name in SIZED
        always = name in SELF_MS
        home = fn.__globals__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not always and sys._getframe(1).f_globals is home:
                return fn(*args, **kwargs)
            span = [self.command, name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if keep:
                span[5] = result
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"igate.{layer}")
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if name != "igate" and not name.startswith("igate."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self.patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self.patched):
            setattr(module, attr, original)
        self.patched.clear()

    # -- folding ------------------------------------------------------------

    def end_command(self, exit_code: int) -> None:
        """Fold the finished command's spans into the totals."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for _, _, parent, start, end, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        paths: list[str] = []
        for index, (_, name, parent, start, end, result) in enumerate(spans):
            duration = end - start
            own = duration - child_s[index]
            path = f"{paths[parent]}/{name}" if parent >= 0 else name
            paths.append(path)
            node = self.tree.setdefault(path, [0, 0.0, 0.0])
            node[0] += 1
            node[1] += duration
            node[2] += own
            self.self_s[name] += own
            self.calls[name] += 1
            if parent < 0:
                self.command_s += duration
            if name == "grounding.ground_program" and exit_code == 2:
                self.reject_s += own
            if result is not None:
                self.sized_s[name] += duration
                self._count(name, result)
        self.refused += exit_code == 2
        self.command += 1
        spans.clear()

    def _count(self, name: str, result) -> None:
        sizes = self.sizes
        if name == "circuit.compile_program":
            sizes["gates"] += len(result.gates)
            sizes["channels"] += len(result.channels)
        elif name == "digital.enumerate_models":
            sizes["models"] += len(result)
        elif name == "grounding.ground_program":
            sizes["statements"] += len(result.statements)
        elif name == "prob.enumerate_worlds":
            sizes["worlds"] += len(result)
            sizes["consistent"] += sum(1 for w in result if w.outcome is not None)
        elif name == "learn.count_associations":
            sizes["pairs"] += len(result.pairs)
        elif name == "learn.propose_rules":
            sizes["proposals"] += len(result)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        n = self.command
        sizes = self.sizes

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out: dict[str, float] = {}
        for name in SELF_MS:
            out[f"{name}.self_ms"] = self.self_s[name] * 1e3 / n
        for name in CALLS:
            out[f"{name}.calls"] = self.calls[name] / n
        compiles = self.calls["circuit.compile_program"]
        out["circuit.gates"] = ratio(sizes["gates"], compiles)
        out["circuit.channels"] = ratio(sizes["channels"], compiles)
        out["digital.models"] = sizes["models"] / n
        out["digital.us_per_model"] = ratio(
            self.sized_s["digital.enumerate_models"] * 1e6, sizes["models"]
        )
        out["prob.worlds"] = sizes["worlds"] / n
        out["prob.us_per_world"] = ratio(
            self.sized_s["prob.enumerate_worlds"] * 1e6, sizes["worlds"]
        )
        out["prob.consistent_world_ratio"] = ratio(sizes["consistent"], sizes["worlds"])
        out["grounding.statements_out"] = sizes["statements"] / n
        out["grounding.us_per_statement"] = ratio(
            self.sized_s["grounding.ground_program"] * 1e6, sizes["statements"]
        )
        out["grounding.reject.self_ms"] = ratio(self.reject_s * 1e3, self.refused)
        out["learn.pairs"] = sizes["pairs"] / n
        out["learn.proposals"] = sizes["proposals"] / n
        for layer in LAYERS:
            out[f"layer.{layer}.self_ms"] = (
                sum(s for name, s in self.self_s.items() if name.split(".")[0] == layer)
                * 1e3 / n
            )
        out["trace.cmd_ms"] = self.command_s * 1e3 / n
        return out

    def attribution_error(self) -> float:
        """|sum of self times - root span time|, as a share of the latter."""
        return abs(sum(self.self_s.values()) - self.command_s) / self.command_s

    def span_tree(self) -> dict[str, dict]:
        n = self.command
        return {
            path: {
                "calls": calls / n,
                "total_ms": total * 1e3 / n,
                "self_ms": own * 1e3 / n,
            }
            for path, (calls, total, own) in sorted(self.tree.items())
        }
