"""Per-layer metrics from an in-process traced run.

The traced run calls ``steinerdom.cli.main(argv)`` once per input, with
stdout captured, after replacing the public functions that ``cli``,
``corpus``, ``steiner_domination`` and ``verify`` look up in their own
module namespaces with timing wrappers.  The spans therefore nest as the
calls really nest.  The oracles' calls to their own functions are never
wrapped, which keeps tracing out of their enumeration loops.  The package
source is not changed.

A span is (call, name, parent, start, end, error).  Spans stay in memory
and are written to ``.bench_out/`` when the run ends.  A span's self time is
its duration minus the time its direct child spans cover; children of one
span never overlap, since everything runs in one thread.  Pauses of the
cyclic garbage collector, reported by ``gc.callbacks``, are charged to the
innermost open span.  Peak memory per span comes from a second pass under
``tracemalloc``, whose overhead would otherwise distort the times.  That
pass runs about ten times slower than the program, so it runs on inputs a
tenth the size and reports peak bytes per input vertex.

A wrap point that no longer exists is skipped with a warning, and the
metrics of its span are left out of the result.
"""

from __future__ import annotations

import gc
import importlib
import io
import json
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from calls import RUN_DEADLINE_S, ROOT, Ledger, Spawner
from workloads import PAR_SHAPES, WORKLOADS, Sizes

# (module the lookup happens in, attribute, span name)
WRAP_POINTS = [
    ("cli", "parse_parent_file", "tree_model.parse_parent_file"),
    ("cli", "parse_edge_list", "tree_model.parse_edge_list"),
    ("cli", "relabel_bfs", "tree_model.relabel_bfs"),
    ("cli", "format_parent_file", "tree_model.format_parent_file"),
    ("cli", "gen", "corpus.gen"),
    ("cli", "steiner_domination", "steiner_domination.steiner_domination"),
    ("cli", "run_verify", "verify.run_verify"),
    ("corpus", "random_prufer_edges", "corpus.random_prufer_edges"),
    ("corpus", "relabel_bfs", "tree_model.relabel_bfs"),
    ("steiner_domination", "forest_domination", "forest_domination.forest_domination"),
    ("verify", "gen", "corpus.gen"),
    ("verify", "steiner_domination", "steiner_domination.steiner_domination"),
    ("verify", "forest_domination", "forest_domination.forest_domination"),
    ("verify", "build_adjacency", "tree_model.build_adjacency"),
    ("verify", "format_parent_file", "tree_model.format_parent_file"),
    ("verify", "min_steiner_dominating_set", "oracles.min_steiner_dominating_set"),
    ("verify", "min_dominating_set", "oracles.min_dominating_set"),
    ("verify", "domination_number_dp", "oracles.domination_number_dp"),
    ("verify", "is_steiner_set", "oracles.is_steiner_set"),
    ("verify", "is_dominating_set", "oracles.is_dominating_set"),
    ("verify", "audit_instance", "verify.audit_instance"),
    ("verify", "write_certificate", "verify.write_certificate"),
]
MAIN = "cli.main"
SPANS = [MAIN] + list(dict.fromkeys(span for _, _, span in WRAP_POINTS))
PEAK_SPANS = [
    MAIN,
    "tree_model.parse_parent_file",
    "tree_model.parse_edge_list",
    "tree_model.relabel_bfs",
    "tree_model.format_parent_file",
    "corpus.gen",
    "corpus.random_prufer_edges",
    "steiner_domination.steiner_domination",
    "forest_domination.forest_domination",
]
STEINER = "steiner_domination.steiner_domination"
FOREST = "forest_domination.forest_domination"
ORACLES = [s for s in SPANS if s.startswith("oracles.")]

# What a span's result says about the work it did; read after the span ends.
NOTES = {
    STEINER: lambda args, out: (args[0].n, out.core.m, len(out.leaves)),
    FOREST: lambda args, out: (args[0].n,),
    "verify.run_verify": lambda args, out: (out.instances, len(out.certificates)),
}


def catalogue() -> list[tuple[str, str, str, str]]:
    """Every per-layer metric as (name, unit, better, span it derives from)."""
    out = []
    for s in SPANS:
        out += [
            (f"{s}.calls", "count", "lower", s),
            (f"{s}.errors", "count", "lower", s),
            (f"{s}.gc_pause_s", "s", "lower", s),
            (f"{s}.gc_collections", "count", "lower", s),
        ]
    out += [(f"{s}.peak_b_per_v", "B/v", "lower", s) for s in PEAK_SPANS]
    out += [
        ("cli.import_s", "s", "lower", MAIN),
        ("cli.main.ns_per_v", "ns/v", "lower", MAIN),
        ("cli.self_ns_per_v", "ns/v", "lower", MAIN),
        ("trace.overhead_ratio", "ratio", "lower", MAIN),
    ]
    out += [
        (f"{s}.ns_per_v", "ns/v", "lower", s)
        for s in ("tree_model.parse_parent_file", "tree_model.parse_edge_list",
                  "tree_model.relabel_bfs", "tree_model.format_parent_file",
                  "corpus.random_prufer_edges")
    ]
    out += [
        ("corpus.gen.self_ns_per_v", "ns/v", "lower", "corpus.gen"),
        (f"{STEINER}.self_ns_per_v", "ns/v", "lower", STEINER),
        ("steiner_domination.core_frac", "frac", "lower", STEINER),
        ("steiner_domination.leaf_frac", "frac", "lower", STEINER),
        (f"{FOREST}.s", "s", "lower", FOREST),
        (f"{FOREST}.ns_per_core_v", "ns/v", "lower", FOREST),
    ]
    out += [(f"{s}.s", "s", "lower", s) for s in ORACLES]
    out += [
        ("tree_model.build_adjacency.s", "s", "lower", "tree_model.build_adjacency"),
        ("verify.run_verify.self_s", "s", "lower", "verify.run_verify"),
        ("verify.audit_instance.self_s", "s", "lower", "verify.audit_instance"),
        ("verify.write_certificate.s", "s", "lower", "verify.write_certificate"),
        ("verify.instances", "count", "higher", "verify.run_verify"),
        ("verify.certificates", "count", "lower", "verify.run_verify"),
    ]
    for shape in PAR_SHAPES:
        out += [
            (f"{STEINER}.self_ns_per_v.{shape}", "ns/v", "lower", STEINER),
            (f"steiner_domination.core_frac.{shape}", "frac", "lower", STEINER),
            (f"{FOREST}.s.{shape}", "s", "lower", FOREST),
        ]
    return out


class Tracer:
    """Timing wrappers, the span log and, with ``memory``, per-span peaks."""

    def __init__(self, memory: bool = False) -> None:
        self.memory = memory
        self.spans: list[list] = []  # [call, name, parent, start_ns, end_ns, error]
        self.stack: list[int] = []
        self.notes: dict[int, tuple] = {}
        self.broken: set[str] = set()  # spans missing a wrap point or a note
        self.gc_ns: Counter = Counter()
        self.gc_count: Counter = Counter()
        self.peak: Counter = Counter()  # (call, span name) -> largest peak in bytes
        self._mem: list[list[int]] = []  # per open span: [start bytes, peak bytes]
        self._gc_start = 0
        self._patches: list[tuple] = []
        self.call = 0

    def enter(self, name: str) -> int:
        if self.memory:
            current = self._mem_boundary()
            self._mem.append([current, current])
        sid = len(self.spans)
        self.spans.append([self.call, name, self.stack[-1] if self.stack else None,
                           time.perf_counter_ns(), 0, False])
        self.stack.append(sid)
        return sid

    def exit(self, sid: int, error: bool) -> None:
        span = self.spans[sid]
        span[4] = time.perf_counter_ns()
        span[5] = error
        self.stack.pop()
        if self.memory:
            self._mem_boundary()
            start, peak = self._mem.pop()
            key = (span[0], span[1])
            self.peak[key] = max(self.peak[key], peak - start)

    def _mem_boundary(self) -> int:
        current, peak = tracemalloc.get_traced_memory()
        for frame in self._mem:
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()
        return current

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        elif self.stack:
            name = self.spans[self.stack[-1]][1]
            self.gc_ns[name] += time.perf_counter_ns() - self._gc_start
            self.gc_count[name] += 1

    def _wrapper(self, fn, name: str):
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            sid = self.enter(name)
            error = True
            try:
                out = fn(*args, **kwargs)
                error = False
            finally:
                self.exit(sid, error)
            if note is not None:
                try:
                    self.notes[sid] = note(args, out)
                except (AttributeError, IndexError, TypeError):
                    self.broken.add(name)
            return out

        return traced

    def install(self, modules: dict) -> None:
        for mod, attr, name in WRAP_POINTS:
            fn = getattr(modules[mod], attr, None)
            if not callable(fn):
                print(f"# tracer: no wrap point {mod}.{attr}; {name} metrics omitted",
                      file=sys.stderr)
                self.broken.add(name)
                continue
            self._patches.append((modules[mod], attr, fn))
            setattr(modules[mod], attr, self._wrapper(fn, name))
        gc.callbacks.append(self.on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self.on_gc)
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def run_main(self, call: int, cli, argv: list[str]) -> tuple[int, bytes, bytes]:
        """One in-process ``cli.main(argv)`` as span ``cli.main``.

        Objects alive before the call are frozen out of the collector's
        reach, so its pauses see about what a fresh process would.
        """
        self.call = call
        out, err = io.StringIO(), io.StringIO()
        was_enabled = gc.isenabled()
        gc.collect()
        gc.freeze()
        gc.enable()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                sid = self.enter(MAIN)
                raised = True
                try:
                    code = cli.main(argv)
                    raised = False
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception as exc:  # a crash is a failed call, not a crashed run
                    print(f"{type(exc).__name__}: {exc}", file=err)
                    code = 1
                finally:
                    self.exit(sid, raised)
        finally:
            if not was_enabled:
                gc.disable()
            gc.unfreeze()
        return code, out.getvalue().encode(), err.getvalue().encode()


def _aggregate(tracer: Tracer, calls) -> dict:
    """Per span name: calls, errors, inclusive and self ns, plus per shape."""
    covered = Counter()
    for call, name, parent, start, end, _ in tracer.spans:
        if parent is not None:
            covered[parent] += end - start
    agg = {name: Counter() for name in SPANS}
    for sid, (call, name, parent, start, end, error) in enumerate(tracer.spans):
        a = agg[name]
        total, own = end - start, end - start - covered[sid]
        shape = calls[call].shape
        a["calls"] += 1
        a["errors"] += error
        a["ns"] += total
        a["self_ns"] += own
        a[f"ns.{shape}"] += total
        a[f"self_ns.{shape}"] += own
    return agg


def layer_metrics(timing: Tracer, memory: Tracer, calls, small_calls, import_s: float,
                  main_s: list[float], child_s: list[float]) -> dict:
    agg = _aggregate(timing, calls)
    vertices = sum(c.vertices for c in calls)
    shape_vertices = Counter()
    for c in calls:
        shape_vertices[c.shape] += c.vertices

    def notes(name, shape=None):
        return [note for sid, note in timing.notes.items()
                if timing.spans[sid][1] == name
                and (shape is None or calls[timing.spans[sid][0]].shape == shape)]

    def ratio(a, b):
        return a / b if b else 0.0

    steiner = notes(STEINER)
    forest_v = sum(n for (n,) in notes(FOREST))
    audits = notes("verify.run_verify")
    values = {
        "cli.import_s": import_s,
        "cli.main.ns_per_v": ratio(agg[MAIN]["ns"], vertices),
        "cli.self_ns_per_v": ratio(agg[MAIN]["self_ns"], vertices),
        "trace.overhead_ratio": ratio(statistics.median(main_s), statistics.median(child_s) - import_s),
        "corpus.gen.self_ns_per_v": ratio(agg["corpus.gen"]["self_ns"], vertices),
        f"{STEINER}.self_ns_per_v": ratio(agg[STEINER]["self_ns"], vertices),
        "steiner_domination.core_frac": ratio(sum(m for _, m, _ in steiner), sum(n for n, _, _ in steiner)),
        "steiner_domination.leaf_frac": ratio(sum(k for _, _, k in steiner), sum(n for n, _, _ in steiner)),
        f"{FOREST}.s": agg[FOREST]["ns"] / 1e9,
        f"{FOREST}.ns_per_core_v": ratio(agg[FOREST]["ns"], forest_v),
        "tree_model.build_adjacency.s": agg["tree_model.build_adjacency"]["ns"] / 1e9,
        "verify.run_verify.self_s": agg["verify.run_verify"]["self_ns"] / 1e9,
        "verify.audit_instance.self_s": agg["verify.audit_instance"]["self_ns"] / 1e9,
        "verify.write_certificate.s": agg["verify.write_certificate"]["ns"] / 1e9,
        "verify.instances": sum(i for i, _ in audits),
        "verify.certificates": sum(c for _, c in audits),
    }
    for s in SPANS:
        values[f"{s}.calls"] = agg[s]["calls"]
        values[f"{s}.errors"] = agg[s]["errors"]
        values[f"{s}.gc_pause_s"] = timing.gc_ns[s] / 1e9
        values[f"{s}.gc_collections"] = timing.gc_count[s]
        values[f"{s}.ns_per_v"] = ratio(agg[s]["ns"], vertices)
        values[f"{s}.s"] = agg[s]["ns"] / 1e9
    for s in PEAK_SPANS:
        values[f"{s}.peak_b_per_v"] = max(
            memory.peak[i, s] / c.vertices for i, c in enumerate(small_calls))
    for shape in PAR_SHAPES:
        shaped = notes(STEINER, shape)
        values[f"{STEINER}.self_ns_per_v.{shape}"] = ratio(
            agg[STEINER][f"self_ns.{shape}"], shape_vertices[shape])
        values[f"steiner_domination.core_frac.{shape}"] = ratio(
            sum(m for _, m, _ in shaped), sum(n for n, _, _ in shaped))
        values[f"{FOREST}.s.{shape}"] = agg[FOREST][f"ns.{shape}"] / 1e9
    broken = timing.broken | memory.broken
    return {name: values[name] for name, _, _, span in catalogue() if span not in broken}


def traced_run(name: str, seed: int, sizes: Sizes, work: Path, ledger: Ledger, spawner: Spawner):
    """Child baselines, then a timing pass and a tracemalloc pass in process."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    rnd = WORKLOADS[name](work, seed, sizes)
    (work / "small").mkdir()
    small = WORKLOADS[name](work / "small", seed, sizes.reduced())
    import_s = statistics.median(
        spawner.run(["-c", "import steinerdom.cli"], work, deadline).wall_s for _ in range(5))
    child_s = []
    for call in rnd.calls:
        res = spawner.call(call, work, deadline)
        child_s.append(res.wall_s)
        ledger.record(call, res.exit_code, res.stdout, res.stderr)
    modules = {m: importlib.import_module(f"steinerdom.{m}")
               for m in ("cli", "corpus", "steiner_domination", "verify")}
    timing, memory = Tracer(), Tracer(memory=True)
    for tracer, calls in ((timing, rnd.calls), (memory, small.calls)):
        tracer.install(modules)
        if tracer.memory:
            tracemalloc.start()
        try:
            for i, call in enumerate(calls):
                code, out, err = tracer.run_main(i, modules["cli"], call.argv)
                ledger.record(call, code, out, err)
        finally:
            tracemalloc.stop()
            tracer.uninstall()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"spans-{name}-seed{seed}.json").write_text(json.dumps({
        "fields": ["call", "name", "parent", "start_ns", "end_ns", "error"],
        "calls": [c.label for c in rnd.calls],
        "spans": timing.spans,
    }, separators=(",", ":")))
    main_s = [(end - start) / 1e9 for _, span, _, start, end, _ in timing.spans if span == MAIN]
    metrics = layer_metrics(timing, memory, rnd.calls, small.calls, import_s, main_s, child_s)
    units = {m: unit for m, unit, _, _ in catalogue()}
    print(f"# {name}: {len(timing.spans)} spans; traced cli.main {[round(s, 3) for s in main_s]} s, "
          f"child calls {[round(s, 3) for s in child_s]} s, import {import_s:.3f} s")
    return metrics, units, rnd.input_sha256
