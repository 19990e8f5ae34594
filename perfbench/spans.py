"""Per-layer host-time tracing, applied from outside the simulator.

:func:`traced` wraps the public entry points of each ``repro`` subpackage
(the :data:`TARGETS` table) for the duration of a ``with`` block.  Every
call -- or, for a generator entry point, every resume -- is one span;
spans nest on one stack, and a layer's self time is its spans' durations
minus the part their child spans cover.  Aggregation happens as spans
close, so memory stays flat however many millions of spans a run makes.

Opening and closing a child span costs its parent time the parent did
not spend on its own work.  :func:`calibrate` measures that cost once per
traced run and each parent's self time is reduced by it per child; the
total goes to :attr:`SpanTracer.overhead_s`, so self times plus overhead
still add up to the spans' durations exactly.

Nothing here changes what the simulator computes: wrappers pass
arguments, return values, ``StopIteration`` values and exceptions
through unchanged, and the traced run's snapshot digest is checked
against an untraced run of the same seed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

from stats import fold_child, median

#: Simulator layers in report order; ``platforms.*`` are resolved per call.
LAYERS = (
    "sim",
    "cluster",
    "storage",
    "platforms.bigquery",
    "platforms.bigtable",
    "platforms.spanner",
    "profiling",
    "observability",
    "workloads",
    "store",
    "analysis",
)
#: The layer of the benchmark's own counting done inside the traced wall.
BOOKKEEPING = "perfbench"

#: ``(module, qualified name, layer)``; layer ``None`` means "the platform
#: the method is called on".
TARGETS = (
    ("repro.sim.engine", "Environment.run", "sim"),
    ("repro.sim.columnar", "ColumnarEnvironment.run", "sim"),
    ("repro.cluster.network", "NetworkFabric.round_trip_time", "cluster"),
    ("repro.cluster.network", "NetworkFabric.transfer_time", "cluster"),
    ("repro.cluster.rpc", "rpc_call", "cluster"),
    ("repro.cluster.node", "ServerNode.compute", "cluster"),
    ("repro.cluster.node", "ServerNode.compute_batch", "cluster"),
    ("repro.cluster.node", "ServerNode.compute_block", "cluster"),
    # A coalesced CPU batch fires from the event heap as a bare callable;
    # without this its chunk accounting would count as sim self time.
    ("repro.cluster.node", "_BatchRecorder.__call__", "cluster"),
    ("repro.storage.dfs", "DistributedFileSystem.read", "storage"),
    ("repro.storage.reader", "plan_read", "storage"),
    ("repro.storage.tier", "TieredStore.read", "storage"),
    ("repro.storage.tier", "TieredStore.read_planned", "storage"),
    ("repro.platforms.common", "PlatformBase.run_query", None),
    ("repro.profiling.gwp", "FleetProfiler.record_work", "profiling"),
    ("repro.profiling.gwp", "FleetProfiler.record_work_batch", "profiling"),
    ("repro.profiling.gwp", "FleetProfiler.drain_samples", "profiling"),
    ("repro.profiling.dapper", "Tracer.start_trace", "profiling"),
    ("repro.profiling.dapper", "Tracer.drain_finished", "profiling"),
    ("repro.profiling.dapper", "Trace.record", "profiling"),
    ("repro.profiling.dapper", "Trace.record_chunk", "profiling"),
    ("repro.profiling.breakdown", "trace_breakdown", "profiling"),
    ("repro.observability.sketch", "WindowedQuantileSketch.observe", "observability"),
    ("repro.observability.sketch", "WindowedQuantileSketch.quantile", "observability"),
    ("repro.observability.sketch", "WindowedQuantileSketch.values", "observability"),
    ("repro.workloads.fleet", "FleetSimulation.run", "workloads"),
    ("repro.workloads.service", "serve_windows", "workloads"),
    ("repro.store.writer", "StoreWriter.ingest_fleet", "store"),
    ("repro.store.provider", "DataProvider.fleet_result", "store"),
    ("repro.analysis.tables", "render_tables", "analysis"),
    ("repro.analysis.figures", "figure2_data", "analysis"),
    ("repro.analysis.figures", "figure3_data", "analysis"),
    ("repro.analysis.figures", "figure4_data", "analysis"),
    ("repro.analysis.figures", "figure5_data", "analysis"),
    ("repro.analysis.figures", "figure6_data", "analysis"),
)


@dataclass(frozen=True)
class SpanCosts:
    """Seconds one span's wrapper costs its parent span and itself."""

    call_parent: float = 0.0
    call_self: float = 0.0
    resume_parent: float = 0.0
    resume_self: float = 0.0


class SpanTracer:
    """One stack of open spans plus the per-layer and per-target totals.

    A frame is ``[layer, target, start, covered, cover_end, parent_cost,
    self_cost, children_cost]``: ``covered`` is the time its closed
    children account for (overlap counted once), ``parent_cost`` and
    ``self_cost`` what the span's own wrapper costs its parent and itself,
    and ``children_cost`` the parent cost summed over its children.
    """

    def __init__(self, clock=time.perf_counter, costs: SpanCosts | None = None):
        self.clock = clock
        self.costs = costs or SpanCosts()
        self.stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.target_self_s: dict[str, float] = defaultdict(float)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        #: ``(target, layer)`` -> calls (generator creations, not resumes).
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        #: Total duration of spans opened with no span around them.
        self.root_s = 0.0
        #: Parent time spent opening and closing child spans.
        self.overhead_s = 0.0

    def open(self, layer: str, target: str, parent_cost: float, self_cost: float) -> list:
        start = self.clock()
        frame = [layer, target, start, 0.0, start, parent_cost, self_cost, 0.0]
        self.stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = self.clock()
        if self.stack.pop() is not frame:
            raise RuntimeError(f"span {frame[1]} closed out of order")
        layer, target, start, covered, _, parent_cost, self_cost, children_cost = frame
        duration = end - start
        own = duration - covered - children_cost - self_cost
        self.overhead_s += children_cost + self_cost
        self.self_s[layer] += own
        self.target_self_s[target] += own
        self.inclusive_s[target] += duration
        if self.stack:
            parent = self.stack[-1]
            parent[3], parent[4] = fold_child(parent[3], parent[4], start, end)
            parent[7] += parent_cost
        else:
            self.root_s += duration


def call_wrapper(fn, target: str, layer_of, tracer: SpanTracer, after=None):
    """Wrap a plain function: one span per call.

    ``after(tracer, result, args)`` runs once the span has closed, inside
    a span of the :data:`BOOKKEEPING` layer.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        layer = layer_of(args)
        tracer.calls[target, layer] += 1
        costs = tracer.costs
        frame = tracer.open(layer, target, costs.call_parent, costs.call_self)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(frame)
        if after is not None:
            frame = tracer.open(BOOKKEEPING, target, costs.call_parent, costs.call_self)
            try:
                after(tracer, result, args)
            finally:
                tracer.close(frame)
        return result

    return wrapper


def _resumes(inner, target: str, layer: str, tracer: SpanTracer):
    """Drive generator ``inner`` with one span per resume.

    Values sent in, values yielded out, the ``StopIteration`` value and any
    exception raised or thrown all pass through unchanged.
    """
    parent_cost, self_cost = tracer.costs.resume_parent, tracer.costs.resume_self
    sent, thrown = None, None
    while True:
        frame = tracer.open(layer, target, parent_cost, self_cost)
        try:
            if thrown is None:
                item = inner.send(sent)
            else:
                item = inner.throw(thrown)
        except StopIteration as stop:
            tracer.close(frame)
            return stop.value
        except BaseException:
            tracer.close(frame)
            raise
        tracer.close(frame)
        sent, thrown = None, None
        try:
            sent = yield item
        except GeneratorExit:
            inner.close()
            raise
        except BaseException as exc:
            thrown = exc


def resume_wrapper(fn, target: str, layer_of, tracer: SpanTracer):
    """Wrap a generator function: one span per resume, none at creation."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        layer = layer_of(args)
        tracer.calls[target, layer] += 1
        resumes = _resumes(fn(*args, **kwargs), target, layer, tracer)
        # A process started on it is named after its generator.
        resumes.__name__ = fn.__name__
        return resumes

    return wrapper


def _platform_layer(args) -> str:
    return "platforms." + args[0].platform_name.lower()


def _layer_of_file(filename: str) -> str | None:
    """The layer a ``repro`` source file belongs to, if it is a traced one."""
    parts = filename.replace("\\", "/").rsplit("/repro/", 1)
    if len(parts) != 2:
        return None
    package = parts[1].split("/")
    if package[0] == "platforms" and len(package) > 2:
        return "platforms." + package[1]
    return package[0] if package[0] in LAYERS else None


def process_wrapper(fn, tracer: SpanTracer):
    """Wrap ``Environment.process``: time the new process's resumes.

    The engine resumes a process's generator straight from its event loop,
    so without this the code of every spawned process (BigQuery stage
    workers, RPC handlers, overlapped CPU slices) would count as sim self
    time.  A process belongs to the layer whose module defines its
    generator; ``PlatformBase`` generators belong to their platform.
    Generators already wrapped by :func:`resume_wrapper` keep their spans.
    """
    layers: dict[str, str | None] = {}

    @functools.wraps(fn)
    def wrapper(self, generator, name=""):
        code = getattr(generator, "gi_code", None)
        if code is None or code is _resumes.__code__:
            return fn(self, generator, name)
        filename = code.co_filename
        if filename not in layers:
            layers[filename] = _layer_of_file(filename)
        layer = layers[filename]
        if layer is None and filename.endswith("/platforms/common.py"):
            owner = generator.gi_frame.f_locals.get("self")
            if owner is not None:
                layer = _platform_layer((owner,))
        if layer is None:
            return fn(self, generator, name)
        target = "process:" + code.co_name
        tracer.calls[target, layer] += 1
        # An unnamed process is named after its generator: keep that name.
        return fn(self, _resumes(generator, target, layer, tracer),
                  name or generator.__name__)

    return wrapper


def _count_fabric(tracer: SpanTracer, _result, _args) -> None:
    # Called in the bookkeeping span: the span around the fabric call's
    # caller is one below the top.
    if len(tracer.stack) > 1 and tracer.stack[-2][0] == "storage":
        tracer.counts["storage_fabric_calls"] += 1


def _count_spans(tracer: SpanTracer, _result, args) -> None:
    # Every finished trace is broken down exactly once.  Counted from the
    # stored rows (one per span, or one per block of chunk spans) so the
    # count does not materialize them.
    tracer.counts["spans"] += sum(
        row.hi - row.lo if hasattr(row, "hi") else 1 for row in args[0]._spans
    )


def _count_plan(tracer: SpanTracer, plan, _args) -> None:
    tracer.counts["legs"] += len(plan.legs)


def _count_tier(tracer: SpanTracer, result, _args) -> None:
    tracer.counts["tier." + result[1].value] += 1


_AFTER = {
    "NetworkFabric.round_trip_time": _count_fabric,
    "NetworkFabric.transfer_time": _count_fabric,
    "trace_breakdown": _count_spans,
    "plan_read": _count_plan,
    "TieredStore.read_planned": _count_tier,
}


#: Calibration rounds, and no-op child spans per round.
CALIBRATE_ROUNDS = 7
CALIBRATE_SPANS = 20000


def calibrate() -> SpanCosts:
    """Measure what a call span and a resume span cost, as :class:`SpanCosts`.

    Runs :data:`CALIBRATE_SPANS` no-op calls and as many no-op generator
    resumes as child spans of one open span, and the same loops unwrapped.
    The difference in the parent's self time per child is the parent cost;
    a child's self time minus the unwrapped body's time is the self cost.
    Medians over :data:`CALIBRATE_ROUNDS` rounds.
    """
    n = CALIBRATE_SPANS

    def noop():
        return None

    def ticker():
        while True:
            yield None

    def plain_calls():
        began = time.perf_counter()
        for _ in range(n):
            noop()
        return time.perf_counter() - began

    def plain_resumes():
        gen = ticker()
        next(gen)
        began = time.perf_counter()
        for _ in range(n):
            gen.send(None)
        return time.perf_counter() - began

    def traced_calls(tracer):
        wrapped = call_wrapper(noop, "noop", lambda _a: "child", tracer)
        for _ in range(n):
            wrapped()

    def traced_resumes(tracer):
        gen = _resumes(ticker(), "ticker", "child", tracer)
        next(gen)
        tracer.self_s["child"] = 0.0
        for _ in range(n):
            gen.send(None)

    def costs(drive, plain) -> tuple[float, float]:
        parent, own = [], []
        for _ in range(CALIBRATE_ROUNDS):
            body = plain() / n
            tracer = SpanTracer()
            frame = tracer.open("parent", "parent", 0.0, 0.0)
            drive(tracer)
            tracer.close(frame)
            parent.append(tracer.self_s["parent"] / n - body)
            own.append(tracer.self_s["child"] / n)
        return max(median(parent), 0.0), max(median(own), 0.0)

    call_parent, call_self = costs(traced_calls, plain_calls)
    resume_parent, resume_self = costs(traced_resumes, plain_resumes)
    return SpanCosts(call_parent, call_self, resume_parent, resume_self)


def _resolve(module_name: str, qualname: str):
    owner = importlib.import_module(module_name)
    *outer, name = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name, owner.__dict__[name]


@contextlib.contextmanager
def traced(tracer: SpanTracer):
    """Install the wrappers for the block; always restores the originals.

    Module-level functions are also replaced wherever a ``repro`` module
    imported them by name, so ``from x import f`` call sites are traced.
    """
    replaced: list[tuple[object, str, object]] = []
    try:
        from repro.sim.engine import Environment

        original = Environment.__dict__["process"]
        Environment.process = process_wrapper(original, tracer)
        replaced.append((Environment, "process", original))
        for module_name, qualname, layer in TARGETS:
            owner, name, original = _resolve(module_name, qualname)
            layer_of = _platform_layer if layer is None else (lambda _a, _l=layer: _l)
            if isinstance(original, property):
                wrapper = property(call_wrapper(original.fget, qualname, layer_of, tracer))
            elif inspect.isgeneratorfunction(original):
                wrapper = resume_wrapper(original, qualname, layer_of, tracer)
            else:
                wrapper = call_wrapper(
                    original, qualname, layer_of, tracer, _AFTER.get(qualname)
                )
            setattr(owner, name, wrapper)
            replaced.append((owner, name, original))
            if inspect.isclass(owner):
                continue
            for module in list(sys.modules.values()):
                if module is owner or not getattr(module, "__name__", "").startswith("repro"):
                    continue
                if module.__dict__.get(name) is original:
                    setattr(module, name, wrapper)
                    replaced.append((module, name, original))
        yield tracer
    finally:
        for owner, name, original in reversed(replaced):
            setattr(owner, name, original)
