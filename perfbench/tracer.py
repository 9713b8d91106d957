"""Per-layer spans for one traced run, recorded from outside the program.

:func:`install` wraps the public entry points of each ``src/repro`` layer
at run time (class attributes are replaced in the child process that runs
the experiment; no file under ``src/`` changes).  Every call of a wrapped
function is a span.  Generators (and functions returning one) are timed
per resumption, because simulation processes interleave: a span covers one
``send``/``throw`` into the generator, never the simulated time it waits.
Each process resumption (``Process._resume``) is also a span, attributed to
the layer whose module defines the process body, so code that runs inside
a process but outside every wrapped entry point still lands in its layer.

A span's self time is its duration minus the time its child spans cover,
and minus the wrappers' own cost for those children, measured per call and
per resumption before the run (:meth:`Tracer.calibrate`).  The self times
of all spans plus that estimated tracer overhead sum to the root span: the
traced ``run_experiment`` call.  Spans are kept in memory (the first
:data:`SPAN_LOG_LIMIT` of them in full: name, start, end, parent, request
id) and written out by the caller when the run ends; the per-layer sums
cover every span.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
import types
from collections import defaultdict
from importlib import import_module
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

#: Layers reported, in report order.  ``other`` is code outside the listed
#: layers: experiment builders, workloads, cluster assembly, metrics.
LAYERS = ("sim", "hostmodel", "storage", "net", "virt", "hdfs", "core",
          "load", "faults", "other")

#: Spans kept in full for the trace file; aggregates cover all spans.
SPAN_LOG_LIMIT = 100_000

_HERE = os.path.abspath(__file__)


# --------------------------------------------------------------- counters
# Each hook receives the wrapped call's arguments (and, for ``on_return``,
# its result) and adds to the tracer's counters.  Hooks run only for the
# outermost call of an entry kind, so an override calling ``super()``
# counts once.
def _count(name: str) -> Callable:
    def hook(tracer, args, kwargs):
        tracer.counts[name] += 1
    return hook


def _arg(args, kwargs, index: int, name: str):
    """Argument ``name`` (positional ``index``, counting ``self``)."""
    return kwargs[name] if name in kwargs else args[index]


def _missing_bytes_return(tracer, args, kwargs, result):
    tracer.counts["storage.pagecache_requested_bytes"] += _arg(
        args, kwargs, 3, "length")
    tracer.counts["storage.pagecache_missing_bytes"] += result


def _checksum_call(tracer, args, kwargs):
    tracer.counts["storage.checksum_bytes"] += args[0].size


def _lan_transfer_call(tracer, args, kwargs):
    tracer.counts["net.lan_bytes"] += _arg(args, kwargs, 3, "nbytes")


def _vread_read_return(tracer, args, kwargs, result):
    tracer.counts["core.vread_bytes"] += result.size


def _dfs_read_return(tracer, args, kwargs, result):
    # Bytes delivered by vRead-mode streams: the base of fastpath_ratio.
    if result is not None and type(args[0]).__name__ == "VReadDfsInputStream":
        tracer.counts["core.stream_bytes"] += result.size


class Entry(NamedTuple):
    """Entry points of one class (and its subclasses' overrides)."""

    layer: str
    module: str
    cls: str
    methods: Tuple[str, ...]
    on_call: Dict[str, Callable] = {}
    on_return: Dict[str, Callable] = {}


#: The wrapped entry points, layer by layer (see the benchmark README).
ENTRIES = (
    Entry("sim", "repro.sim.kernel", "Simulator",
          ("run", "run_until_complete")),
    # Thread.run is how every caller reaches the scheduler (it calls the
    # burst implementations directly; CpuScheduler.execute has no callers).
    Entry("hostmodel", "repro.hostmodel.cpu", "Thread", ("run",),
          on_call={"run": _count("hostmodel.execute_calls")}),
    Entry("storage", "repro.storage.content", "ByteSource", ("checksum",),
          on_call={"checksum": _checksum_call}),
    Entry("storage", "repro.storage.content", "PatternSource",
          ("read", "readinto")),
    Entry("storage", "repro.storage.pagecache", "PageCache",
          ("missing_bytes", "insert"),
          on_return={"missing_bytes": _missing_bytes_return}),
    Entry("storage", "repro.storage.device", "StorageDevice",
          ("read", "write"),
          on_call={"read": _count("storage.device_ops"),
                   "write": _count("storage.device_ops")}),
    Entry("net", "repro.net.tcp", "TcpConnection", ("send", "recv"),
          on_call={"send": _count("net.tcp_msgs")}),
    Entry("net", "repro.net.rdma", "RdmaQueuePair", ("post_send",),
          on_call={"post_send": _count("net.rdma_posts")}),
    Entry("net", "repro.net.lan", "Lan", ("transfer",),
          on_call={"transfer": _lan_transfer_call}),
    Entry("virt", "repro.virt.virtio_blk", "VirtioBlk", ("read", "write"),
          on_call={"read": _count("virt.blk_ops"),
                   "write": _count("virt.blk_ops")}),
    Entry("virt", "repro.virt.vm", "VirtualMachine",
          ("read_file", "write_file")),
    Entry("hdfs", "repro.hdfs.client", "DfsClient",
          ("read_file", "write_file")),
    Entry("hdfs", "repro.hdfs.client", "DfsInputStream", ("read", "pread"),
          on_call={"read": _count("hdfs.read_calls"),
                   "pread": _count("hdfs.read_calls")},
          on_return={"read": _dfs_read_return, "pread": _dfs_read_return}),
    Entry("hdfs", "repro.hdfs.client", "DfsOutputStream", ("write",),
          on_call={"write": _count("hdfs.write_calls")}),
    Entry("core", "repro.core.api", "VReadLibrary",
          ("vread_open", "vread_read", "vread_update"),
          on_call={"vread_read": _count("core.vread_reads")},
          on_return={"vread_read": _vread_read_return}),
    Entry("core", "repro.core.daemon", "VReadHostService",
          ("read_local", "handle_remote")),
    Entry("load", "repro.load.generator", "LoadGenerator", ("run_cluster",)),
    Entry("faults", "repro.faults.injector", "FaultInjector",
          ("arm", "fire")),
)


# ----------------------------------------------------------------- tracer
class Tracer:
    """Span stack, per-layer self time and counters for one run."""

    def __init__(self, span_log_limit: int = SPAN_LOG_LIMIT):
        self.clock = time.perf_counter
        self.t0 = self.clock()
        self.span_log_limit = span_log_limit
        #: Open spans: [id, name id, layer, kind, start, time covered by
        #: children, host cost the span adds to its parent].
        self._stack: List[list] = []
        #: Measured cost of a traced call and of a traced generator
        #: resumption (see :meth:`calibrate`); charged to no layer.
        self.call_cost = 0.0
        self.resume_cost = 0.0
        self.overhead_s = 0.0
        self._depth: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        #: Time inside the outermost span of each entry kind.
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.span_count = 0
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        #: (name id, start, end, parent span id or -1, request id)
        self.spans: List[Tuple[int, float, float, int, int]] = []
        self.requests: List[str] = ["setup"]
        self.request = 0
        #: Instances whose totals are read after the run.
        self.accountings: List[Any] = []
        self.fault_counters: List[Any] = []

    def name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def push(self, name_id: int, layer: str, kind: str, cost: float) -> None:
        self._depth[kind] += 1
        self._stack.append([self.span_count, name_id, layer, kind,
                            self.clock(), 0.0, cost])
        self.span_count += 1

    def pop(self) -> None:
        end = self.clock()
        span_id, name_id, layer, kind, start, covered, cost = \
            self._stack.pop()
        duration = end - start
        self.self_s[layer] += duration - covered
        stack = self._stack
        parent = -1
        if stack:
            # The wrapper's own work runs outside the span's clock reads,
            # in the parent's time: take it out of the parent's self time.
            stack[-1][5] += duration + cost
            self.overhead_s += cost
            parent = stack[-1][0]
        depth = self._depth[kind] - 1
        self._depth[kind] = depth
        if depth == 0:
            self.inclusive_s[kind] += duration
        if span_id < self.span_log_limit:
            self.spans.append((name_id, start - self.t0, end - self.t0,
                               parent, self.request))

    def calibrate(self, rounds: int = 4000, repeats: int = 5) -> None:
        """Measure what one traced call and one traced resumption cost.

        Times a no-op function and a one-yield generator, bare and wrapped
        by a throwaway tracer, and keeps the best of ``repeats`` loops.
        """
        probe = Tracer(span_log_limit=0)
        probe.push(probe.name_id("calibrate"), "other", "calibrate", 0.0)
        clock = self.clock

        def call():
            return None

        def gen():
            yield None

        def per_round(fn) -> float:
            best = float("inf")
            for _ in range(repeats):
                start = clock()
                for _ in range(rounds):
                    fn()
                best = min(best, clock() - start)
            return best / rounds

        traced_call = probe.wrap(call, "call", "other", "call", None, None)
        traced_gen = probe.wrap(gen, "gen", "other", "gen", None, None)
        self.call_cost = max(0.0, per_round(traced_call) - per_round(call))
        # One generator call is two resumptions: to the yield, to the end.
        self.resume_cost = max(0.0, (per_round(lambda: list(traced_gen()))
                                     - per_round(lambda: list(gen()))) / 2)

    def is_outermost(self, kind: str) -> bool:
        return self._depth[kind] == 0

    def begin_request(self, label: str) -> None:
        self.requests.append(label)
        self.request = len(self.requests) - 1

    # ------------------------------------------------------------ wrapping
    def traced_generator(self, gen, name_id: int, layer: str, kind: str,
                         on_return: Optional[Callable], args, kwargs):
        """Drive ``gen``, timing each resumption as one span."""
        send = gen.send
        value = None
        error: Optional[BaseException] = None
        while True:
            self.push(name_id, layer, kind, self.resume_cost)
            try:
                if error is None:
                    yielded = send(value)
                else:
                    yielded = gen.throw(error)
            except StopIteration as stop:
                self.pop()
                if on_return is not None:
                    on_return(self, args, kwargs, stop.value)
                return stop.value
            except BaseException:
                self.pop()
                raise
            self.pop()
            try:
                value = yield yielded
                error = None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into the generator
                value = None
                error = exc

    def wrap(self, fn: Callable, qualname: str, layer: str, kind: str,
             on_call: Optional[Callable],
             on_return: Optional[Callable]) -> Callable:
        """Wrap ``fn``; ``kind`` is shared by a method and its overrides."""
        name_id = self.name_id(f"{layer}:{qualname}")
        tracer = self

        def traced_gen(gen, nested, args, kwargs):
            wrapped = tracer.traced_generator(
                gen, name_id, layer, kind,
                None if nested else on_return, args, kwargs)
            wrapped.__name__ = getattr(gen, "__name__", qualname)
            wrapped.__qualname__ = getattr(gen, "__qualname__", qualname)
            return wrapped

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_entry(*args, **kwargs):
                nested = not tracer.is_outermost(kind)
                if on_call is not None and not nested:
                    on_call(tracer, args, kwargs)
                return traced_gen(fn(*args, **kwargs), nested, args, kwargs)
            return generator_entry

        @functools.wraps(fn)
        def entry(*args, **kwargs):
            nested = not tracer.is_outermost(kind)
            if on_call is not None and not nested:
                on_call(tracer, args, kwargs)
            tracer.push(name_id, layer, kind, tracer.call_cost)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.pop()
            if isinstance(result, types.GeneratorType):
                return traced_gen(result, nested, args, kwargs)
            if on_return is not None and not nested:
                on_return(tracer, args, kwargs, result)
            return result
        return entry

    def _wrap_resume(self, original: Callable) -> Callable:
        """Attribute each process resumption to its body's layer."""
        tracer = self
        layer_of: Dict[Any, Optional[Tuple[int, str]]] = {}

        def classify(code) -> Optional[Tuple[int, str]]:
            path = os.path.abspath(code.co_filename)
            if path == _HERE:
                return None        # a traced generator spans itself
            parts = path.replace(os.sep, "/").split("/repro/")
            package = parts[-1].split("/")[0] if len(parts) > 1 else ""
            layer = package if package in LAYERS else "other"
            return (tracer.name_id(f"{layer}:process {code.co_name}"), layer)

        @functools.wraps(original)
        def _resume(process, event):
            code = process._generator.gi_code
            target = layer_of.get(code, False)
            if target is False:
                target = layer_of[code] = classify(code)
            if target is None:
                return original(process, event)
            tracer.push(target[0], target[1], "Process._resume",
                        tracer.call_cost)
            try:
                return original(process, event)
            finally:
                tracer.pop()
        return _resume


def _subclasses(cls) -> List[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def install(tracer: Tracer) -> None:
    """Wrap every entry point of :data:`ENTRIES` (and resumptions)."""
    # Import every module that may define a subclass before walking the
    # class trees, so overrides in later-imported modules are wrapped too.
    for module in ("repro.core.integration", "repro.storage.disk",
                   "repro.storage.filesystem", "repro.experiments.runner"):
        import_module(module)
    for entry in ENTRIES:
        root = getattr(import_module(entry.module), entry.cls)
        for cls in _subclasses(root):
            for method in entry.methods:
                fn = cls.__dict__.get(method)
                if fn is None:
                    continue
                setattr(cls, method, tracer.wrap(
                    fn, f"{cls.__name__}.{method}", entry.layer,
                    f"{entry.cls}.{method}", entry.on_call.get(method),
                    entry.on_return.get(method)))

    from repro.sim.process import Process
    Process._resume = tracer._wrap_resume(Process._resume)

    from repro.metrics.accounting import CpuAccounting, FaultCounters
    for cls, sink in ((CpuAccounting, tracer.accountings),
                      (FaultCounters, tracer.fault_counters)):
        _record_instances(cls, sink)

    from repro.experiments import runner
    worker = runner._worker

    @functools.wraps(worker)
    def _worker(task):
        tracer.begin_request(repr(task[1]))
        return worker(task)
    runner._worker = _worker


def _record_instances(cls, sink: List[Any]) -> None:
    init = cls.__init__

    @functools.wraps(init)
    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        sink.append(self)
    cls.__init__ = __init__


# ---------------------------------------------------------------- metrics
def _ratio(numerator: float, base: float) -> float:
    """``numerator / base``; 0.0 when the base is 0 (the layer did not run)."""
    return numerator / base if base else 0.0


def layer_metrics(tracer: Tracer, kernel: Dict[str, int],
                  epochs: Dict[str, int]) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``."""
    counts = tracer.counts
    self_s = tracer.self_s
    fault_counts: Dict[str, int] = defaultdict(int)
    for counters in tracer.fault_counters:
        for name, count in counters.as_dict().items():
            fault_counts[name] += count
    events = kernel["events_processed"]
    execute_calls = counts["hostmodel.execute_calls"]
    requested = counts["storage.pagecache_requested_bytes"]
    metrics = {f"{layer}.self_s": (self_s[layer], "s") for layer in LAYERS}
    metrics.update({
        "sim.events": (events, "count"),
        "sim.ns_per_event": (_ratio(self_s["sim"] * 1e9, events), "ns"),
        "sim.pending_hw": (kernel["heap_high_water"], "count"),
        "sim.cancelled_ratio": (_ratio(kernel["cancelled_discarded"],
                                       kernel["events_scheduled"]), "ratio"),
        "hostmodel.execute_calls": (execute_calls, "count"),
        "hostmodel.us_per_execute": (
            _ratio(self_s["hostmodel"] * 1e6, execute_calls), "us"),
        "hostmodel.epoch_commit_ratio": (
            _ratio(epochs["epochs_completed"], epochs["epochs_formed"]),
            "ratio"),
        "hostmodel.cpu_sim_s": (
            sum(accounting.total() for accounting in tracer.accountings),
            "sim_s"),
        "storage.checksum_s": (tracer.inclusive_s["ByteSource.checksum"],
                               "s"),
        "storage.checksum_bytes": (counts["storage.checksum_bytes"], "bytes"),
        "storage.pagecache_hit_ratio": (
            1.0 - _ratio(counts["storage.pagecache_missing_bytes"], requested)
            if requested else 0.0, "ratio"),
        "storage.device_ops": (counts["storage.device_ops"], "count"),
        "net.tcp_msgs": (counts["net.tcp_msgs"], "count"),
        "net.rdma_posts": (counts["net.rdma_posts"], "count"),
        "net.lan_bytes": (counts["net.lan_bytes"], "bytes"),
        "virt.blk_ops": (counts["virt.blk_ops"], "count"),
        "hdfs.read_calls": (counts["hdfs.read_calls"], "count"),
        "hdfs.write_calls": (counts["hdfs.write_calls"], "count"),
        "hdfs.retries": (sum(count for name, count in fault_counts.items()
                             if name.startswith("recovery.")), "count"),
        "core.vread_reads": (counts["core.vread_reads"], "count"),
        "core.fastpath_ratio": (_ratio(counts["core.vread_bytes"],
                                       counts["core.stream_bytes"]), "ratio"),
        "core.fallbacks": (fault_counts["recovery.fallback-vanilla"],
                           "count"),
        "faults.injected": (sum(count for name, count in fault_counts.items()
                                if name.startswith("fault.")), "count"),
    })
    return metrics

