"""Span tracing of the program's layers, installed from outside.

:class:`Tracer` wraps the public functions of each layer — the shot
engine, the trace cache, the cycle-accurate system, the simulated
device, the noise model, the backend router and the service merge —
with ``perf_counter_ns`` spans and call counts.  Nothing in ``src`` is
edited: :meth:`Tracer.install` swaps class attributes and module
globals for wrappers and :meth:`Tracer.uninstall` puts the originals
back, so untraced code runs exactly as shipped.

Per layer the tracer keeps the call count, the inclusive time and the
self time (inclusive minus the time covered by its child spans).  The
first :data:`SPAN_LIMIT` spans are also kept whole — id, parent,
request, name, start, end — and written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter

import workloads  # noqa: F401  (puts the repository's src on sys.path)
from repro.qcp import shots as shots_module
from repro.qcp.shots import ShotEngine
from repro.qcp.system import QuAPESystem
from repro.qcp.tracecache import TraceCache
from repro.qpu.device import SimulatedQPU
from repro.qpu.noise import NoiseModel
from repro.service import jobs as jobs_module


def _cohort_shots(tracer: "Tracer", args: tuple, result) -> None:
    tracer.count("tracecache.cohort_shots", len(args[2]))


def _events(tracer: "Tracer", args: tuple, result) -> None:
    tracer.count("system.events", result.events_processed)


#: (layer name, owner, attribute, hook run on each return).  Module
#: functions are patched where their caller looks them up: the engine
#: calls ``repro.qcp.shots.route_backend`` and the job manager calls
#: ``repro.service.jobs.merge_shard_outcomes``.
LAYERS = (
    ("shots.construct", ShotEngine, "__init__", None),
    ("shots.run_range", ShotEngine, "run_range", None),
    ("tracecache.replay", TraceCache, "replay", None),
    ("tracecache.replay_batch", TraceCache, "replay_batch",
     _cohort_shots),
    ("tracecache.record", TraceCache, "record", None),
    ("system.build", QuAPESystem, "__init__", None),
    ("system.run", QuAPESystem, "run", _events),
    ("device.restart", SimulatedQPU, "restart", None),
    ("device.gate", SimulatedQPU, "apply_gate", None),
    ("device.measure", SimulatedQPU, "measure", None),
    ("noise.reseed", NoiseModel, "reseed", None),
    ("noise.is_pauli_only", NoiseModel, "is_pauli_only", None),
    ("routing.route", shots_module, "route_backend", None),
    ("service.merge", jobs_module, "merge_shard_outcomes", None),
)


#: Spans kept whole per run; later spans only add to the totals.
SPAN_LIMIT = 20_000


class Tracer:
    """In-memory spans and counters for the layers in :data:`LAYERS`.

    Thread-safe: the service merges on its own thread, so each thread
    keeps its own span stack and the shared tables are locked.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: Request id stamped on every span (a session or a job).
        self.request = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._layers: dict[str, list[int]] = {}
        self._counts: Counter = Counter()
        self._saved: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def count(self, name: str, value: int = 1) -> None:
        with self._lock:
            self._counts[name] += value

    def _wrap(self, name: str, function, hook):
        local = self._local
        clock = time.perf_counter_ns

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(self._ids)
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0]  # id, ns covered by child spans
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                with self._lock:
                    layer = self._layers.get(name)
                    if layer is None:
                        layer = self._layers[name] = [0, 0, 0]
                    layer[0] += 1
                    layer[1] += duration
                    layer[2] += duration - frame[1]
                    if len(self.spans) < SPAN_LIMIT:
                        self.spans.append((span_id, parent, self.request,
                                           name, start, end))
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, owner, attribute, hook in LAYERS:
            original = owner.__dict__[attribute]
            if isinstance(original, property):
                wrapped = property(self._wrap(name, original.fget, hook))
            else:
                wrapped = self._wrap(name, original, hook)
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    # -- reading ------------------------------------------------------------

    def take(self) -> dict:
        """Per-layer totals since the last call, then reset them.

        Returns ``{layer: {"calls", "ns", "self_ns"}}`` plus the plain
        counters under ``"counts"``.
        """
        with self._lock:
            layers = {name: {"calls": calls, "ns": total, "self_ns": own}
                      for name, (calls, total, own)
                      in self._layers.items()}
            counts = dict(self._counts)
            self._layers.clear()
            self._counts.clear()
        return {"layers": layers, "counts": counts}
