"""Repository benchmark: one workload, one seed, one measured run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload shor_6core --seed 0 \
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` alternates untraced and traced sessions and reports the
per-layer metrics plus the tracing overhead.  The metric list of each
comes from ``BENCHMARK.json``.  Timed metrics are normalised to a
reference host speed with the kernel in ``hostspeed.py``, which runs
around every timed piece of work.  Before measuring, every run
replays a seed prefix on the cycle-accurate model
(``trace_cache=False``) and compares digests; a fresh engine's digest
of the session (service: of each job) is checked against the recorded
golden when the seed has one, and every session or job must reproduce
it.  Counts that must repeat exactly are also compared with earlier
runs of the same seed on the same sources (kept under
``.perfbench_out/``).

Human-readable lines go first; the last line of standard output is the
JSON result ``{"correct", "attempted", "failed", "metrics"}``.  Without
the program sources under ``src`` the import fails: no result, exit 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import multiprocessing
import os
import pathlib
import platform
import resource
import statistics
import sys
import time
import traceback

# workloads first: importing it puts the repository's src on sys.path,
# and fails with ImportError when the sources are missing.
from workloads import (PAPER_SPEEDUP_6C, PREFIX_SHOTS, SEED_STRIDE,
                       SERVICE_WORKERS, WORKLOADS, QCPConfig,
                       histogram_digest, merge_shard_outcomes,
                       reference_digests, run_digest, shor_engine,
                       shor_program_text)
from hostspeed import REFERENCE_S, kernel_each_cpu_s, kernel_s
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import ServiceHandle
from tracing import Tracer

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

#: Jobs a run times at least: a p90 of their latencies has ten samples
#: beyond it, and the service reads its peak memory after this many.
MIN_JOBS = 100

#: Service set-ups (start, warm-up job, close) timed per run; the last
#: one serves the measured loop.
SERVICE_SETUPS = 10

#: Simulated clock period: ``total_ns`` is converted to cycles.
CLOCK_NS = 10

#: Per-layer counts that are a pure function of workload and seed: all
#: requests of a run and all runs of a seed must report the same value.
EXACT_LAYERS = frozenset({
    "tracecache.replay_batch_calls", "tracecache.replay_calls",
    "tracecache.record_calls", "tracecache.hits", "tracecache.misses",
    "tracecache.resumes", "tracecache.nodes", "tracecache.evictions",
    "tracecache.batched_shots", "tracecache.wavefront_splits",
    "tracecache.serial_fallbacks", "system.build_calls", "system.runs",
    "system.events", "device.restart_calls", "device.gate_calls",
    "device.measure_calls", "noise.reseed_calls",
    "noise.is_pauli_only_calls", "routing.route_calls",
    "service.shards_per_job",
})


def catalogue(trace: bool) -> list[dict]:
    """The metrics ``BENCHMARK.json`` lists for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def rank(percent: int, count: int) -> int:
    """1-based nearest rank of the ``percent``-th percentile."""
    return max(1, -(-percent * count // 100))


def percentile(values: list[float], percent: int) -> float:
    return sorted(values)[rank(percent, len(values)) - 1] if values else 0.0


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def rate(shots: int, seconds: float) -> float:
    return shots / seconds if seconds else 0.0


def git_commit(root: pathlib.Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_metadata() -> dict:
    import numpy

    return {"cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
            "machine": platform.machine(),
            "commit": git_commit(ROOT)}


def source_fingerprint() -> str:
    """Hash of the program and benchmark sources (keys the repeat log)."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py"))
    files.append(HERE / "goldens.json")
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set of this process (or its reaped children), MB."""
    return resource.getrusage(who).ru_maxrss / 1024.0


class Run:
    """Correctness bookkeeping and samples of one benchmark run."""

    def __init__(self, workload, seed: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.attempted = 0
        self.failures: list[str] = []
        #: Host seconds of set-ups and of untraced jobs, and the same
        #: at reference host speed (see :meth:`timed`); traced jobs
        #: only at reference speed.
        self.setup_s: list[float] = []
        self.setup_ref_s: list[float] = []
        self.latencies_s: list[float] = []
        self.job_ref_s: list[float] = []
        self.traced_ref_s: list[float] = []
        #: Reference-kernel times, two around every timed piece of work.
        self.kernel_s: list[float] = []
        self.layers: list[dict] = []
        #: Simulated ns per shot: over the memory session in-process,
        #: over a cycle of jobs on the service.
        self.sim_ns_per_shot = 0.0
        #: Values that must repeat exactly across runs of this seed.
        self.exact: dict = {}
        self.notes: list[str] = []
        #: Peak RSS after a fixed amount of work, so memory that grows
        #: with the work reads the same on every run.
        self.rss_mb: float | None = None

    def timed(self, action, clock=time.process_time, kernel=kernel_s):
        """Run ``action()`` between two calls of the reference kernel.

        Returns its result, its host seconds, and those seconds at
        reference host speed: scaled by ``REFERENCE_S`` over the mean
        of the two kernel times around it.  In-process work is timed
        in process CPU time against the kernel on the same thread; the
        service in wall time against the kernel on every CPU.
        """
        before = kernel()
        start = clock()
        result = action()
        seconds = clock() - start
        after = kernel()
        self.kernel_s += (before, after)
        return result, seconds, seconds * 2 * REFERENCE_S / (before + after)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def same(self, key: str, value) -> None:
        """Record ``value`` under ``key``; later values must be equal."""
        if key not in self.exact:
            self.exact[key] = value
        elif self.exact[key] != value:
            self.check(False, f"{key} differs between requests of one "
                              f"run: {self.exact[key]!r} != {value!r}")


# -- correctness references ---------------------------------------------------


def load_goldens() -> dict:
    path = HERE / "goldens.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text())


def check_references(run: Run, golden: dict | None) -> dict:
    """This seed's reference digests, tied to the model and the goldens.

    The prefix digest must equal the cycle-accurate model's
    (``trace_cache=False``); all digests must equal the recorded
    goldens when the seed has them.
    """
    workload = run.workload
    references = reference_digests(workload, run.seed)
    model = run_digest(workload, workload.seed_base(run.seed),
                       PREFIX_SHOTS, QCPConfig(trace_cache=False))
    run.check(references["prefix"] == model,
              f"prefix of {PREFIX_SHOTS} shots: trace-cached digest "
              f"{references['prefix'][:12]} != cycle-accurate {model[:12]}")
    if golden is not None:
        run.check(references == golden,
                  "reference digests differ from the recorded goldens")
    run.exact["references"] = references
    return references


def model_comparison(run: Run) -> None:
    """Modelled 6-core vs 1-core time of the paper benchmark."""
    base = run.workload.seed_base(run.seed)
    one = shor_engine(QCPConfig(), n_processors=1).run_range(
        base, base + PREFIX_SHOTS)
    six = shor_engine(QCPConfig()).run_range(base, base + PREFIX_SHOTS)
    one_us = one.total_ns / PREFIX_SHOTS / 1000
    six_us = six.total_ns / PREFIX_SHOTS / 1000
    modelled = one_us / six_us
    run.notes.append(
        f"model: 6-core {six_us:.2f} us/shot vs 1-core {one_us:.2f} "
        f"us/shot = {modelled:.2f}x modelled; the paper reports "
        f"{PAPER_SPEEDUP_6C}x, {100 * (modelled / PAPER_SPEEDUP_6C - 1):+.1f}% "
        "from it. The paper measured on its FPGA with PRNG readouts, "
        "whose random verification failures repeat cat preparation; "
        "the ideal stabilizer substrate here never fails verification.")


# -- in-process workloads -----------------------------------------------------


def layer_values(workload, snapshot: dict, counters: dict) -> dict:
    """Per-layer metrics of one traced session."""
    layers = snapshot["layers"]
    counts = snapshot["counts"]

    def ms(name: str, key: str = "ns") -> float:
        return layers.get(name, {}).get(key, 0) / 1e6

    def calls(name: str) -> int:
        return layers.get(name, {}).get("calls", 0)

    events = counts.get("system.events", 0)
    batches = calls("tracecache.replay_batch")
    values = {
        "shots.construct_ms": ms("shots.construct"),
        "shots.sweep_self_ms": ms("shots.run_range", "self_ns"),
        "tracecache.cohort_width": (
            counts.get("tracecache.cohort_shots", 0) / batches
            if batches else 0.0),
        "tracecache.hit_rate": (counters["hits"]
                                / workload.session_shots),
        "system.events": events,
        "system.ns_per_event": (layers.get("system.run", {}).get("ns", 0)
                                / events if events else 0.0),
        "noise.is_pauli_only_calls": calls("noise.is_pauli_only"),
    }
    for layer in ("tracecache.replay_batch", "tracecache.replay",
                  "tracecache.record", "system.build", "system.run",
                  "device.restart", "device.gate", "device.measure",
                  "noise.reseed", "routing.route"):
        values[f"{layer}_ms"] = ms(layer)
        values[f"{layer}_calls"] = calls(layer)
    values["system.runs"] = values.pop("system.run_calls")
    for name, value in counters.items():
        values[f"tracecache.{name}"] = value
    return values


def cache_counters(engine) -> dict:
    cache = engine.trace_cache
    return {name: getattr(cache, name)
            for name in ("hits", "misses", "resumes", "nodes", "evictions",
                         "batched_shots", "wavefront_splits",
                         "serial_fallbacks")}


def run_session(run: Run, reference: str, tracer=None) -> None:
    """One engine lifetime: set-up sample, then timed jobs."""
    workload = run.workload
    base = workload.seed_base(run.seed)
    gc.collect()
    if tracer is not None:
        tracer.request += 1
        tracer.take()

    def set_up():
        engine = workload.make_engine(QCPConfig())
        return engine, engine.run_range(base, base + 1)

    (engine, shard), setup, setup_ref = run.timed(set_up)
    shards = [shard]
    latencies, job_refs = [], []
    for index in range(workload.jobs):
        first = base + 1 + index * workload.job_shots
        shard, latency, job_ref = run.timed(
            lambda: engine.run_range(first, first + workload.job_shots))
        shards.append(shard)
        latencies.append(latency)
        job_refs.append(job_ref)
    result = merge_shard_outcomes(shards)
    digest = histogram_digest(result)
    run.check(digest == reference,
              f"session digest {digest[:12]} != reference {reference[:12]}")
    counters = cache_counters(engine)
    run.same("session_total_ns", result.total_ns)
    run.same("trace_cache", counters)
    if tracer is None:
        run.setup_s.append(setup)
        run.setup_ref_s.append(setup_ref)
        run.latencies_s += latencies
        run.job_ref_s += job_refs
    else:
        run.layers.append(layer_values(workload, tracer.take(), counters))
        run.traced_ref_s += job_refs


def memory_session(run: Run) -> None:
    """Peak RSS after one long-lived engine ran ``memory_shots`` shots.

    Runs before anything else builds an engine, so the peak is the
    imports plus this engine (on ``surface_d5``, its growing trie).
    """
    workload = run.workload
    first = workload.seed_base(run.seed) + SEED_STRIDE // 2
    engine = workload.make_engine(QCPConfig())
    result = engine.run_range(first, first + workload.memory_shots)
    run.rss_mb = peak_rss_mb()
    run.sim_ns_per_shot = result.total_ns / workload.memory_shots
    run.exact["memory_session"] = {"total_ns": result.total_ns,
                                   "nodes": engine.trace_cache.nodes}


def run_in_process(run: Run, reference: str, seconds: float,
                   tracer) -> None:
    deadline = time.perf_counter() + seconds
    hard_stop = time.perf_counter() + max(3 * seconds, 30.0)
    sessions = 0
    while True:
        traced = tracer is not None and sessions % 2 == 1
        if traced:
            tracer.install()
        try:
            run_session(run, reference, tracer if traced else None)
        except Exception:  # a raising session is a failed request
            run.check(False, "session raised:\n" + traceback.format_exc())
        finally:
            if traced:
                tracer.uninstall()
        sessions += 1
        now = time.perf_counter()
        if now >= hard_stop:
            break
        if now < deadline:
            continue
        if tracer is not None and sessions >= 2:
            break
        if tracer is None and len(run.latencies_s) >= MIN_JOBS:
            break


# -- service workload ---------------------------------------------------------


def reap_children(timeout: float = 30.0) -> None:
    """Wait for every worker process this run started to end."""
    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.terminate()
            child.join(timeout)


def start_service(run: Run, text: str, warm_seed: int, warm_ref: str):
    """Start a service and run its warm-up job; returns the handle."""
    shots = 4 * SERVICE_WORKERS
    handle = None

    def set_up():
        nonlocal handle
        handle = ServiceHandle.start(n_workers=SERVICE_WORKERS)
        client = ServiceClient(handle.host, handle.port)
        # One-shot shards so every worker builds its engine.
        result, _ = client.run_sweep(text, shots=shots, seed=warm_seed,
                                     backend="stabilizer", n_processors=6,
                                     shard_shots=1)
        return client, result

    try:
        (client, result), setup, setup_ref = run.timed(
            set_up, time.perf_counter, kernel_each_cpu_s)
    except BaseException:
        if handle is not None:
            handle.close()
        raise
    run.setup_s.append(setup)
    run.setup_ref_s.append(setup_ref)
    digest = histogram_digest(result)
    run.check(digest == warm_ref,
              f"warm-up job digest {digest[:12]} != in-process "
              f"{warm_ref[:12]}")
    return handle, client


def run_service_cycle(run: Run, client, text: str, references: list[str],
                      tracer) -> None:
    """One closed-loop cycle: each job seed once, back to back."""
    workload = run.workload
    busy = client.stats()["busy_s"] if tracer is not None else 0.0
    total_ns = 0
    for first, reference in zip(workload.job_seeds(run.seed), references):
        if tracer is not None:
            tracer.request += 1
            tracer.take()
        try:
            (result, event), latency, job_ref = run.timed(
                lambda: client.run_sweep(
                    text, shots=workload.job_shots, seed=first,
                    backend="stabilizer", n_processors=6),
                time.perf_counter, kernel_each_cpu_s)
        except (ServiceError, OSError) as exc:
            run.check(False, f"job seed {first} failed: {exc}")
            continue
        digest = histogram_digest(result)
        run.check(digest == reference,
                  f"job seed {first}: service digest {digest[:12]} != "
                  f"in-process {reference[:12]}")
        run.same("shards_per_job", event["shards"])
        total_ns += result.total_ns
        if tracer is None:
            run.latencies_s.append(latency)
            run.job_ref_s.append(job_ref)
            if run.rss_mb is None and len(run.latencies_s) >= MIN_JOBS:
                run.rss_mb = peak_rss_mb()
            continue
        run.traced_ref_s.append(job_ref)
        snapshot = tracer.take()["layers"].get("service.merge", {})
        now_busy = client.stats()["busy_s"]
        busy_ms = (now_busy - busy) * 1e3
        busy = now_busy
        run.layers.append({
            "service.server_busy_ms": busy_ms,
            "service.merge_ms": snapshot.get("ns", 0) / 1e6,
            "service.merge_calls": snapshot.get("calls", 0),
            "service.client_ms": latency * 1e3 - busy_ms,
            "service.shards_per_job": event["shards"],
        })
    run.same("cycle_total_ns", total_ns)
    run.sim_ns_per_shot = total_ns / workload.session_shots


def run_service(run: Run, references: list[str], seconds: float,
                tracer) -> None:
    workload = run.workload
    text = shor_program_text()
    warm_seed = workload.seed_base(run.seed) + SEED_STRIDE // 2
    warm_ref = run_digest(workload, warm_seed, 8)
    # Forked workers inherit unflushed stdio buffers; nothing is
    # printed while they live, and the buffers start empty.
    sys.stdout.flush()
    sys.stderr.flush()
    handle = None
    try:
        for index in range(SERVICE_SETUPS):
            handle, client = start_service(run, text, warm_seed, warm_ref)
            if index < SERVICE_SETUPS - 1:
                handle.close()
                handle = None
                reap_children()
        deadline = time.perf_counter() + seconds
        hard_stop = time.perf_counter() + max(3 * seconds, 30.0)
        cycles = 0
        while True:
            traced = tracer is not None and cycles % 2 == 1
            if traced:
                tracer.install()
            try:
                run_service_cycle(run, client, text, references,
                                  tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            cycles += 1
            now = time.perf_counter()
            if now >= hard_stop:
                break
            if now < deadline:
                continue
            if tracer is not None and cycles >= 2:
                break
            if tracer is None and len(run.latencies_s) >= MIN_JOBS:
                break
    finally:
        if handle is not None:
            handle.close()
        reap_children()
    run.notes.append(f"service worker peak RSS "
                     f"{peak_rss_mb(resource.RUSAGE_CHILDREN):.1f} MB")


# -- reporting ----------------------------------------------------------------


def end_to_end(run: Run) -> dict:
    workload = run.workload
    if run.rss_mb is None:
        run.check(False, f"peak memory not read: fewer than {MIN_JOBS} "
                         "jobs ran before the hard stop")
    values = {
        "shots_per_s": rate(workload.job_shots, median(run.job_ref_s)),
        "setup_s": median(run.setup_ref_s),
        "sim_cycles_per_shot": run.sim_ns_per_shot / CLOCK_NS,
        "peak_rss_mb": run.rss_mb or peak_rss_mb(),
    }
    jobs = run.latencies_s
    kernel_ms = 1e3 * median(run.kernel_s)
    run.notes.append(
        f"host speed: reference kernel median {kernel_ms:.3f} ms over "
        f"{len(run.kernel_s)} calls, {1e3 * REFERENCE_S:g} ms on the "
        f"reference host; in host time: "
        f"{rate(workload.job_shots, median(jobs)):.6g} shots/s, set-up "
        f"{median(run.setup_s):.6g} s (medians of {len(jobs)} jobs and "
        f"{len(run.setup_s)} set-ups)")
    run.notes.append(
        f"job latency (host time, not gated): p50 "
        f"{1e3 * percentile(jobs, 50):.3f} ms, p90 "
        f"{1e3 * percentile(jobs, 90):.3f} ms over {len(jobs)} jobs of "
        f"{workload.job_shots} shots ({len(jobs) - rank(90, len(jobs))} "
        "beyond p90)")
    return values


def per_layer(run: Run, metrics: list[dict]) -> dict:
    values = {}
    for name in (metric["name"] for metric in metrics):
        samples = [layer[name] for layer in run.layers if name in layer]
        if name in EXACT_LAYERS:
            for sample in samples:
                run.same(f"layer:{name}", sample)
        values[name] = median(samples)
    shots = run.workload.job_shots
    untraced = rate(shots, median(run.job_ref_s))
    traced = rate(shots, median(run.traced_ref_s))
    values["tracing.untraced_shots_per_s"] = untraced
    values["tracing.traced_shots_per_s"] = traced
    values["tracing.overhead_pct"] = (100.0 * (untraced / traced - 1.0)
                                      if traced else 0.0)
    return values


def compare_with_earlier_runs(run: Run) -> None:
    """Exact counts must equal those of earlier runs of this seed."""
    directory = OUT / "repeat" / source_fingerprint()
    path = directory / (f"{run.workload.name}-seed{run.seed}"
                        f"-trace{int(run.trace)}.json")
    current = json.loads(json.dumps(run.exact, sort_keys=True))
    if path.is_file():
        earlier = json.loads(path.read_text())
        differing = sorted(key for key in set(earlier) | set(current)
                           if earlier.get(key) != current.get(key))
        run.check(not differing, f"{', '.join(differing)} differ from an "
                                 f"earlier run of seed {run.seed}")
    else:
        directory.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(current, indent=1, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(known: {', '.join(WORKLOADS)})")
    run = Run(workload, args.seed, bool(args.trace))
    host = host_metadata()
    if workload.service:
        host["service_workers"] = SERVICE_WORKERS
        host["service_workers_per_cpu"] = SERVICE_WORKERS / host["cpus"]
    golden = load_goldens().get(workload.name, {}).get(str(args.seed))
    tracer = Tracer() if args.trace else None
    if workload.memory_shots and not args.trace:
        memory_session(run)
    references = check_references(run, golden)
    if workload.name == "shor_6core":
        model_comparison(run)
    elif workload.service:
        run.notes.append("simulated time is that of the shor_6core "
                         "program; its run prints the model comparison")
    else:
        run.notes.append("simulated time (sim_cycles_per_shot) is "
                         "unvalidated: no hardware reference exists "
                         "for this workload")
    if workload.service:
        run_service(run, references["session"], args.seconds, tracer)
    else:
        run_in_process(run, references["session"], args.seconds, tracer)
    listed = catalogue(bool(args.trace))
    values = per_layer(run, listed) if args.trace else end_to_end(run)
    compare_with_earlier_runs(run)
    metrics = {metric["name"]: {"value": values[metric["name"]],
                                "unit": metric["unit"]}
               for metric in listed}
    correct = not run.failures
    record = {"workload": workload.name, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "golden": golden is not None, "host": host,
              "metrics": metrics, "exact": run.exact,
              "notes": run.notes, "failures": run.failures,
              "samples": {"setup_s": run.setup_s,
                          "setup_ref_s": run.setup_ref_s,
                          "latency_s": run.latencies_s,
                          "job_ref_s": run.job_ref_s,
                          "traced_job_ref_s": run.traced_ref_s,
                          "kernel_s": run.kernel_s}}
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["id", "parent", "request", "name", "start_ns",
                        "end_ns"], "spans": tracer.spans}))
    print(f"# perfbench {workload.name} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds:g} "
          f"golden={'recorded' if golden else 'none'}")
    print(f"# host {json.dumps(host, sort_keys=True)}")
    for name, metric in metrics.items():
        print(f"{name:<32} {metric['value']:>14.6g} {metric['unit']}")
    if not args.trace:
        print(f"{'mismatch_rate':<32} {len(run.failures)}/{run.attempted}")
    for note in run.notes:
        print(f"# {note}")
    for failure in run.failures:
        print(f"# FAILED: {failure}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
