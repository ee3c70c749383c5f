"""Command-line interface: ``python -m repro <command>``.

Commands
========

``run FILE``
    Execute a timed-QASM assembly file (``.qasm`` files are treated as
    OpenQASM 2.0 circuits and compiled first) on a QuAPE system and
    print the issue trace, the ASCII timeline and the TR metrics.
    ``--qpu`` selects the substrate (``prng`` readouts, or a functional
    simulation on the ``statevector``/``stabilizer`` backend);
    ``--shots N`` switches to compile-once shot execution and prints
    the outcome histogram instead of the single-run trace.

``asm FILE``
    Assemble a timed-QASM file and print the listing, the binary word
    count and the block information table.

``bench [NAME]``
    List the evaluation benchmarks, or compile one and report its
    schedule profile and scalar/superscalar TR.

``serve``
    Run the long-running shot-sweep job service
    (:mod:`repro.service`): an asyncio newline-JSON front-end sharding
    sweeps across a pool of worker processes with bit-identical
    merging, job dedup, streaming partial histograms, backpressure and
    crash retry.  See ``docs/service.md``.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.analysis import (format_table, lateness_summary,
                            render_timeline)
from repro.circuit.openqasm import from_openqasm
from repro.compiler import compile_circuit
from repro.isa import (BlockInfoTable, DependencyMode, Program,
                       encode_program, parse_asm)
from repro.qcp import QuAPESystem, scalar_config, superscalar_config


def _load_program(path: pathlib.Path) -> Program:
    text = path.read_text()
    if path.suffix == ".qasm" or text.lstrip().upper().startswith(
            "OPENQASM"):
        circuit = from_openqasm(text, name=path.stem)
        return compile_circuit(circuit, name=path.stem).program
    return parse_asm(text, name=path.stem)


def _config_from_args(args: argparse.Namespace):
    if args.width > 1:
        config = superscalar_config(args.width)
    else:
        config = scalar_config(
            fast_context_switch=args.fast_context_switch)
    if getattr(args, "no_trace_cache", False):
        config = config.with_(trace_cache=False)
    max_nodes = getattr(args, "trace_cache_max_nodes", None)
    if max_nodes is not None:
        config = config.with_(trace_cache_max_nodes=max_nodes)
    profile_path = getattr(args, "device_profile", None)
    if profile_path is not None:
        config = config.with_(device_profile=profile_path)
    return config


def command_run(args: argparse.Namespace) -> int:
    program = _load_program(pathlib.Path(args.file))
    if args.shots:
        return _run_shots(program, args)
    config = _config_from_args(args)
    if args.qpu == "prng":
        _warn_prng_profile(args)
        config = config.with_(device_profile=None)
    system = QuAPESystem(program=program,
                         config=config,
                         n_processors=args.processors,
                         qpu_backend=None if args.qpu == "prng"
                         else args.qpu)
    result = system.run()
    system.kernel.run()
    print(f"program: {program.name} ({len(program)} instructions, "
          f"{len(program.blocks)} blocks)")
    print(f"executed in {result.total_ns} ns "
          f"({result.total_cycles} cycles at 100 MHz) on "
          f"{args.processors} processor(s), width {args.width}")
    if args.qpu == "auto":
        print(f"substrate: auto->{system.qpu.backend_name}")
    print(f"timing: {lateness_summary(result.trace)}")
    report = result.tr_report()
    if report.per_step:
        print(f"TR: average {report.average:.2f}, maximum "
              f"{report.maximum:.2f}, deadline met: "
              f"{report.meets_deadline}")
    print("\ntimeline (10 ns per column):")
    print(render_timeline(result.trace))
    if system.results.history:
        print("\nmeasurement results:")
        for delivery in system.results.history:
            print(f"  t={delivery.time_ns:6d} ns  q{delivery.qubit} "
                  f"-> {delivery.value}")
    return 0


_CACHE_FLAGS = (
    ("no_trace_cache", "--no-trace-cache"),
    ("trace_cache_max_nodes", "--trace-cache-max-nodes"),
)


def _warn_uncacheable_flags(args: argparse.Namespace) -> None:
    given = [flag for attr, flag in _CACHE_FLAGS
             if getattr(args, attr, None) not in (None, False)]
    if given:
        print(f"warning: {', '.join(given)} ignored: the prng substrate "
              f"is uncacheable (per-shot qpu_factory disables the trace "
              f"cache); use --qpu statevector or --qpu stabilizer",
              file=sys.stderr)


def _warn_prng_profile(args: argparse.Namespace) -> None:
    if getattr(args, "device_profile", None) is not None:
        print("warning: --device-profile ignored: the prng substrate "
              "samples readouts without a noise model; use --qpu "
              "statevector, stabilizer or auto", file=sys.stderr)


def _run_shots(program, args: argparse.Namespace) -> int:
    from repro.qcp.shots import ShotEngine

    qpu_factory = None
    config = _config_from_args(args)
    if args.qpu == "prng":
        from repro.qcp.system import infer_qubit_count
        from repro.qpu import PRNGQPU, PRNGReadout

        _warn_uncacheable_flags(args)
        _warn_prng_profile(args)
        config = config.with_(device_profile=None)
        qubits = infer_qubit_count(program)

        def qpu_factory(seed: int):
            return PRNGQPU(qubits, PRNGReadout(seed=seed))

    engine = ShotEngine(program, config=config,
                        n_processors=args.processors,
                        backend=None if args.qpu == "prng" else args.qpu,
                        qpu_factory=qpu_factory)
    result = engine.run(args.shots)
    print(f"program: {program.name} ({len(program)} instructions, "
          f"{len(program.blocks)} blocks)")
    substrate = (args.qpu if args.qpu != "auto"
                 else f"auto->{engine.backend}")
    print(f"{result.shots} shots on the {substrate} substrate, "
          f"{engine.qubit_count} qubits, {result.total_ns} ns total")
    if engine.routing is not None:
        print(f"routing: {engine.routing.reason}")
    if engine.profile is not None:
        profile = engine.profile
        print(f"device profile: {profile.name or '<unnamed>'} "
              f"({len(profile.qubits)} calibrated qubit(s), "
              f"{len(profile.couplings)} coupling(s), "
              f"fingerprint {profile.fingerprint()[:12]})")
    cache = engine.trace_cache
    if cache is not None:
        line = (f"trace cache: {cache.hits} replayed, {cache.misses} "
                f"simulated ({cache.resumes} resumed at the divergence "
                f"frontier), {cache.nodes} trie nodes")
        if cache.evictions:
            line += f", {cache.evictions} evicted"
        if cache.folds:
            line += f", {cache.folds} MRCE decisions folded"
        if cache.restarts or cache.rejoins:
            line += (f", {cache.restarts} restarts from a quiet-decision "
                     f"snapshot, {cache.rejoins} rejoins")
        print(line)
        if cache.batched_shots:
            line = (f"batched replay: {cache.batched_shots} shots in "
                    f"lockstep cohorts, {cache.wavefront_splits} "
                    f"wavefront splits")
            if cache.serial_fallbacks:
                line += (f", {cache.serial_fallbacks} serial "
                         f"fallbacks ({cache.handoffs} resumed where "
                         f"they left, {cache.rewalks} replayed from the "
                         f"root)")
            print(line)
    if result.measured_qubits:
        print(f"measured qubits: "
              f"{' '.join(f'q{q}' for q in result.measured_qubits)}")
    else:
        print("measured qubits: none (program never measured)")
    for bits, count in sorted(result.counts.items(),
                              key=lambda item: -item[1]):
        bar = "#" * round(40 * count / result.shots)
        label = bits if bits else "(empty outcome)"
        print(f"  {label}  {count:6d}  {bar}")
    return 0


def command_asm(args: argparse.Namespace) -> int:
    program = _load_program(pathlib.Path(args.file))
    print(program.listing())
    words = encode_program(program.instructions)
    print(f"\n{len(program)} instructions, {len(words)} words "
          f"({4 * len(words)} bytes)")
    table = BlockInfoTable(program, mode=DependencyMode.PRIORITY)
    rows = [[block.name, block.start, block.end - 1, block.priority,
             ",".join(block.deps) or "-"]
            for block in program.blocks]
    print("\n" + format_table(
        ["block", "pc start", "pc end", "priority", "deps"], rows,
        title=f"block information table ({len(table)} entries)"))
    return 0


def command_bench(args: argparse.Namespace) -> int:
    from repro.benchlib import SUITE, get_benchmark
    from repro.circuit import schedule_asap

    if not args.name:
        rows = []
        for spec in SUITE:
            circuit = spec.circuit()
            schedule = schedule_asap(circuit)
            rows.append([spec.name, spec.source, circuit.n_qubits,
                         circuit.gate_count,
                         round(schedule.mean_parallelism, 2)])
        print(format_table(
            ["benchmark", "source", "qubits", "gates",
             "mean QICES"], rows, title="evaluation suite"))
        return 0
    spec = get_benchmark(args.name)
    compiled = compile_circuit(spec.circuit())
    rows = []
    for label, config in (("scalar", scalar_config()),
                          ("8-way superscalar", superscalar_config(8))):
        system = QuAPESystem(program=compiled.program, config=config)
        report = system.run().tr_report()
        rows.append([label, round(report.average, 2),
                     round(report.maximum, 2),
                     "yes" if report.meets_deadline else "no"])
    print(format_table(
        ["design", "avg TR", "max TR", "TR <= 1"], rows,
        title=f"{spec.name} ({spec.source})"))
    return 0


def command_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.server import serve

    print(f"shot-sweep service on {args.host}:{args.port} "
          f"({args.workers} worker(s), queue size {args.queue_size}, "
          f"max retries {args.max_retries})", file=sys.stderr)
    try:
        asyncio.run(serve(host=args.host, port=args.port,
                          n_workers=args.workers,
                          queue_size=args.queue_size,
                          max_retries=args.max_retries,
                          engine_lru_capacity=args.engine_cache))
    except KeyboardInterrupt:
        pass
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="QuAPE quantum control microarchitecture tools")
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser(
        "run", help="execute a timed-QASM or OpenQASM file")
    run_parser.add_argument("file")
    run_parser.add_argument("--processors", type=int, default=1)
    run_parser.add_argument("--width", type=int, default=8,
                            help="superscalar width (1 = scalar)")
    run_parser.add_argument("--fast-context-switch", action="store_true")
    run_parser.add_argument(
        "--qpu", choices=("prng", "statevector", "stabilizer", "auto"),
        default="prng",
        help="quantum substrate: PRNG readouts (paper's FPGA "
             "methodology), dense statevector, Clifford stabilizer "
             "tableau, or auto (stabilizer for Clifford-only "
             "programs, statevector otherwise)")
    run_parser.add_argument(
        "--device-profile", metavar="JSON", default=None,
        help="calibrated device-profile JSON: per-qubit T1/T2 and "
             "readout fidelities, per-gate-per-qubit durations, "
             "coupling-pair ZZ strengths (see docs/device_profiles.md); "
             "composed over the substrate's noise model and folded "
             "into the engine identity")
    run_parser.add_argument(
        "--shots", type=int, default=0,
        help="run N compile-once shots and print the histogram "
             "(0 = single traced run)")
    run_parser.add_argument(
        "--no-trace-cache", action="store_true",
        help="force every shot through the cycle-accurate simulation "
             "instead of replaying cached traces (results are "
             "bit-identical either way)")
    run_parser.add_argument(
        "--trace-cache-max-nodes", type=int, default=None, metavar="N",
        help="LRU bound on trace-cache trie nodes: evict the least-"
             "recently-used decision paths once the trie exceeds N "
             "nodes (default: unbounded; useful for high-path-entropy "
             "workloads such as fair-coin RUS loops)")
    run_parser.set_defaults(entry=command_run)

    asm_parser = commands.add_parser(
        "asm", help="assemble and inspect a program")
    asm_parser.add_argument("file")
    asm_parser.set_defaults(entry=command_asm)

    bench_parser = commands.add_parser(
        "bench", help="list or profile the evaluation benchmarks")
    bench_parser.add_argument("name", nargs="?")
    bench_parser.set_defaults(entry=command_bench)

    serve_parser = commands.add_parser(
        "serve", help="run the shot-sweep job service")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=7781)
    serve_parser.add_argument(
        "--workers", type=int, default=2,
        help="worker processes, each owning compile-once shot engines")
    serve_parser.add_argument(
        "--queue-size", type=int, default=16,
        help="bounded backpressure: submits beyond this many active "
             "jobs are rejected")
    serve_parser.add_argument(
        "--max-retries", type=int, default=2,
        help="pool rebuilds tolerated per job after worker crashes")
    serve_parser.add_argument(
        "--engine-cache", type=int, default=None, metavar="N",
        help="per-worker engine LRU capacity: each worker process "
             "keeps up to N compiled shot engines alive (default 8)")
    serve_parser.set_defaults(entry=command_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.entry(args)


if __name__ == "__main__":
    sys.exit(main())
