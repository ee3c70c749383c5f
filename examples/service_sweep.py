#!/usr/bin/env python
"""Shot-sweep service end to end: serve, submit, stream, verify.

Starts the service in-process (the same ``serve()`` the ``repro
serve`` CLI runs), submits a sweep of a branchy feedback program over
the newline-JSON socket protocol, streams partial histograms as shards
complete, and asserts the merged result is **bit-identical** to a
serial :func:`repro.qcp.run_shots` of the same sweep — the property
the whole service design rests on.  It then submits the sweep again
with the service's default shard plan, which cuts it into whole
replay cohorts (one shard per worker for a sweep of up to ``workers
x 256`` stabilizer shots), and asserts the plan and bit-identity
again.  Finishes with the ``/stats`` snapshot (written to
``service_stats.json`` when ``--stats-out`` is given), which CI
uploads as an artifact.

Run with::

    python examples/service_sweep.py [--workers 2] [--shots 96]
"""

from __future__ import annotations

import argparse
import json

from repro.qcp import run_shots
from repro.service.client import ServiceClient
from repro.service.protocol import program_from_text
from repro.service.server import ServiceHandle

# The q0 readout steers a conditional X on q1: shots take different
# control paths, so shards see different outcome dictionaries — the
# interesting case for the commutative histogram merge.
PROGRAM = """
.block main prio=0
    qop 0, h, q0
    qmeas 2, q0
    fmr r1, q0
    beq r1, r0, skip
    qop 2, x, q1
    qmeas 2, q1
skip:
    qop 0, h, q2
    qmeas 2, q2
    qmeas 2, q0
    halt
.endblock
"""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--shots", type=int, default=96)
    parser.add_argument("--stats-out", default=None,
                        help="write the final /stats snapshot here")
    args = parser.parse_args()

    with ServiceHandle.start(n_workers=args.workers) as handle:
        client = ServiceClient(handle.host, handle.port)
        print(f"service up on {handle.host}:{handle.port} "
              f"({args.workers} workers); "
              f"ping -> {client.ping()['event']}")

        partials = []

        def on_partial(event):
            partials.append(event["shots_done"])
            print(f"  partial: {event['shots_done']}/{event['shots']} "
                  f"shots, {event['shards_done']}/{event['shards']} "
                  f"shards")

        result, info = client.run_sweep(
            PROGRAM, shots=args.shots, backend="stabilizer",
            shard_shots=max(1, args.shots // (4 * args.workers)),
            on_partial=on_partial)
        print(f"result: {dict(result.counts)} in {result.total_ns} ns "
              f"({info['shards']} shards, {info['retries']} retries)")

        serial = run_shots(program_from_text(PROGRAM),
                           shots=args.shots, backend="stabilizer")
        assert result.counts == serial.counts, \
            f"service {result.counts} != serial {serial.counts}"
        assert result.total_ns == serial.total_ns
        assert result.measured_qubits == serial.measured_qubits
        # A streaming client must see partials, the last covering
        # the whole sweep, before its result.
        assert partials, "no partial histogram was streamed"
        assert partials[-1] == args.shots, \
            f"last partial covers {partials[-1]} of {args.shots} shots"
        print(f"bit-identical to serial run_shots: OK "
              f"({len(partials)} partial updates streamed)")

        # Up to one replay cohort (256 stabilizer shots) per worker,
        # the default plan gives each worker one shard of
        # ceil(shots / workers): 2 shards of 48 for 96 shots on 2.
        default, info = client.run_sweep(PROGRAM, shots=args.shots,
                                         backend="stabilizer")
        print(f"default plan: {info['shards']} shards on "
              f"{args.workers} workers")
        if args.shots <= args.workers * 256:
            width = -(-args.shots // args.workers)
            assert info["shards"] == -(-args.shots // width), \
                f"default plan ran {info['shards']} shards, not " \
                f"one of {width} shots per worker"
        assert default.counts == serial.counts
        assert default.total_ns == serial.total_ns
        assert default.measured_qubits == serial.measured_qubits

        stats = client.stats()
        print(f"stats: {stats['jobs']} | {stats['shots_done']} shots "
              f"at {stats['shots_per_s']} shots/s across "
              f"{len(stats['worker_cache'])} worker(s)")
        if args.stats_out:
            with open(args.stats_out, "w") as fh:
                json.dump(stats, fh, indent=2)
            print(f"wrote {args.stats_out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
