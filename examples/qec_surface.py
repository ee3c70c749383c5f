#!/usr/bin/env python
"""Surface-code memory end to end through the shot-sweep service.

Builds the distance-3 rotated surface code with the dynamic-circuit
SDK (17 qubits, MRCE-reset syndrome ancillas), submits it to a real
2-worker sharded service as ``to_asm()`` text at the standard noise
point on the service's default shard plan (one shard per worker up to
``workers x 256`` shots), decodes the merged histogram offline with
the single-X-error lookup decoder, and asserts the logical error
count equals the seeded golden value — the same number
``tests/benchlib/test_surface.py`` pins for an in-process run.  A
drifting count means the outcome stream changed somewhere in the SDK
-> text -> service -> shard -> merge pipeline, which is exactly what
this smoke test exists to catch.

Run with::

    python examples/qec_surface.py [--workers 2] [--shots 100]
"""

from __future__ import annotations

import argparse
import json

from repro.benchlib.surface import (build_surface_memory_program,
                                    decode_logical_z, surface_layout)
from repro.service.client import ServiceClient
from repro.service.server import ServiceHandle

DISTANCE = 3
ROUNDS = 2

#: surface_noise_model() as a wire spec (protocol.NOISE_CHANNELS).
NOISE_SPEC = {"pauli": {"px": 6e-3},
              "readout": {"p0_given_1": 0.01, "p1_given_0": 0.005}}

#: Seeded golden logical error count at 100 shots — must match
#: GOLDEN_D3_STAB_100 in tests/benchlib/test_surface.py.
GOLDEN_ERRORS_100 = 7


def decode_histogram(layout, result) -> int:
    """Logical error count of a merged service histogram."""
    position = {qubit: index for index, qubit
                in enumerate(result.measured_qubits)}
    errors = 0
    for key, count in result.counts.items():
        bits = {qubit: int(key[position[qubit]])
                for qubit in range(layout.n_data)}
        errors += count * decode_logical_z(layout, bits)
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--shots", type=int, default=100)
    parser.add_argument("--stats-out", default=None,
                        help="write the final /stats snapshot here")
    args = parser.parse_args()

    layout = surface_layout(DISTANCE)
    program = build_surface_memory_program(DISTANCE, rounds=ROUNDS)
    text = program.to_asm()
    print(f"surface d={DISTANCE}: {layout.n_qubits} qubits, "
          f"{len(layout.x_stabilizers) + len(layout.z_stabilizers)} "
          f"checks x {ROUNDS} rounds -> "
          f"{len(program)} instructions as text")

    with ServiceHandle.start(n_workers=args.workers) as handle:
        client = ServiceClient(handle.host, handle.port)
        print(f"service up on {handle.host}:{handle.port} "
              f"({args.workers} workers)")
        result, info = client.run_sweep(
            text, shots=args.shots, backend="stabilizer",
            noise=NOISE_SPEC)
        print(f"sweep: {args.shots} shots in {info['shards']} shards, "
              f"{len(result.counts)} distinct outcomes, "
              f"{result.total_ns} ns total")
        # Up to one replay cohort (256 stabilizer shots) per worker,
        # the default plan gives each worker one shard of
        # ceil(shots / workers): 2 shards of 50 for 100 shots on 2.
        if args.shots <= args.workers * 256:
            width = -(-args.shots // args.workers)
            assert info["shards"] == -(-args.shots // width), \
                f"default plan ran {info['shards']} shards, not " \
                f"one of {width} shots per worker"

        errors = decode_histogram(layout, result)
        rate = errors / args.shots
        print(f"decoded logical error rate: {errors}/{args.shots} "
              f"= {rate:.3f}")
        if args.shots == 100:
            assert errors == GOLDEN_ERRORS_100, \
                f"golden drift: {errors} != {GOLDEN_ERRORS_100}"
            print(f"matches the seeded golden "
                  f"({GOLDEN_ERRORS_100}/100): OK")

        if args.stats_out:
            with open(args.stats_out, "w") as fh:
                json.dump(client.stats(), fh, indent=2)
            print(f"wrote {args.stats_out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
