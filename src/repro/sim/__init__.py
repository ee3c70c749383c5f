"""Discrete-event simulation substrate used by the whole control stack."""

from repro.sim.kernel import SimKernel, SimulationError

__all__ = ["SimKernel", "SimulationError"]
