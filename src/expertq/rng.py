"""Seeded random streams for the simulator.

One 64-bit seed fans out into five named child streams, one per draw
purpose. Keeping arrivals on their own stream means swapping the
scheduler (which consumes admission/routing/selection/service draws)
never perturbs the arrival sample path for a given seed. Reproducibility
is within-implementation: the same seed and config always replay the same
trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

__all__ = ["DRAW_BLOCK_BYTES", "RngStreams", "UniformBuffer", "block_rows"]

_PURPOSES = ("arrivals", "admission", "routing", "selection", "service")
# Bytes of float64 uniforms drawn from a generator at once, by every
# pre-drawn block: a UniformBuffer refill, an arrival block in sim.run and
# a round block of the geometric service check. PCG64 doubles do not depend
# on how the draws are split, so the budget changes memory, never a value.
DRAW_BLOCK_BYTES = 1 << 15


def block_rows(row_bytes: int = 8) -> int:
    """Rows of ``row_bytes`` uniform bytes that fit in ``DRAW_BLOCK_BYTES``,
    at least one; read at call time, so patching the budget reaches every
    block."""
    return max(1, DRAW_BLOCK_BYTES // row_bytes)


class UniformBuffer:
    """Block-buffered scalar uniforms from one generator.

    ``next()`` pops Python floats from a chain of refills of
    ``block_rows()`` uniforms, each drawn when the previous one is spent.
    The consumption order is exactly the generator's native sequence, so
    buffering does not change any trajectory.
    """

    __slots__ = ("next",)

    def __init__(self, gen: np.random.Generator) -> None:
        # Endless (a list is never None), and holding the generator, not the
        # buffer: a reference back would make a cycle that outlives the run.
        refills = iter(lambda: gen.random(block_rows()).tolist(), None)
        self.next = chain.from_iterable(refills).__next__


@dataclass
class RngStreams:
    """The five per-purpose generators driving one simulation run."""

    arrivals: np.random.Generator
    admission: UniformBuffer
    routing: UniformBuffer
    selection: UniformBuffer
    service: UniformBuffer

    @classmethod
    def from_seed(cls, seed: int) -> "RngStreams":
        children = np.random.SeedSequence(seed).spawn(len(_PURPOSES))
        gens = {
            name: np.random.Generator(np.random.PCG64(child))
            for name, child in zip(_PURPOSES, children)
        }
        return cls(
            arrivals=gens["arrivals"],
            admission=UniformBuffer(gens["admission"]),
            routing=UniformBuffer(gens["routing"]),
            selection=UniformBuffer(gens["selection"]),
            service=UniformBuffer(gens["service"]),
        )
