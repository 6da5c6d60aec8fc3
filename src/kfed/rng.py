"""Deterministic random streams on a counter-based bit generator.

Every random draw in this package comes from a Philox bit stream keyed by
explicit integers, with the float transforms done here (53-bit uniforms,
Box-Muller normals). That keeps sampled data bit-identical run to run and
independent of the platform's default RNG state or library version quirks
in higher-level distributions.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Philox, SeedSequence

_INV_TWO53 = 1.0 / float(2**53)


class Stream:
    """Uniform / normal / integer draws from a keyed Philox stream.

    Keys are arbitrary integer tuples; disjoint keys give statistically
    independent streams (SeedSequence does the mixing).
    """

    def __init__(self, *key: int):
        self._bits = Philox(SeedSequence([int(part) for part in key]))

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1) with 53-bit resolution."""
        raw = self._bits.random_raw(n)
        return (raw >> 11) * _INV_TWO53

    def normals(self, shape) -> np.ndarray:
        """Standard normals via Box-Muller on the uniform stream."""
        n = int(np.prod(shape))
        half = (n + 1) // 2
        u1 = self.uniforms(half)
        u2 = self.uniforms(half)
        # 1 - u1 lies in (0, 1], so the log is finite.
        radius = np.sqrt(-2.0 * np.log1p(-u1))
        angle = 2.0 * np.pi * u2
        out = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
        return out[:n].reshape(shape)

    def integers(self, n: int, bound: int) -> np.ndarray:
        """n integers uniform on [0, bound). Bias is O(2**-53)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        vals = (self.uniforms(n) * bound).astype(np.int64)
        return np.minimum(vals, bound - 1)
