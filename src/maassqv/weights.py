"""Compactly supported smooth bump windows and their Mellin transforms
(adaptive quadrature, memoized per window and s)."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from scipy.integrate import quad


@dataclass(frozen=True)
class SmoothWeight:
    """W(x) = exp(1 - 1/(1-u^2)) on (x0, x1), u the affine map to (-1, 1);
    zero outside, all derivatives vanish at the endpoints, max value 1."""

    x0: float = 1.0
    x1: float = 2.0

    def __post_init__(self):
        assert self.x1 > self.x0 > 0

    def __call__(self, x: float) -> float:
        u = 2.0 * (x - self.x0) / (self.x1 - self.x0) - 1.0
        if abs(u) >= 1.0:
            return 0.0
        return math.exp(1.0 - 1.0 / (1.0 - u * u))

    @property
    def sharpness(self) -> float:
        """P with sup|W'| of order P: numerical sup of |W'| over the support."""
        h = (self.x1 - self.x0) / 4096
        best = 0.0
        prev = self(self.x0)
        x = self.x0
        for _ in range(4096):
            x += h
            cur = self(x)
            best = max(best, abs(cur - prev) / h)
            prev = cur
        return best

    @functools.cache
    def mellin(self, s: complex) -> complex:
        """Integral of W(x) x^{s-1} dx over the support."""
        re = quad(lambda x: self(x) * (x ** (s - 1)).real, self.x0, self.x1,
                  limit=200)[0]
        im = quad(lambda x: self(x) * (x ** (s - 1)).imag, self.x0, self.x1,
                  limit=200)[0]
        return complex(re, im)
