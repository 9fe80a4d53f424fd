"""Compactly supported smooth bump windows and their Mellin transforms
(adaptive quadrature, memoized per window and s).

The window is real, so its Mellin transform is conjugate-symmetric:
W~(conj s) = conj W~(s).  `SmoothWeight.mellin` integrates only for
Im s >= 0 and conjugates the cached value below the real axis; the two
quadratures for -tau are exact negations of those for +tau, so this gives
the same floats as integrating there.

QUADPACK's QAGS evaluates only at the 21-point Kronrod nodes of bisections
of (x0, x1), so all quadratures of one window share few nodes (1,281
distinct x in 13,783 quadratures of `nonsplit --Ymax 1e5`); W(x) and log x
come from a per-window table of them, with the same floats."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from scipy.integrate import quad

from .errors import HypothesisViolated


class _NodeTable(dict):
    """x -> (W(x), log x) for one window, an entry made at its first lookup."""

    def __init__(self, W: SmoothWeight):
        super().__init__()
        self.W = W

    def __missing__(self, x: float) -> tuple[float, float]:
        self[x] = entry = (self.W(x), math.log(x))
        return entry


@dataclass(frozen=True)
class SmoothWeight:
    """W(x) = exp(1 - 1/(1-u^2)) on (x0, x1), u the affine map to (-1, 1);
    zero outside, all derivatives vanish at the endpoints, max value 1."""

    x0: float = 1.0
    x1: float = 2.0

    def __post_init__(self):
        if not self.x1 > self.x0 > 0:
            raise HypothesisViolated(f"need x1 > x0 > 0, got ({self.x0}, {self.x1})")

    def __call__(self, x: float) -> float:
        u = 2.0 * (x - self.x0) / (self.x1 - self.x0) - 1.0
        if abs(u) >= 1.0:
            return 0.0
        return math.exp(1.0 - 1.0 / (1.0 - u * u))

    @property
    @functools.cache
    def sharpness(self) -> float:
        """P with sup|W'| of order P: numerical sup of |W'| over the support,
        computed once per window."""
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
    def _nodes(self) -> _NodeTable:
        return _NodeTable(self)

    @functools.cache
    def mellin(self, s: complex) -> complex:
        """Integral of W(x) x^{s-1} dx over the support.

        The integrands are W(x) x^{sigma-1} cos(tau log x) and the same with
        sin, s = sigma + i tau: for x > 0 these are the floats of the real and
        imaginary parts of the complex power x^{s-1}.  A real s needs only
        the first."""
        s = complex(s)
        if s.imag < 0.0:
            return self.mellin(s.conjugate()).conjugate()
        sigma1, tau = s.real - 1.0, s.imag
        nodes = self._nodes()

        def part(trig) -> float:
            def integrand(x: float) -> float:
                w, logx = nodes[x]
                return w * (x**sigma1 * trig(0.0 + tau * logx))

            return quad(integrand, self.x0, self.x1, limit=200)[0]

        return complex(part(math.cos), part(math.sin) if tau else 0.0)
