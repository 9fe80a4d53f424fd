"""Compactly supported smooth bump windows and their Mellin transforms.

The paper's two windows are this module's constants: `PHI` of the moment,
variance, Poisson and diagonal sums, and `W_NONSPLIT` of the non-split
sums, whose `sharpness` is the P of their envelope.  No function takes one.

Two Mellin values are read.  `SmoothWeight.mellin_zero`, W~(0) = the
integral of W(x)/x, is a trapezoid sum on 1,024 intervals: the integrand
and all its derivatives vanish at both ends, so the rule converges faster
than any power of the step (2.4e-15 relative to QUADPACK on `PHI`).
`SmoothWeight.mellin` serves the line Re s = 1 of the non-split contours,
and only for `W_NONSPLIT`: it reads W~(1 + i tau) from a table shipped with
the package, `_MELLIN_TABLE`, loaded at its first call.  The table holds
every tau >= 0 node of both contour grids (steps 0.1 and 0.2, each built
by repeated addition from 0) up to the desk bound Y = 10^9, where
T = 899.5: 13,486 rows of (tau, Re, Im), QUADPACK's QAGS floats bit for bit
as tests/weights_oracle.py generates and checks them.

The window is real, so its Mellin transform is conjugate-symmetric:
W~(conj s) = conj W~(s).  The table holds tau >= 0, and a node below the
real axis reads the conjugate of its |tau|; a window or a tau the table
does not hold is refused, never integrated."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import HypothesisViolated


@dataclass(frozen=True)
class SmoothWeight:
    """W(x) = exp(1 - 1/(1-u^2)) on (x0, x1), u the affine map to (-1, 1);
    zero outside, all derivatives vanish at the endpoints, max value 1."""

    x0: float
    x1: float

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

    @property
    @functools.cache
    def mellin_zero(self) -> float:
        """W~(0), the integral of W(x)/x over the support: the trapezoid rule
        on 1,024 intervals, computed once per window (its end values are 0)."""
        h = (self.x1 - self.x0) / 1024
        return h * math.fsum(self(x) / x for x in (self.x0 + j * h for j in range(1, 1024)))

    def mellin(self, s):
        """Integral of W(x) x^{s-1} dx over the support, on the line Re s = 1,
        for a scalar s (a complex) or an array of them (an array of the
        same shape), read from `_MELLIN_TABLE` by the exact value of
        |Im s|.  Another real part, another window than `W_NONSPLIT`, or an
        |Im s| that is not a node of the contour grids raises
        HypothesisViolated."""
        sv = np.asarray(s, dtype=complex)
        off = sv.real != 1.0
        if off.any():
            raise HypothesisViolated(
                f"mellin is taken on Re s = 1 only, got s = {complex(sv[off].flat[0])}"
            )
        if self != W_NONSPLIT:
            raise HypothesisViolated(
                f"mellin is tabulated for W_NONSPLIT only, got ({self.x0}, {self.x1})"
            )
        nodes, values = _mellin_table()
        taus = sv.imag.ravel()
        size = np.abs(taus)
        at = np.minimum(np.searchsorted(nodes, size), len(nodes) - 1)
        missing = nodes[at] != size
        if missing.any():
            raise HypothesisViolated(
                f"tau = {float(taus[missing][0])!r} is not a contour node of the Mellin "
                f"table (steps 0.1 and 0.2 to {nodes[-1]:g})"
            )
        out = np.where(taus < 0.0, values[at].conjugate(), values[at]).reshape(sv.shape)
        return complex(out) if out.ndim == 0 else out


# rows (tau, Re, Im), written by `python tests/weights_oracle.py --write-mellin-table`
_MELLIN_TABLE = Path(__file__).with_name("w_nonsplit_mellin.npy")


@functools.cache
def _mellin_table() -> tuple[np.ndarray, np.ndarray]:
    """The table's ascending tau and W~(1 + i tau), read once per process
    (read-only)."""
    table = np.load(_MELLIN_TABLE, allow_pickle=False)
    tau, values = table[:, 0].copy(), np.ascontiguousarray(table[:, 1:]).view(complex)[:, 0]
    tau.flags.writeable = values.flags.writeable = False
    return tau, values


PHI = SmoothWeight(0.5, 2.0)  # Phi of the moment and variance sums, on (1/2, 2)
W_NONSPLIT = SmoothWeight(1.0, 2.0)  # W of the non-split sums, on (1, 2)
