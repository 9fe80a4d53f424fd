"""Compactly supported smooth bump windows and their Mellin transforms.

The paper's two windows are this module's constants: `PHI` of the moment,
variance, Poisson and diagonal sums, and `W_NONSPLIT` of the non-split
sums, whose `sharpness` is the P of their envelope.  No function takes one.

Two Mellin values are read.  `SmoothWeight.mellin_zero`, W~(0) = the
integral of W(x)/x, is a trapezoid sum on 1,024 intervals: the integrand
and all its derivatives vanish at both ends, so the rule converges faster
than any power of the step (2.4e-15 relative to QUADPACK on `PHI`).
`SmoothWeight.mellin` serves the line Re s = 1 of the non-split contours:
the integrals of W(x) cos(tau log x) and W(x) sin(tau log x) by QUADPACK's
QAGS, all tau of one call at once in `quadpack.qags` (imported there and
nowhere else in the package, so only those contours load it).  That port
gives QUADPACK's floats bit for bit by two arithmetic rules: every sum
accumulated term by term in QUADPACK's order, and the power of its error
estimate taken by Python's `**`.  W(x) and log x are `math`'s floats at
each Kronrod node, and cos and sin numpy's; tests/test_weights.py checks
that these give the scalar `math` route's floats bit for bit.

The window is real, so its Mellin transform is conjugate-symmetric:
W~(conj s) = conj W~(s).  `SmoothWeight.mellin` integrates each distinct
|tau| of a call once, for Im s >= 0, and conjugates below the real axis;
the two quadratures for -tau are exact negations of those for +tau, so
this gives the same floats as integrating there.  A window keeps no
values between calls: the non-split reduction check asks once per form
for the nodes of its higher contour, and the lower one reads a prefix."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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
        same shape).

        The integrands are W(x) cos(tau log x) and W(x) sin(tau log x),
        s = 1 + i tau: for x > 0 these are the floats of the real and
        imaginary parts of the complex power x^{i tau}.  A real s needs only
        the first.  Another real part raises HypothesisViolated."""
        sv = np.asarray(s, dtype=complex)
        off = sv.real != 1.0
        if off.any():
            raise HypothesisViolated(
                f"mellin is taken on Re s = 1 only, got s = {complex(sv[off].flat[0])}"
            )
        taus = sv.imag.ravel()
        from .quadpack import kronrod_nodes, qags

        # one cosine problem per distinct |tau|, then one sine problem per |tau| > 0
        cosines = sorted({abs(t) for t in taus.tolist()})
        sines = [t for t in cosines if t]
        tau = np.array(cosines + sines)
        slot: dict[complex, int] = {}  # interval lo + i hi -> row of w and logx
        w = logx = np.empty((0, 21))

        def integrand(rows: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
            nonlocal w, logx
            keys, inverse = np.unique(lo + 1j * hi, return_inverse=True)
            keys = keys.tolist()
            fresh = [k for k in keys if k not in slot]
            if fresh:
                xs = kronrod_nodes(np.real(fresh), np.imag(fresh)).tolist()
                slot.update(zip(fresh, range(len(slot), len(slot) + len(fresh))))
                w = np.vstack([w, [[self(x) for x in row] for row in xs]])
                logx = np.vstack([logx, [[math.log(x) for x in row] for row in xs]])
            at = np.array([slot[k] for k in keys])[inverse]
            theta = tau[rows, None] * logx[at]
            cos = (rows < len(cosines))[:, None]
            trig = np.cos(theta, where=cos, out=np.empty_like(theta))
            np.sin(theta, where=~cos, out=trig)
            return w[at] * trig

        result = qags(integrand, self.x0, self.x1, len(tau))[0].tolist()
        im = dict(zip(sines, result[len(cosines) :]))
        table = {t: complex(re, im.get(t, 0.0)) for t, re in zip(cosines, result)}
        values = np.array([table[abs(t)] for t in taus.tolist()], dtype=complex)
        values = np.where(taus < 0.0, values.conjugate(), values).reshape(sv.shape)
        return complex(values) if values.ndim == 0 else values


PHI = SmoothWeight(0.5, 2.0)  # Phi of the moment and variance sums, on (1/2, 2)
W_NONSPLIT = SmoothWeight(1.0, 2.0)  # W of the non-split sums, on (1, 2)
