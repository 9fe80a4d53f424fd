"""Reference route of maassqv.weights that only the tests use.

`mellin` is the Mellin transform of a `SmoothWeight` by two adaptive
quadratures of W(x) times the real and the imaginary part of the complex
power x^{s-1}, at every s; the package integrates only for Im s >= 0, with
the real integrands written out, and conjugates below the real axis.
"""

from __future__ import annotations

from scipy.integrate import quad

from maassqv.weights import SmoothWeight


def mellin(W: SmoothWeight, s: complex) -> complex:
    """Integral of W(x) x^{s-1} dx over the support."""
    re = quad(lambda x: W(x) * (x ** (s - 1)).real, W.x0, W.x1, limit=200)[0]
    im = quad(lambda x: W(x) * (x ** (s - 1)).imag, W.x0, W.x1, limit=200)[0]
    return complex(re, im)
