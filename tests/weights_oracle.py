"""Reference routes of maassqv.weights that only the tests use, and the
generator of the package's Mellin table.

`mellin` is the Mellin transform of a `SmoothWeight` by two adaptive
quadratures (scipy's QUADPACK) of W(x) times the real and the imaginary
part of the complex power x^{s-1}, at every s.

`mellin_qags` is the same transform on the line Re s = 1 for any window,
all tau of one call at once in the numpy port `quadpack.qags`, with the
real integrands written out: it integrates only for Im s >= 0 and
conjugates below the real axis.  It gives QUADPACK's floats bit for bit
(tests/test_quadpack.py), and it is the route that writes and checks
`SmoothWeight.mellin`'s table:

    PYTHONPATH=src python tests/weights_oracle.py --write-mellin-table

regenerates the table from the two contour grids of `halfint._contour_taus`
at the desk bound `cli._YMAX_MAX` (about 3 s).
"""

from __future__ import annotations

import argparse
import math

import numpy as np
from scipy.integrate import quad

from maassqv.cli import _YMAX_MAX
from maassqv.halfint import _DTAU, _contour_taus
from maassqv.weights import _MELLIN_TABLE, W_NONSPLIT, SmoothWeight
from quadpack import kronrod_nodes, qags


def mellin(W: SmoothWeight, s: complex) -> complex:
    """Integral of W(x) x^{s-1} dx over the support."""
    re = quad(lambda x: W(x) * (x ** (s - 1)).real, W.x0, W.x1, limit=200)[0]
    im = quad(lambda x: W(x) * (x ** (s - 1)).imag, W.x0, W.x1, limit=200)[0]
    return complex(re, im)


def mellin_qags(W: SmoothWeight, s):
    """Integral of W(x) x^{s-1} dx over the support, on the line Re s = 1,
    for a scalar s (a complex) or an array of them (an array of the same
    shape).

    The integrands are W(x) cos(tau log x) and W(x) sin(tau log x),
    s = 1 + i tau: for x > 0 these are the floats of the real and
    imaginary parts of the complex power x^{i tau}.  A real s needs only
    the first.  W(x) and log x are `math`'s floats at each Kronrod node,
    cos and sin numpy's.  The two quadratures for -tau are exact negations
    of those for +tau, so conjugating gives the floats of integrating
    there."""
    sv = np.asarray(s, dtype=complex)
    if (sv.real != 1.0).any():
        raise ValueError(f"mellin_qags is taken on Re s = 1 only, got {s}")
    taus = sv.imag.ravel()

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
            w = np.vstack([w, [[W(x) for x in row] for row in xs]])
            logx = np.vstack([logx, [[math.log(x) for x in row] for row in xs]])
        at = np.array([slot[k] for k in keys])[inverse]
        theta = tau[rows, None] * logx[at]
        cos = (rows < len(cosines))[:, None]
        trig = np.cos(theta, where=cos, out=np.empty_like(theta))
        np.sin(theta, where=~cos, out=trig)
        return w[at] * trig

    result = qags(integrand, W.x0, W.x1, len(tau))[0].tolist()
    im = dict(zip(sines, result[len(cosines) :]))
    table = {t: complex(re, im.get(t, 0.0)) for t, re in zip(cosines, result)}
    values = np.array([table[abs(t)] for t in taus.tolist()], dtype=complex)
    values = np.where(taus < 0.0, values.conjugate(), values).reshape(sv.shape)
    return complex(values) if values.ndim == 0 else values


def contour_nodes() -> list[float]:
    """Every tau >= 0 node a non-split contour can ask for, ascending: the
    union of the grids of both forms' steps at the highest admitted Y."""
    return sorted({t for dtau in (_DTAU / 2, _DTAU) for t in _contour_taus(_YMAX_MAX, dtau)})


def mellin_table() -> np.ndarray:
    """The rows (tau, Re, Im) of W_NONSPLIT's Mellin transform at 1 + i tau,
    one per node of `contour_nodes`, as the package ships them."""
    taus = contour_nodes()
    values = mellin_qags(W_NONSPLIT, 1.0 + 1j * np.array(taus))
    return np.column_stack([taus, values.real, values.imag])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Write the package's Mellin table.")
    parser.add_argument("--write-mellin-table", action="store_true", required=True)
    parser.parse_args()
    np.save(_MELLIN_TABLE, mellin_table(), allow_pickle=False)
    print(f"wrote {_MELLIN_TABLE}")
