"""`quadpack.qags` against `scipy.integrate.quad(f, a, b, limit=200,
full_output=1)`, the same QUADPACK routine, compared bit for bit in value,
abserr, `last` and `neval`.

Scipy's integrand reads the values the port's integrand produced, from the
same table, so the comparison checks the arithmetic alone: the bench's
Mellin problems (every tau of the non-split contours at y_ref = 1e4 and
Y = 4e4, both parts), and integrands that leave QAGS by its other exits,
each exit shown by scipy's own message."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from maassqv.halfint import _contour_taus
from quadpack import kronrod_nodes, qags
from maassqv.weights import W_NONSPLIT


def _scipy(f, a: float, b: float):
    """(value, abserr, last, neval) and scipy's message ("" on success)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        y, abserr, info, *message = quad(f, a, b, limit=200, full_output=1)
    return (y, abserr, info["last"], info["neval"]), (message[0] if message else ""), info


def _port(port, k: int):
    result, abserr, _, last, neval = port
    return (result[k], abserr[k], int(last[k]), int(neval[k]))


def test_bench_mellin_problems_match_scipy():
    # the tau of both reduction contours at y_ref = 1e4 and at Y = 4e4
    # (dtau 0.2 and 0.1): a cosine problem per tau, a sine problem per tau > 0
    taus = sorted({t for Y in (1e4, 4e4) for d in (0.2, 0.1) for t in _contour_taus(Y, d)})
    sines = [t for t in taus if t]
    assert (len(taus), len(taus) + len(sines)) == (6892, 13783)
    tau = np.array(taus + sines)
    W = W_NONSPLIT
    table: dict[float, tuple[float, float]] = {}  # x -> (W(x), log x)

    def integrand(rows, lo, hi):
        x = kronrod_nodes(lo, hi)
        keys, inverse = np.unique(x, return_inverse=True)
        for v in keys.tolist():
            if v not in table:
                table[v] = (W(v), math.log(v))
        w, logx = np.array([table[v] for v in keys.tolist()]).T
        theta = tau[rows, None] * logx[inverse]
        trig = np.where((rows < len(taus))[:, None], np.cos(theta), np.sin(theta))
        return w[inverse] * trig

    port = qags(integrand, W.x0, W.x1, len(tau))
    assert not port[2].any()  # every problem converged
    for k, t in enumerate(tau.tolist()):
        trig = math.cos if k < len(taus) else math.sin
        want, _, _ = _scipy(lambda x: table[x][0] * trig(t * table[x][1]), W.x0, W.x1)
        assert _port(port, k) == want, (k, t)
    # the package's Mellin table holds the port's first column
    mellin = W.mellin(1.0 + 1j * np.array(taus))
    assert mellin.real.tolist() == port[0][: len(taus)].tolist()
    assert mellin.imag.tolist() == [0.0] + port[0][len(taus) :].tolist()


def _noise(x):
    v = np.sin(x * 12345.6789) * 43758.5453
    return v - np.floor(v)


def _power(p):
    return lambda x: np.where(x > 0.0, x, 1.0) ** p


# integrand on (a, b), scipy's ier and a phrase of its message for the exit
_EXITS = {
    "extrapolated": (lambda x: np.log(x) / np.sqrt(x), 0.0, 1.0, 0, ""),
    "smooth": (lambda x: np.exp(-x) * np.cos(3.0 * x), 0.0, 2.0, 0, ""),
    "zero": (lambda x: 0.0 * x, 0.0, 1.0, 0, ""),
    "limit": (lambda x: np.cos(1e5 * x), 0.0, 1.0, 1, "maximum number of subdivisions (200)"),
    "roundoff": (
        lambda x: np.log(x) / np.sqrt(x) + 1e-5 * _noise(x), 0.0, 1.0, 2,
        "occurrence of roundoff error is detected",
    ),
    "bad_point": (
        lambda x: 1.0 / np.abs(x - 1.0 / 3.0), 0.0, 1.0, 3, "Extremely bad integrand behavior",
    ),
    "extrapolation_roundoff": (
        lambda x: _power(-0.99)(x) * (1.0 + 1e-5 * _noise(x)), 0.0, 1.0, 4,
        "The algorithm does not converge",
    ),
    "divergent": (_power(-1.1), 0.0, 1.0, 5, "probably divergent"),
}


@pytest.mark.parametrize("name", list(_EXITS))
def test_exits_match_scipy(name):
    g, a, b, ier, phrase = _EXITS[name]
    seen: dict[float, float] = {}

    def integrand(rows, lo, hi):
        x = kronrod_nodes(lo, hi)
        v = g(x)
        seen.update(zip(x.ravel().tolist(), v.ravel().tolist()))
        return v

    port = qags(integrand, a, b, 1)
    want, message, info = _scipy(lambda x: seen[x], a, b)
    assert _port(port, 0) == want
    assert port[2][0] == ier
    assert (phrase in message) if ier else message == ""
    if name == "extrapolated":
        # the epsilon algorithm's value, not the sum of the interval list
        total = 0.0
        for v in info["rlist"][: info["last"]]:
            total += v
        assert want[0] != total
    if name == "zero":
        assert want == (0.0, 0.0, 1, 21)


def test_problems_of_one_call_are_independent():
    # a problem's floats do not depend on the others of its call or block
    def integrand(rows, lo, hi):
        x = kronrod_nodes(lo, hi)
        return np.cos((1.0 + rows[:, None] / 1000.0) * x) / np.sqrt(x)

    n = 4100  # five blocks
    batch = qags(integrand, 0.0, 1.0, n)
    for k in (0, 2500, 4099):
        alone = qags(lambda rows, lo, hi, k=k: integrand(rows + k, lo, hi), 0.0, 1.0, 1)
        assert _port(batch, k) == _port(alone, 0)
