import numpy as np
import pytest

from maassqv.cli import _YMAX_MAX
from maassqv.errors import HypothesisViolated
from maassqv.halfint import _DTAU, _contour_taus
from maassqv.weights import _MELLIN_TABLE, PHI, W_NONSPLIT, SmoothWeight
from weights_oracle import mellin as mellin_oracle
from weights_oracle import mellin_qags, mellin_table


def _grid(dtau: float, top: float) -> list[float]:
    """The contour's tau nodes dtau, 2 dtau, ... <= top, by repeated addition."""
    out = []
    tau = dtau
    while tau <= top:
        out.append(tau)
        tau += dtau
    return out


@pytest.mark.parametrize("W", [W_NONSPLIT, PHI], ids=["one_two", "half_two"])
def test_mellin_real_arguments_match_oracle(W):
    # the contour's node tau = 0 by the QAGS port, for any window; the
    # package's table holds the port's floats for W_NONSPLIT (below).
    # W~(0) is `mellin_zero`, tested next
    assert mellin_qags(W, 1.0) == mellin_oracle(W, 1.0)
    if W == W_NONSPLIT:
        assert W.mellin(1.0) == mellin_oracle(W, 1.0)


@pytest.mark.parametrize("W", [W_NONSPLIT, PHI], ids=["one_two", "half_two"])
def test_mellin_zero_matches_oracle(W):
    # the 1,024-interval trapezoid against QUADPACK (measured 2.4e-15
    # relative on PHI, 1.9e-15 on W_NONSPLIT)
    want = mellin_oracle(W, 0)
    assert want.imag == 0.0
    assert W.mellin_zero == pytest.approx(want.real, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("s", [0, 0.0, 0.5 + 3j, 2.0, 1 + 1e-12 + 1j])
def test_mellin_refuses_lines_off_re_one(s):
    with pytest.raises(HypothesisViolated, match="Re s = 1"):
        W_NONSPLIT.mellin(s)


@pytest.mark.parametrize("dtau", [0.2, 0.1])
def test_mellin_contour_arguments_match_oracle(dtau):
    # every 23rd node of the accumulated grid up to tau = 500, and the last
    W = W_NONSPLIT
    taus = _grid(dtau, 500.0)
    for tau in taus[::23] + taus[-1:]:
        for s in (1 + 1j * tau, 1 + 1j * -tau):
            assert W.mellin(s) == mellin_oracle(W, s), s
        s = 1 + 1j * tau
        assert W.mellin(s.conjugate()) == W.mellin(s).conjugate()


def test_mellin_lower_half_plane_is_conjugate_first():
    # below the real axis the value is the conjugate of the upper one, even
    # when the lower point is asked for first
    # (the QAGS port that writes the package's table, on another window)
    W = SmoothWeight(1.0, 1.75)
    s = 1 - 37.3j
    assert mellin_qags(W, s) == mellin_oracle(W, s)
    assert mellin_qags(W, s) == mellin_qags(W, s.conjugate()).conjugate()


def test_mellin_node_table_is_per_window():
    # three windows asked in turn at one s: each quadrature of the QAGS port
    # reads W(x) from its own window's node table
    s = 1 + 7.3j
    for W in (W_NONSPLIT, SmoothWeight(1.0, 1.75), PHI):
        assert mellin_qags(W, s) == mellin_oracle(W, s), (W.x0, W.x1)


def test_mellin_table_is_the_qags_port_bit_for_bit():
    # every row regenerated (about 3 s), as
    # `python tests/weights_oracle.py --write-mellin-table` writes it
    shipped = np.load(_MELLIN_TABLE, allow_pickle=False)
    want = mellin_table()
    assert shipped.dtype == want.dtype and shipped.shape == want.shape
    assert shipped.tobytes() == want.tobytes()


def test_mellin_table_holds_every_contour_node():
    # both forms' grids at the desk bound, and nothing else: a change of the
    # step, the window, the T rule or the bound fails here until the table
    # is written again
    nodes = np.load(_MELLIN_TABLE, allow_pickle=False)[:, 0].tolist()
    grids = [_contour_taus(_YMAX_MAX, dtau) for dtau in (_DTAU / 2, _DTAU)]
    assert [len(g) for g in grids] == [8996, 4498]
    assert nodes == sorted(set(grids[0] + grids[1]))
    for grid in grids:
        taus = np.array(grid)
        got = W_NONSPLIT.mellin(1.0 - 1j * taus)
        assert got.shape == taus.shape
        assert got.tolist() == W_NONSPLIT.mellin(1.0 + 1j * taus).conjugate().tolist()


@pytest.mark.parametrize("W", [PHI, SmoothWeight(1.0, 1.75)], ids=["half_two", "one_to_1.75"])
def test_mellin_refuses_other_windows(W):
    with pytest.raises(HypothesisViolated, match="W_NONSPLIT"):
        W.mellin(1.0)


@pytest.mark.parametrize("tau", [0.15, 0.3, 899.6, 1e4, float("inf"), float("nan")])
def test_mellin_refuses_taus_off_the_contour_grids(tau):
    # 0.15 is on no grid, 0.3 is not the grid's 0.1 + 0.1 + 0.1, 899.6 lies past
    # the bound's T = 899.5; a refusal, never a quadrature
    for s in (complex(1, tau), complex(1, -tau), np.array([1.0, complex(1, tau)])):
        with pytest.raises(HypothesisViolated, match="not a contour node"):
            W_NONSPLIT.mellin(s)


def test_window_needs_ordered_positive_support():
    for x0, x1 in ((2.0, 1.0), (0.0, 1.0), (1.0, 1.0)):
        with pytest.raises(HypothesisViolated):
            SmoothWeight(x0, x1)
