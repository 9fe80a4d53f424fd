import pytest

from maassqv.errors import HypothesisViolated
from maassqv.weights import PHI, W_NONSPLIT, SmoothWeight
from weights_oracle import mellin as mellin_oracle


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
    # the contour's node tau = 0; W~(0) is `mellin_zero`, tested below
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
    with pytest.raises(HypothesisViolated):
        PHI.mellin(s)


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
    W = SmoothWeight(1.0, 1.75)
    s = 1 - 37.3j
    assert W.mellin(s) == mellin_oracle(W, s)
    assert W.mellin(s) == W.mellin(s.conjugate()).conjugate()


def test_mellin_node_table_is_per_window():
    # three windows asked in turn at one s: each quadrature reads W(x) from
    # its own window's node table
    s = 1 + 7.3j
    for W in (W_NONSPLIT, SmoothWeight(1.0, 1.75), PHI):
        assert W.mellin(s) == mellin_oracle(W, s), (W.x0, W.x1)


def test_window_needs_ordered_positive_support():
    for x0, x1 in ((2.0, 1.0), (0.0, 1.0), (1.0, 1.0)):
        with pytest.raises(HypothesisViolated):
            SmoothWeight(x0, x1)
