import pytest

from maassqv.report import ExperimentReport


def _passed(computed, reference, tol, mode):
    rep = ExperimentReport.build("t", {}, computed, reference, tol, 0.0, mode=mode)
    return rep.passed


@pytest.mark.parametrize("mode", ["rel", "ratio"])
def test_relative_modes_with_negative_reference(mode):
    # tolerance bounds |computed/reference - 1|, whatever the sign of reference
    assert _passed(-2.1, -2.0, 0.1, mode)
    assert _passed(-1.9, -2.0, 0.1, mode)
    assert not _passed(-2.3, -2.0, 0.1, mode)
    assert not _passed(2.0, -2.0, 0.1, mode)
    assert _passed(4.1, 4.0, 0.1, mode)
    assert not _passed(-4.0, 4.0, 0.1, mode)


def test_abs_mode_with_negative_reference():
    assert _passed(-2.1, -2.0, 0.15, "abs")
    assert not _passed(-2.3, -2.0, 0.15, "abs")
    assert not _passed(2.0, -2.0, 0.15, "abs")


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        ExperimentReport.build("t", {}, 1.0, 1.0, 0.1, 0.0, mode="log")
