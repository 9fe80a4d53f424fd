import sys

import pytest

from maassqv import ideals
from maassqv.quadfield import make_field


@pytest.fixture(scope="session")
def F21():
    return make_field(21)


@pytest.fixture(scope="session")
def admitted_fields():
    """All fields in the small candidate set that pass validation."""
    out = []
    for D in (21, 33, 57, 69, 77, 93):
        try:
            out.append(make_field(D))
        except Exception:
            pass
    return out


@pytest.fixture
def forbid_scans(monkeypatch):
    """Every call of a scan over all norms to a bound, `ideal_scan` or
    `ideal_chunks`, fails, through whichever maassqv module namespace binds
    it."""

    def refuse(*args, **kwargs):
        raise AssertionError("the ideals were enumerated")

    for name in ("ideal_scan", "ideal_chunks"):
        fn = getattr(ideals, name)
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "maassqv" and vars(mod).get(name) is fn:
                monkeypatch.setattr(mod, name, refuse)
