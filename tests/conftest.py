import sys

import numpy as np
import pytest

from prodgeo import Geometry
from prodgeo.core import require_member
from prodgeo.verification import _random_params as random_params  # noqa: F401
from prodgeo.verification import _random_point as random_point  # noqa: F401

BOTH = pytest.mark.parametrize("kind", [Geometry.S2R, Geometry.H2R], ids=["s2r", "h2r"])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def member_checks(monkeypatch):
    """List that records every ``require_member`` call, in whichever prodgeo
    module namespace the call is made."""
    calls = []

    def counted(kind, p):
        calls.append(p)
        return require_member(kind, p)

    for name, module in list(sys.modules.items()):
        if (name.startswith("prodgeo")
                and getattr(module, "require_member", None) is require_member):
            monkeypatch.setattr(module, "require_member", counted)
    return calls
