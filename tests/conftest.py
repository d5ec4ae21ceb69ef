import sys
from fractions import Fraction

import numpy as np
import pytest

from prodgeo import Geometry
from prodgeo.core import require_member
from prodgeo.verification import _random_params as random_params  # noqa: F401
from prodgeo.verification import _random_points


def random_point(kind, rng, tau_max=3.0):
    """One random geodesic endpoint, as the verification suites draw it."""
    return _random_points(kind, rng, 1, tau_max)[0]


BOTH = pytest.mark.parametrize("kind", [Geometry.S2R, Geometry.H2R], ids=["s2r", "h2r"])

_WIDE_LONG_DOUBLE = np.finfo(np.longdouble).maxexp > 1024
#: numbers beyond double range that are not ints: a fraction, and a long double
#: where the platform's is wider than a double (x86-64's 80-bit format)
BEYOND_DOUBLE = [
    pytest.param(Fraction(10**400), id="huge-fraction"),
    pytest.param(np.longdouble("1e400") if _WIDE_LONG_DOUBLE else None, id="huge-longdouble",
                 marks=pytest.mark.skipif(not _WIDE_LONG_DOUBLE, reason="long double is a double")),
]


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
