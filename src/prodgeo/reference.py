"""Frozen reference data used as regression gates and cross-checks.

The interior-angle rows and extremum locations below are frozen reference
values for two fixed triangle families; reproducing them to 1e-4 absolute
is the package's primary regression gate.
"""

from __future__ import annotations

import math

from .core import Geometry

__all__ = [
    "TABLE_ROWS",
    "SWEEP_FAMILIES",
]

_S5 = math.sqrt(5.0)
_S8 = math.sqrt(8.0)

#: per geometry: (a2, [(a3, (w1, w2, w3, sum)), ...])
TABLE_ROWS = {
    Geometry.S2R: (
        (3.0, -2.0, 1.0),
        [
            ((2.0 / _S5, 1.0 / _S5, 0.0), (1.97206, 0.26028, 0.92635, 3.15869)),
            ((2.0, 1.0, 0.0), (0.94654, 0.68775, 1.51707, 3.15135)),
            ((4.0, 2.0, 0.0), (0.73193, 1.29546, 1.12123, 3.14862)),
            ((12.0, 6.0, 0.0), (0.61470, 1.99926, 0.53246, 3.14643)),
            ((2000.0, 1000.0, 0.0), (0.50628, 2.52677, 0.11050, 3.14355)),
        ],
    ),
    Geometry.H2R: (
        (2.0, 1.5, 1.0),
        [
            ((3.0 / _S8, -1.0 / _S8, 0.0), (2.54659, 0.06953, 0.41780, 3.03392)),
            ((3.0, -1.0, 0.0), (1.93230, 0.49280, 0.69816, 3.12325)),
            ((6.0, -2.0, 0.0), (1.83102, 0.71611, 0.58348, 3.13061)),
            ((9.0, -3.0, 0.0), (1.80083, 0.81224, 0.51964, 3.13270)),
            ((3000.0, -1000.0, 0.0), (1.70394, 1.25735, 0.17793, 3.13922)),
        ],
    ),
}

#: per geometry: (a2, ray, t_extremum, s_extremum)
SWEEP_FAMILIES = {
    Geometry.S2R: ((3.0, -2.0, 1.0), (2.0, 1.0, 0.0), 0.19316, 3.17450),
    Geometry.H2R: ((2.0, 1.5, 1.0), (3.0, -1.0, 0.0), 0.36392, 3.03236),
}
