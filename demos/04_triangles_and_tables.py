"""Interior angles of geodesic triangles and the reference tables.

Angles are measured on the vertices as given, from the split of each into
a fibre height and a surface point; the paper's method, which moves each
vertex to the base point by its normaliser, gives the same angles.  Angle sums sit above pi in S2xR, below pi in
H2xR, and equal pi exactly for triangles coplanar with the centre (that
do not wind around it).
"""

import numpy as np

from prodgeo import (
    BASE_POINT,
    Geometry,
    angle_sum,
    classify,
    coplanar_with_center,
    geodesic_triangle,
)
from prodgeo.reference import TABLE_ROWS

for kind in Geometry:
    a2, rows = TABLE_ROWS[kind]
    print(f"--- {kind.value}, second vertex {a2}")
    print(f"{'third vertex':>28} {'w1':>9} {'w2':>9} {'w3':>9} {'sum':>9} {'ref':>9}")
    for a3, ref in rows:
        tri = geodesic_triangle(kind, BASE_POINT, a2, a3)
        w = angle_sum(tri)
        label = "({:.4g}, {:.4g}, {:.4g})".format(*a3)
        print(f"{label:>28} {w.w1:9.5f} {w.w2:9.5f} {w.w3:9.5f} {w.total:9.5f} {ref[3]:9.5f}")
    print()

flat = geodesic_triangle(Geometry.S2R, BASE_POINT, (2, 1, 0), (1, -3, 0))
print("coplanar triangle: sum =", angle_sum(flat).total,
      "| coplanar =", coplanar_with_center(flat), "| class =", classify(flat).value)

skew = geodesic_triangle(Geometry.H2R, BASE_POINT, (2, 1.5, 1), (3, -1, 0))
print("generic H2xR triangle: sum =", round(angle_sum(skew).total, 6),
      "| class =", classify(skew).value)

# winding configuration: coplanar but enclosing the centre, sum far above pi
wind = geodesic_triangle(Geometry.S2R, BASE_POINT, (-1, 1, 0), (-1, -1, 0))
print("winding coplanar triangle: sum =", round(angle_sum(wind).total, 6),
      "| class =", classify(wind).value)
