"""Normalising isometries: moving any point to the base point.

The normaliser factors as fibre translation, a rotation about the x axis,
the surface motion in the [x, y] plane (rotation for S2xR, Lorentz boost
for H2xR), and the inverse x-rotation.  The composite fixes the model
structure: it maps its point to the base point, and it preserves all
pairwise distances.
"""

import numpy as np

from prodgeo import (
    Geometry,
    apply_isometry,
    distance,
    fibre_translation,
    rotation_x,
    rotation_z,
    to_origin,
)

a = np.array([3.0, -2.0, 1.0])
kind = Geometry.S2R

step1 = apply_isometry(fibre_translation(kind, a), a)
step2 = apply_isometry(rotation_x(kind, step1), step1)
step3 = apply_isometry(rotation_z(kind, step2), step2)
print("fibre translation lands on the unit sphere:", np.round(step1, 6))
print("x-rotation flattens it into the [x, y] plane:", np.round(step2, 6))
print("surface rotation takes it to the base point:", np.round(step3, 12) + 0.0)

m = to_origin(kind, a)
print("\nfull normaliser T . R_x . R_z . R_x^-1 (row 0 and column 0 are (1, 0, 0, 0)):")
with np.printoptions(precision=6, suppress=True):
    print(m)
print("it maps a to the base point:", np.round(apply_isometry(m, a), 12) + 0.0)

p, q = np.array([2.0, 1.0, 0.0]), np.array([1.0, 1.0, 1.0])
print("\ndistance invariance:")
print("  before:", distance(kind, p, q))
print("  after: ", distance(kind, apply_isometry(m, p), apply_isometry(m, q)))

# H2xR: same factor structure with a boost in the middle
kind = Geometry.H2R
b = np.array([2.0, 1.5, 1.0])
mb = to_origin(kind, b)
print("\nH2xR normaliser of (1, 2, 3/2, 1) maps it to",
      np.round(apply_isometry(mb, b), 12) + 0.0)
print("image of (1, 3, -1, 0) lands deep in the cone:",
      np.round(apply_isometry(mb, (3.0, -1.0, 0.0)), 6))
print("distance from (1, 3, -1, 0) to it, before and after:",
      distance(kind, (3.0, -1.0, 0.0), b),
      distance(kind, apply_isometry(mb, (3.0, -1.0, 0.0)), apply_isometry(mb, b)))
