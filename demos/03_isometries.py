"""Normalising isometries: moving any point to the base point.

The normaliser factors as fibre translation, a rotation about the x axis,
the surface motion in the [x, y] plane (rotation for S2xR, Lorentz boost
for H2xR), and the inverse x-rotation.  The composite fixes the model
structure: it preserves the metric form and all pairwise distances.
"""

import numpy as np

from prodgeo import (
    Geometry,
    apply_isometry,
    distance,
    fibre_translation,
    reference_image_base,
    rotation_x,
    to_origin,
)
from prodgeo.isometries import transcribed_normalizer_s2r

a = np.array([3.0, -2.0, 1.0])
kind = Geometry.S2R

step1 = apply_isometry(fibre_translation(kind, a), a)
step2 = apply_isometry(rotation_x(kind, step1), step1)
print("fibre translation lands on the unit sphere:", np.round(step1, 6))
print("x-rotation flattens it into the [x, y] plane:", np.round(step2, 6))

m = to_origin(kind, a)
print("\nfull normaliser maps a to the base point:", np.round(apply_isometry(m, a), 12))
print("image of the base point (closed form agrees):")
print("  composed:", np.round(apply_isometry(m, (1.0, 0.0, 0.0)), 10))
print("  closed:  ", np.round(reference_image_base(kind, a), 10))

p, q = np.array([2.0, 1.0, 0.0]), np.array([1.0, 1.0, 1.0])
print("\ndistance invariance:")
print("  before:", distance(kind, p, q))
print("  after: ", distance(kind, apply_isometry(m, p), apply_isometry(m, q)))

# the hand-derived matrix transcription carries one sign slip
printed = transcribed_normalizer_s2r(a)
delta = np.abs(m - printed)
print("\n|composed - transcribed| (note the lone (3,2) discrepancy):")
with np.printoptions(precision=3, suppress=False):
    print(delta)

# H2xR: same factor structure with a boost in the middle
kind = Geometry.H2R
b = np.array([2.0, 1.5, 1.0])
mb = to_origin(kind, b)
print("\nH2xR normaliser of (1, 2, 3/2, 1) maps it to", np.round(apply_isometry(mb, b), 12))
print("image of (1, 3, -1, 0) lands deep in the cone:",
      np.round(apply_isometry(mb, (3.0, -1.0, 0.0)), 6))
