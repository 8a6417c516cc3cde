"""Field equations evaluated on surfaces that solve them.

The assembled Euler-Lagrange density is a normal-frame vector field over
the worldvolume.  On a genuine solution it vanishes to rounding; on a
non-solution it reports the pointwise defect, which for the rigidity
functional on a cylinder is a classical closed-form number.
"""

import numpy as np

from branelab import embeddings as emb
from branelab import models as mdl

print("minimal-area equations on a left-moving wave worldsheet:")
E = emb.traveling_wave(0.3)
res = mdl.eom_residual(mdl.DNG(mu=1.0), E, emb.make_grid(E, 48))
print(f"  max |E| = {np.max(np.abs(res)):.2e}   (any profile moving at unit")
print("  speed solves the minimal-surface equations exactly)")

print("\nrigidity functional (K.K) on the round sphere:")
S = emb.sphere_polar(1.0)
res = mdl.eom_residual(mdl.QuadraticK(alpha=0.8), S, emb.make_grid(S, 48))
print(f"  max |E| = {np.max(np.abs(res)):.2e}   "
      "(the sphere is a critical point)")

print("\nrigidity functional on cylinders: not critical, and the defect")
print("has the closed form 1/(2 r^3):")
for r in (0.8, 1.0, 1.6):
    C = emb.cylinder(r, 1.0)
    res = mdl.eom_residual(mdl.QuadraticK(alpha=0.8), C,
                           emb.make_grid(C, 32))
    print(f"  r = {r:<4} residual = {np.max(np.abs(res)):.9f}   "
          f"1/(2r^3) = {1 / (2 * r ** 3):.9f}")

print("\nthe same assembly runs on a curved ambient space: a latitude")
print("circle on a round 2-sphere is minimal only at the equator")
for t0 in (np.pi / 2, 1.1, 0.8):
    L = emb.s2_latitude(theta0=t0)
    res = mdl.eom_residual(mdl.DNG(mu=1.0), L, emb.make_grid(L, 64))
    print(f"  theta0 = {t0:.4f}   max |E| = {np.max(np.abs(res)):.6f}")
