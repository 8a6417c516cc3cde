"""Induced geometry from an embedding map.

A surface is given as a chart map into a background space; everything else
(metric, normal frame, extrinsic curvature, intrinsic curvature) is derived
from truncated Taylor data of the map.  This script reads off curvature
values on surfaces where the answers are classical and checks the traced
structure equation that ties them together.
"""

import numpy as np

from branelab import embeddings as emb


def describe(E, n=48):
    grid = emb.make_grid(E, n)
    geom = E.geometry(grid.mesh, 3)
    kmag = np.sqrt(np.abs(np.asarray(geom.k_squared_scalar.value, float)))
    scal = np.asarray(geom.intrinsic_scalar_curvature.value, float)
    gauss = np.asarray(geom.gauss_scalar_residual().value, float)
    area = float(emb.integrate(
        np.asarray(geom.sqrt_abs_det(0).value, float), grid))
    print(f"{E.name}")
    print(f"  |K|  min/max          {kmag.min():.6f} / {kmag.max():.6f}")
    print(f"  intrinsic R min/max   {scal.min():.6f} / {scal.max():.6f}")
    print(f"  structure residual    {np.max(np.abs(gauss)):.2e}")
    print(f"  area                  {area:.6f}")


print("flat plane: every curvature vanishes")
describe(emb.plane())

print("\ncylinder of radius 0.8: |K| = 1/r, intrinsically flat")
describe(emb.cylinder(0.8, 1.0))

print("\nround sphere of radius 1.25: |K| = 2/r, R = 2/r^2")
describe(emb.sphere_polar(1.25))

print("\ntriaxial ellipsoid: curvature varies point to point,")
print("but the structure equation still closes to rounding")
describe(emb.ellipsoid())

print("\nflat torus in E^4: extrinsically curved, intrinsically flat")
describe(emb.flat_torus_e4())

print("\na curve on a round S^3: curved ambient space, codimension 2")
describe(emb.s3_curve(), n=128)
