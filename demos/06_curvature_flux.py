"""Frame rotation connection and the topological curvature term.

On a two-dimensional sheet the total intrinsic curvature is a topological
number, so the corresponding action contributes no field equations; its
entire variational content lives in a boundary flux built from the abelian
connection rho_a of the orthonormal tangent frame.  The connection itself
is gauge-dependent (a frame boost shifts it by a gradient) but its curl
and its deformation response are not.
"""

import numpy as np

from branelab import embeddings as emb
from branelab import jets
from branelab import strings_gb as sgb
from branelab import symplectic as sym

print("curl of the rotation connection = sqrt(g) R / 2, pointwise:")
S = emb.sphere_polar(1.0)
grid = emb.make_grid(S, 48)
geom = S.geometry(grid.mesh, 3)
rho, _frame = sgb.rotation_connection(geom)
lhs = np.asarray((rho[1].partial(0) - rho[0].partial(1)).value, float)
rhs = 0.5 * np.asarray(
    (geom.sqrt_abs_det(0) * geom.intrinsic_scalar_curvature).value, float)
print(f"  max |curl rho - sqrt(g) R/2| = {np.max(np.abs(lhs - rhs)):.2e}")
print(f"  quadrature of curl rho       = {emb.integrate(lhs, grid):.8f}")
print(f"  2 pi chi for the sphere      = {2 * np.pi * 2:.8f}")

print("\nEuler characteristics from the curvature quadrature:")
for E, label in ((emb.sphere_polar(1.0), "sphere"),
                 (emb.perturbed_sphere(1.0, 0.05), "wobbly sphere"),
                 (emb.flat_torus_e4(), "flat torus"),
                 (emb.bumpy_torus_e4(), "bumpy torus")):
    chi = sgb.euler_characteristic(E, 96)
    print(f"  {label:<14} chi = {chi:+.6f}")

print("\na frame gauge rotation shifts rho by an exact gradient:")
W = emb.static_string(1.0)
g2 = W.geometry(emb.make_grid(W, (8, 24)).mesh, 3)
theta = lambda t, s: 0.3 * jets.sin(s) + 0.1 * jets.cos(t)  # noqa: E731
base = sgb.rotation_connection(g2)[0].value
turned = sgb.rotation_connection(g2, theta)[0].value
t, s = [np.asarray(p.value, float) for p in g2.params]
grad = np.stack([-0.1 * np.sin(t), 0.3 * np.cos(s)])
print(f"  max |rho| on the static string      = {np.max(np.abs(base)):.2e}")
print(f"  max |rho_theta - (rho - grad theta)| = "
      f"{np.max(np.abs(turned - (base - grad))):.2e}")

print("\nthe deformation response of rho feeds a boundary flux that is")
print("gauge-invariant even though rho is not:")
RADIAL = sym.chart_field(lambda t, s: (
    0.0 * t,
    (0.2 * jets.cos(t) + 0.1 * jets.sin(2 * s)) * jets.cos(s),
    (0.2 * jets.cos(t) + 0.1 * jets.sin(2 * s)) * jets.sin(s),
    0.0 * t))
g4 = W.geometry(emb.make_grid(W, (8, 24)).mesh, 4)
dr = sgb.rotation_connection_delta(g4, RADIAL)
psi = sgb.gb_potential(g4, None, dr, sigma1=0.9)
dr_t = sgb.rotation_connection_delta(g4, RADIAL, theta=theta)
psi_t = sgb.gb_potential(g4, theta, dr_t, sigma1=0.9)
print(f"  max |flux|              = {np.max(np.abs(psi)):.4f}")
print(f"  max |flux gauge shift|  = {np.max(np.abs(psi - psi_t)):.2e}")
