"""Strings with both a tension term and a topological curvature term.

The combined action adds a coupling sigma1 times the total intrinsic
curvature to the minimal-area functional.  The field equations are
unchanged (the addition is topological), but the boundary flux, and with
it the canonical variables, pick up a curvature piece: the momentum stays
the tension momentum while the position variable is shifted by the frame
connection.  At sigma1 = 0 everything collapses back to the minimal
string.
"""

import numpy as np

from branelab import embeddings as emb
from branelab import jets
from branelab import models as mdl
from branelab import strings_gb as sgb
from branelab import symplectic as sym

E = emb.static_string(1.0)
geom = E.geometry(emb.make_grid(E, (8, 20)).mesh, 4)

RADIAL = sym.chart_field(lambda t, s: (
    0.0 * t,
    (0.2 * jets.cos(t) + 0.1 * jets.sin(2 * s)) * jets.cos(s),
    (0.2 * jets.cos(t) + 0.1 * jets.sin(2 * s)) * jets.sin(s),
    0.0 * t))

print("field equations of the combined system are pure mean curvature:")
res = sgb.dnggb_eom_residual(E, emb.make_grid(E, (8, 20)))
norms = np.sqrt(np.einsum("m...,m...->...", res, res))
print(f"  |K^mu| on the unit static string = {norms.max():.6f} "
      "(= 1/r, the circle's curvature; the static round string is not")
print("  extremal, it needs angular momentum or pressure to hold up)")

print("\nboundary flux splits exactly into tension + curvature parts:")
V = RADIAL(geom)
total = sgb.dnggb_potential(geom, V, sigma0=1.2, sigma1=0.9)
sheet = sym.symplectic_potential(mdl.DNG(mu=1.2), geom, V)
push = np.einsum("am...,a...->m...",
                 np.asarray(geom.tangents.value, float), sheet.value)
gb = sgb.gb_potential(geom, None,
                      sgb.rotation_connection_delta(geom, V), 0.9)
print(f"  max |total - (tension + curvature)| = "
      f"{np.max(np.abs(total - (push + gb))):.2e}")

print("\ncanonical pair of the combined string (sigma0=1.2, sigma1=0.9):")
slc = sym.CauchySlice("tau", 0.9, 48)
pair = sgb.dnggb_canonical(E, slc, sigma0=1.2, sigma1=0.9)
ref = sym.dng_canonical_pair(E, slc, 1.2)
print(f"  max |Q - X|        = {np.max(np.abs(pair.position - ref.position)):.2e}"
      "   (rho vanishes on the undeformed static string)")
red = sgb.dnggb_canonical(E, slc, sigma0=1.2, sigma1=0.0)
print(f"  sigma1=0 reduction = "
      f"{np.max(np.abs(red.position - ref.position)):.2e}")

print("\nbut a frame gauge angle moves the position variable, not the")
print("momentum: Q absorbs the connection, p stays sigma0-normalized")
turned = sgb.dnggb_canonical(E, slc, sigma0=1.2, sigma1=0.9,
                             theta=lambda t, s: 0.3 * jets.sin(s))
dq = np.max(np.abs(turned.position - pair.position))
dp = np.max(np.abs(turned.momentum - pair.momentum))
print(f"  max |dQ| = {dq:.4f}   max |dp| = {dp:.2e}")

print("\nslice form of the combined system:")
TIMEMODE = sym.chart_field(lambda t, s: (
    0.2 * jets.sin(2 * s) * jets.cos(t), 0.0 * t, 0.0 * t, 0.0 * t))
MATCHED = sym.chart_field(lambda t, s: (
    0.0 * t,
    0.2 * jets.sin(2 * s) * jets.sin(t) * jets.cos(s),
    0.2 * jets.sin(2 * s) * jets.sin(t) * jets.sin(s),
    0.0 * t))
w_full = sgb.dnggb_symplectic_form(E, slc, TIMEMODE, MATCHED,
                                   sigma0=1.2, sigma1=0.9)
w_zero = sgb.dnggb_symplectic_form(E, slc, TIMEMODE, MATCHED,
                                   sigma0=1.2, sigma1=0.0)
w_gb = sgb.gb_symplectic_form(E, slc, TIMEMODE, MATCHED, 0.9)
print(f"  w(sigma1=0.9)          = {w_full:+.8f}")
print(f"  w(sigma1=0)            = {w_zero:+.8f}")
print(f"  stand-alone flux form  = {w_gb:+.8f}")
print(f"  split residual         = {abs((w_full - w_zero) - w_gb):.2e}")
