"""Symplectic potentials, currents, and canonical pairings for worldvolumes.

The first variation of a model action splits as

    delta(sqrt|gamma| L) = sqrt|gamma| E_i phi^i + d_a Psi^a,

where E_i is the bulk density assembled in `models` and Psi^a is a vector
density built pointwise from the deformation.  This module evaluates Psi
from a fixed 13-entry kernel table (t indexes the deformation's tangential
part, phi its normal part; HK/HG as in `models`):

    T00  + L t^a
    T01  - HK^{ab}_i grad_b phi^i
    T02  + (grad_b HK^{ba}_i) phi^i
    T03  - HG^{abc}_i grad_b grad_c phi^i
    T04  + HG^{abc}_i K_{db}^i K^d_{c j} phi^j
    T05  + HG^{abc}_i R(n_j, e_b, e_c, n^i) phi^j
    T06  + (grad_b HG^{bac}_i) grad_c phi^i
    T07  - (grad_b grad_c HG^{cba}_i) phi^i
    T08  - 2 HG^{abc}_l K^g_c^l K_{gb}^j phi_j
    T09  - 2 HG^{bac}_l K^g_c^l K_{gb}^j phi_j
    T10  + 2 HG^{gbc}_l K^a_c^l K_{gb}^j phi_j
    T11  + HG^{dbc}_i K_{bc j} K_d^{a i} phi^j
    T12  - HG^{dbc}_i K_{bc j} K_d^{a j} phi^i

The pointwise identity above is pinned in the test suite against the
re-embedding finite-difference oracle, which checks every entry.  As in
`models`, the divergences are taken of upper-index tensors, and T08-T10
and T11+T12 are summed before their shared contraction.  T03-T05 are
HG^{abc}_i delta K_bc^i, and HG's tables are contracted at its order (<= 1).

On top of Psi sit the phase-space structures: the two-argument current

    J[phi1, phi2] = D_{phi2} Psi[X; phi1] - D_{phi1} Psi[X; phi2],

with D the exact derivative along a deformation of the embedding, read
off one geometry with a jet variable per deformation
(`deformation.varied_geometry`; argument order anchored by the
closed-form value of the static string below), the Cauchy-slice
symplectic form, and the canonical position/momentum pairing of the
minimal-area model with momentum density
p_hat_alpha = sqrt(-gamma) sigma0 tau_alpha.

Deformation arguments follow one convention package-wide: a callable
mapping a Geometry to an ambient vector jet over its grid (`chart_field`
adapts plain component functions of the parameters).  The callable is
evaluated once on the base geometry; the resulting components are held
fixed while the embedding varies.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import deformation as dfm
from .embeddings import Embedding, Geometry, _finite, integrate, line_grid
from .errors import (
    DegenerateGeometryError,
    DomainError,
    ParameterError,
    UnsupportedConfigurationError,
)
from .jets import jet_einsum, jet_stack
from .models import LagrangianModel, _require_order, hg_contractions

__all__ = [
    "CauchySlice",
    "CanonicalPair",
    "chart_field",
    "symplectic_potential",
    "symplectic_current",
    "slice_current",
    "symplectic_form",
    "unit_timelike_tangent",
    "dng_momentum_density",
    "dng_canonical_pair",
    "dng_canonical_pairing",
    "mass_shell_check",
]


def chart_field(fn):
    """Adapt fn(*params) -> ambient components into a geometry callable."""

    def build(geom: Geometry):
        comps = list(fn(*geom.params))
        return jet_stack(comps, template=geom.X)

    return build


def symplectic_potential(model: LagrangianModel, geom: Geometry, vfield):
    """Evaluate the kernel table for one deformation on one geometry: the
    jet of the vector density sqrt|gamma| Psi^a, shape (dim,) + grid, of
    order at most top = geom.order - model.jet_order + 1 (its value needs
    one order below the field equations).

    V is lowered once; T00 reads only its tangential part t^a, so the
    normal part phi^i = <V, n^i>, and with it the geometry's normal frame,
    is built only for a model with HK or HG (not for DNG).  Each piece is
    built at the order the potential keeps: the lowering of V and phi at
    top plus the derivatives phi takes (one for HK, two for HG's
    grad grad phi), grad phi once, and each product at top."""
    model.check_geometry(geom)
    _require_order(geom, model.jet_order - 1, f"{model.name} potential")
    top = geom.order - model.jet_order + 1
    V = dfm.resolve_field(vfield, geom)
    HK = model.h_k(geom)
    HG = model.h_gradk(geom)
    reach = 2 if HG is not None else int(HK is not None)
    gV = jet_einsum("mn...,n...->m...",
                    geom.ambient_metric.truncated(top + reach), V)

    psi = model.lagrangian(geom) * geom._chart_of_lowered(
        gV.truncated(min(top, gV.order)))                              # T00

    if reach:
        phi = jet_einsum("im...,m...->i...", geom.normal_frame(gV.order), gV)
        gphi = geom.covariant_grad(phi, 0, 1)                          # (b,i)
    if HK is not None:
        psi = psi - jet_einsum("abi...,bi...->a...", HK, gphi)         # T01
        div_hk = geom.divergence(HK, 2, 1)                             # (a,i)
        psi = psi + jet_einsum("ai...,i...->a...", div_hk, phi)        # T02

    if HG is not None:
        lam = dfm.delta_extrinsic(geom, phi, gphi)                    # (b,c,i)
        div1, wsum, _m, anti = hg_contractions(geom, HG, lam.order)
        psi = psi + jet_einsum("abci...,bci...->a...", HG, lam)        # T03-T05
        psi = psi + jet_einsum("aci...,ci...->a...", div1,
                               gphi.truncated(lam.order))              # T06
        div2 = geom.divergence(div1, 2, 1)                             # (a,i)
        psi = psi - jet_einsum("ai...,i...->a...", div2, phi)          # T07
        w8 = jet_einsum("abe...,bej...->aj...", wsum,
                        geom.extrinsic_curvature)
        psi = psi - 2.0 * jet_einsum("aj...,j...->a...", w8, phi)      # T08-T10
        psi = psi - jet_einsum("aj...,j...->a...", anti, phi)          # T11+T12

    return geom.sqrt_abs_det(psi.order) * psi


# -- phase-space structures ---------------------------------------------------

def _variation_pair(geom: Geometry, vf1, vf2, quantities):
    """Vary a quantity of each deformation along the other one.

    Both fields are resolved once on the base geometry and held fixed on
    one geometry of X + eps1 V1 + eps2 V2 (`deformation.varied_geometry`).
    ``quantities(vg, (V1, V2))`` returns the quantity's jets (Q[V1],
    Q[V2]) on that geometry, with the fields lifted onto it; returns
    (D_{V1} Q[V2], D_{V2} Q[V1]), each a first variation.
    """
    V1 = dfm.resolve_field(vf1, geom)
    V2 = dfm.resolve_field(vf2, geom)
    vg = dfm.varied_geometry(geom, V1, V2)
    n = vg.X.nvars
    q1, q2 = quantities(vg, (V1.lift(n), V2.lift(n)))
    return dfm.variation(vg, q2, 0), dfm.variation(vg, q1, 1)


def symplectic_current(model: LagrangianModel, geom: Geometry, vf1,
                       vf2) -> np.ndarray:
    """Two-deformation current J^a[phi1, phi2] on the geometry's grid.

    Each side is the exact variation of the potential of one fixed
    deformation while the embedding moves along the other; ``geom`` needs
    one jet order above what the potential's value needs.
    """
    d1, d2 = _variation_pair(
        geom, vf1, vf2,
        lambda vg, fields: [symplectic_potential(model, vg, V)
                            for V in fields])
    return d2 - d1


@dataclass(frozen=True)
class CauchySlice:
    """Constant-coordinate cross-section of a two-axis worldsheet chart."""

    coord: str = "tau"
    value: float = 0.0
    n: int = 256

    def axis_index(self, embedding: Embedding) -> int:
        for k, ax in enumerate(embedding.axes):
            if ax.name == self.coord:
                return k
        raise ParameterError(
            f"no axis named {self.coord!r} on {embedding.name}"
        )

    def grid(self, embedding: Embedding):
        """Quadrature grid along the cross-section and the sliced axis index."""
        if embedding.dim != 2:
            raise UnsupportedConfigurationError(
                "Cauchy-slice integrals are defined for two-axis worldsheets"
            )
        k = self.axis_index(embedding)
        ax = embedding.axes[k]
        (value,) = _finite(f"slice {ax.name}", self.value)
        if not ax.periodic and not (ax.lo < value < ax.hi):
            raise DomainError(
                f"slice {ax.name}={self.value} lies outside ({ax.lo}, {ax.hi})"
            )
        return line_grid(embedding, 1 - k, self.n, {ax.name: value}), k


def _slice_geometry(embedding: Embedding, slc: CauchySlice, order: int):
    grid, k = slc.grid(embedding)
    return embedding.geometry(grid.mesh, order), grid, k


def slice_current(model: LagrangianModel, embedding: Embedding,
                  slc: CauchySlice, vf1, vf2):
    """Slice component of the current over the cross-section: (values, grid)."""
    # the potential's value needs one order below the field equations, so
    # their order leaves it one for the eps coefficients
    geom, grid, k = _slice_geometry(embedding, slc, model.jet_order)
    return symplectic_current(model, geom, vf1, vf2)[k], grid


def symplectic_form(model: LagrangianModel, embedding: Embedding,
                    slc: CauchySlice, vf1, vf2) -> float:
    """Quadrature of the current's slice component over the cross-section."""
    values, grid = slice_current(model, embedding, slc, vf1, vf2)
    return float(integrate(values, grid))


# -- canonical variables of the minimal-area string ---------------------------

def unit_timelike_tangent(geom: Geometry):
    """Normalized timelike tangent along the first chart axis (tau)."""
    norm2 = geom.induced_metric[0, 0]
    if np.any(np.asarray(norm2.value, float) >= 0.0):
        raise DegenerateGeometryError(
            "slice tangent is not timelike everywhere; cannot normalize"
        )
    e = geom.tangents[0]
    return 1.0 / (-1.0 * norm2).sqrt() * e


def dng_momentum_density(geom: Geometry, sigma0: float):
    """Covector density p_hat_alpha = sqrt(-gamma) sigma0 tau_alpha."""
    (sigma0,) = _finite("dng_momentum_density: sigma0", sigma0)
    iota0 = unit_timelike_tangent(geom)
    tau = jet_einsum("mn...,n...->m...", geom.ambient_metric, iota0)
    return sigma0 * (geom.sqrt_abs_det(tau.order) * tau)


@dataclass
class CanonicalPair:
    """Position components and conjugate momentum density over a slice."""

    position: np.ndarray
    momentum: np.ndarray


def dng_canonical_pair(embedding: Embedding, slc: CauchySlice,
                       sigma0: float) -> CanonicalPair:
    geom, _grid, _k = _slice_geometry(embedding, slc, 1)
    phat = dng_momentum_density(geom, sigma0)
    return CanonicalPair(position=np.asarray(geom.X.value, float),
                         momentum=np.asarray(phat.value, float))


def _darboux_form(embedding, slc, order: int, vf1, vf2, pair) -> float:
    """Slice integral of delta1 Q . delta2 P - delta2 Q . delta1 P for the
    jets (Q, P) = pair(vg), both variations exact and read off one varied
    geometry of the slice at jet order ``order``."""
    geom, grid, _k = _slice_geometry(embedding, slc, order)
    d1, d2 = _variation_pair(geom, vf1, vf2,
                             lambda vg, _fields: [jet_stack(pair(vg))] * 2)
    dens = np.einsum("m...,m...->...", d1[0], d2[1]) \
        - np.einsum("m...,m...->...", d2[0], d1[1])
    return float(integrate(dens, grid))


def dng_canonical_pairing(embedding: Embedding, slc: CauchySlice, vf1, vf2,
                          sigma0: float) -> float:
    """Darboux pairing of two deformations against the momentum density:

        integral over the slice of
        (delta1 X^alpha delta2 phat_alpha - delta2 X^alpha delta1 phat_alpha)

    with delta(phat) the exact variation, as for the current; equals the
    symplectic form of the minimal-area model.
    """
    return _darboux_form(embedding, slc, 2, vf1, vf2,
                         lambda vg: (vg.X, dng_momentum_density(vg, sigma0)))


def mass_shell_check(embedding: Embedding, slc: CauchySlice,
                     sigma0: float) -> np.ndarray:
    """Per-point p.p + sigma0^2 for the unit momentum p = sigma0 tau_alpha.

    Zero everywhere by the unit-timelike normalization; the residual
    reports rounding only.  Degenerate (non-timelike) slices raise.
    """
    (sigma0,) = _finite("mass_shell_check: sigma0", sigma0)
    geom, _grid, _k = _slice_geometry(embedding, slc, 1)  # tangents' value
    iota0 = unit_timelike_tangent(geom)
    pp = geom._dot(iota0, iota0)
    return float(sigma0) ** 2 * (np.asarray(pp.value, float) + 1.0)
