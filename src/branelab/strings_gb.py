"""Worldsheet-specific structures: orthonormal tangent frames, the internal
rotation connection, and canonical variables of the area-plus-curvature
string.

Everything here is restricted to two-dimensional worldsheets.  On a
Lorentzian sheet the frame consists of a unit timelike tangent iota0 and
its spacelike orthogonal complement iota1; the gauge freedom is a local
boost.  For testing on compact surfaces a Riemannian surrogate frame is
provided, where the gauge freedom is a genuine rotation.

The rotation connection is the frame component

    rho_a = -g(iota1, D_a iota0)

with D the pulled-back background covariant derivative.  The sign is
anchored so that the antisymmetrized derivative d(rho) reproduces the
curvature density sqrt(g) R / 2 pointwise (total 2 pi chi on a closed
surface); a local gauge angle theta(xi) then shifts rho_a by -d_a theta.

The curvature-coupled momentum flux on a deformation with connection
response drho is

    Psi^mu = sigma1 sqrt(-gamma) eps^{mu nu} drho_nu

with eps^{mu nu} = iota0^mu iota1^nu - iota1^mu iota0^nu.  Since eps is
boost-invariant and drho_a is unchanged by configuration-independent
gauge angles, Psi is frame-gauge invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import deformation as dfm
from .embeddings import Embedding, Geometry, Grid, _finite, integrate, make_grid
from .errors import (
    DegenerateGeometryError,
    ParameterError,
    PreconditionError,
    UnsupportedConfigurationError,
)
from .jets import cos, cosh, jet_einsum, sin, sinh
from .models import _resolve_geometry
from .symplectic import (
    CanonicalPair,
    CauchySlice,
    _darboux_form,
    _slice_geometry,
    _variation_pair,
    dng_momentum_density,
    unit_timelike_tangent,
)

__all__ = [
    "TangentFramePair",
    "tangent_frame",
    "rotation_connection",
    "rotation_connection_delta",
    "gb_potential",
    "gb_canonical",
    "gb_symplectic_form",
    "dnggb_eom_residual",
    "dnggb_potential",
    "dnggb_canonical",
    "dnggb_symplectic_form",
    "curvature_density",
    "euler_characteristic",
    "two_d_einstein_identity",
]


def _require_worldsheet(geom: Geometry):
    if not isinstance(geom, Geometry):
        raise ParameterError(
            f"frame structures take a Geometry, not {type(geom).__name__}")
    if geom.dim != 2:
        raise UnsupportedConfigurationError(
            "tangent-frame structures need a two-parameter worldsheet"
        )


def _sheet_signature(geom: Geometry) -> int:
    """-1 for a Lorentzian sheet, +1 for the Riemannian surrogate."""
    s = geom.metric_sign
    if np.all(s < 0):
        return -1
    if np.all(s > 0):
        return +1
    raise DegenerateGeometryError("induced metric changes signature on grid")


def _resolve_gauge(theta, geom: Geometry):
    """Gauge angle as a jet/scalar over the grid; callables get the chart
    parameters (held fixed under any later embedding deformation)."""
    if theta is None:
        return None
    if callable(theta):
        return theta(*geom.params)
    return theta


@dataclass
class TangentFramePair:
    """Orthonormal tangent frame (iota0, iota1) on ``geom`` and its area
    bivector.  Its chart legs are projected once, on the first `contract`,
    and shared by every later one."""

    iota0: object
    iota1: object
    geom: Geometry

    @property
    def epsilon(self):
        """eps^{mu nu} = iota0^mu iota1^nu - iota1^mu iota0^nu."""
        outer = jet_einsum("m...,n...->mn...", self.iota0, self.iota1)
        flip = jet_einsum("m...,n...->mn...", self.iota1, self.iota0)
        return outer - flip

    @cached_property
    def _chart_legs(self):
        """(iota0^a, iota1^a) with iota^a = gamma^{ab} g(e_b, iota)."""
        return tuple(self.geom.chart_components(leg)
                     for leg in (self.iota0, self.iota1))

    def contract(self, w):
        """eps^{mu a} w_a as a jet, for a chart covector w (a jet or grid
        values), with the legs in the chart basis."""
        a0, a1 = (jet_einsum("a...,a...->...", leg, w)
                  for leg in self._chart_legs)
        return self.iota0 * a1 - self.iota1 * a0


def tangent_frame(geom: Geometry, theta=None) -> TangentFramePair:
    """Orthonormalized frame from the first chart direction and its
    complement, then gauge-rotated (boosted, on Lorentzian sheets) by theta.
    """
    _require_worldsheet(geom)
    sig = _sheet_signature(geom)
    e1 = geom.tangents.map_coeffs(lambda x: x[1])
    if sig < 0:
        i0 = unit_timelike_tangent(geom)
        # g(i0, i0) = -1, so subtracting the projection adds +g(e1,i0) i0
        w = e1 + geom._dot(e1, i0) * i0
    else:
        e0 = geom.tangents.map_coeffs(lambda x: x[0])
        i0 = 1.0 / geom._dot(e0, e0).sqrt() * e0
        w = e1 - geom._dot(e1, i0) * i0
    n11 = geom._dot(w, w)
    if np.any(np.asarray(n11.value, float) <= 0.0):
        raise DegenerateGeometryError("frame complement is not spacelike")
    i1 = 1.0 / n11.sqrt() * w
    th = _resolve_gauge(theta, geom)
    if th is not None:
        if sig < 0:
            ch, sh = cosh(th), sinh(th)
            i0, i1 = ch * i0 + sh * i1, sh * i0 + ch * i1
        else:
            c, s = cos(th), sin(th)
            i0, i1 = c * i0 + s * i1, c * i1 - s * i0
    return TangentFramePair(iota0=i0, iota1=i1, geom=geom)


def rotation_connection(geom: Geometry, theta=None):
    """rho_a = -g(iota1, D_a iota0) for the gauge-rotated frame.

    Returns (rho, frame): the jet of the chart covector rho_a, shape
    (2,) + grid, and the `TangentFramePair` it was built from.
    """
    frame = tangent_frame(geom, theta)
    Di0 = geom.ambient_covariant(frame.iota0)
    gi1 = jet_einsum("mn...,n...->m...", geom.ambient_metric, frame.iota1)
    return -1.0 * jet_einsum("am...,m...->a...", Di0, gi1), frame


def rotation_connection_delta(geom: Geometry, vfield,
                              theta=None) -> np.ndarray:
    """Phase-space variation of rho_a along an embedding deformation.

    The exact variation: the eps coefficient of rho on the varied
    geometry X + eps V.  The gauge angle is a fixed function of the
    parameters while the embedding moves.
    """
    _require_worldsheet(geom)
    vg = dfm.varied_geometry(geom, dfm.resolve_field(vfield, geom))
    return dfm.variation(vg, rotation_connection(vg, theta)[0])


def gb_potential(geom: Geometry, theta, drho: np.ndarray,
                 sigma1: float) -> np.ndarray:
    """Flux vector sigma1 sqrt(-gamma) eps^{mu nu} drho_nu.

    ``drho`` is the connection response of a phase-space deformation,
    as produced by `rotation_connection_delta`; its chart index is
    contracted through the frame legs.
    """
    (sigma1,) = _finite("gb_potential: sigma1", sigma1)
    frame = tangent_frame(geom, theta)
    dens = np.asarray(geom.sqrt_abs_det(0).value, float)
    shift = np.asarray(frame.contract(drho).value, float)
    return sigma1 * dens * shift


def gb_canonical(embedding: Embedding, slc: CauchySlice, sigma1: float,
                 theta=None) -> CanonicalPair:
    """Canonical pair of the curvature term: q^nu = rho^nu with the chart
    index pushed to the ambient tangent, p_nu = sigma1 sqrt(-gamma)
    eps^{mu}{}_{nu} tau_mu = -sigma1 sqrt(-gamma) (iota1)_nu.
    """
    (sigma1,) = _finite("gb_canonical: sigma1", sigma1)
    geom, _grid, _k = _slice_geometry(embedding, slc, 2)
    rho, frame = rotation_connection(geom, theta)
    tau = jet_einsum("mn...,n...->m...", geom.ambient_metric, frame.iota0)
    eps_low = jet_einsum("mn...,nl...->ml...", frame.epsilon,
                         geom.ambient_metric)
    p = jet_einsum("ml...,m...->l...", eps_low, tau)
    p = float(sigma1) * (geom.sqrt_abs_det(0) * p)
    rho_up = jet_einsum("ab...,b...->a...", geom.inverse_induced_metric, rho)
    q = jet_einsum("am...,a...->m...", geom.tangents, rho_up)
    return CanonicalPair(position=np.asarray(q.value, float),
                         momentum=np.asarray(p.value, float))


def gb_symplectic_form(embedding: Embedding, slc: CauchySlice, vf1, vf2,
                       sigma1: float, theta=None) -> float:
    """Slice integral of the antisymmetrized variation of the curvature
    flux, D2 Psi[phi1] - D1 Psi[phi2], contracted with the dual chart
    covector of the slice axis.

    The flux of phi_k is F d_k rho with F = sigma1 sqrt|gamma| eps^{mu a}
    and d_k rho the connection response, so

        D_j (F d_k rho) = (d_j F) d_k rho + F d_j d_k rho.

    The second term is symmetric in (j, k) and cancels in the form, which
    therefore reads first variations only: the flux of phi_k holds d_k rho
    fixed as grid values and varies F along the other deformation.  In
    chart components F is sigma1 eps~^{ab} with the bare permutation
    symbol, so only the variation of the frame legs e_a^mu survives:
    deformations without an ambient time component give exactly zero.
    Both variations are exact and come from one varied geometry.
    """
    (sigma1,) = _finite("gb_symplectic_form: sigma1", sigma1)
    geom, grid, k = _slice_geometry(embedding, slc, 3)
    low = jet_einsum("am...,mn...->an...", geom.tangents, geom.ambient_metric)
    dual = jet_einsum("ab...,bn...->an...", geom.inverse_induced_metric, low)
    conormal = np.asarray(dual.value, float)[k]

    def fluxes(vg, _fields):
        rho, frame = rotation_connection(vg, theta)
        shifts = [frame.contract(dfm.variation(vg, rho, j)) for j in (0, 1)]
        dens = sigma1 * vg.sqrt_abs_det(shifts[0].order)
        return [dens * shift for shift in shifts]

    d1, d2 = _variation_pair(geom, vf1, vf2, fluxes)
    dens = np.einsum("m...,m...->...", conormal, d2 - d1)
    return float(integrate(dens, grid))


# -- combined area + curvature system -----------------------------------------

def dnggb_eom_residual(target, grid: Grid | None = None) -> np.ndarray:
    """Ambient mean-curvature vector K^mu = K^i n_i^mu.

    The topological term drops out of the bulk field equations, so the
    combined system is extremal exactly where the minimal-area string is.
    """
    geom = _resolve_geometry(target, grid, 2)
    _require_worldsheet(geom)
    K = geom.mean_curvature
    k = jet_einsum("i...,im...->m...", K, geom.normal_frame(K.order))
    return np.asarray(k.value, float)


def dnggb_potential(geom: Geometry, vfield, sigma0: float, sigma1: float,
                    theta=None) -> np.ndarray:
    """Total flux of the combined system on one deformation:

        Psi^mu = sqrt(-gamma) [ -sigma0 (tangential projection of V)^mu
                                + sigma1 eps^{mu nu} drho_nu ].
    """
    sigma0, sigma1 = _finite("dnggb_potential: sigma0, sigma1", sigma0, sigma1)
    _require_worldsheet(geom)
    V = dfm.resolve_field(vfield, geom)
    tangential = jet_einsum("am...,a...->m...", geom.tangents,
                            geom.chart_components(V))
    dens = np.asarray(geom.sqrt_abs_det(0).value, float)
    dng_part = -sigma0 * dens * np.asarray(tangential.value, float)
    drho = rotation_connection_delta(geom, V, theta)
    return dng_part + gb_potential(geom, theta, drho, sigma1)


def dnggb_canonical(embedding: Embedding, slc: CauchySlice, sigma0: float,
                    sigma1: float, theta=None) -> CanonicalPair:
    """Canonical pair of the combined system:

        Phat_nu = sigma0 sqrt(-gamma) tau_nu
        Q^nu    = -(sigma1/sigma0) eps^{nu a} rho_a + X^nu

    Setting sigma1 = 0 recovers the minimal-area pair exactly.
    """
    geom, _grid, _k = _slice_geometry(embedding, slc, 2)
    Q, phat = _dnggb_pair(geom, sigma0, sigma1, theta)
    return CanonicalPair(position=np.asarray(Q.value, float),
                         momentum=np.asarray(phat.value, float))


def _dnggb_pair(geom: Geometry, sigma0: float, sigma1: float, theta):
    """Jets of (Q, Phat) for `dnggb_canonical` and `dnggb_symplectic_form`."""
    sigma0, sigma1 = _finite("dnggb: sigma0, sigma1", sigma0, sigma1)
    if sigma0 == 0.0:
        raise ParameterError("sigma0 = 0 leaves the position variable undefined")
    phat = dng_momentum_density(geom, sigma0)
    Q = geom.X
    if sigma1 != 0.0:
        rho, frame = rotation_connection(geom, theta)
        Q = Q - (sigma1 / sigma0) * frame.contract(rho)
    return Q, phat


def dnggb_symplectic_form(embedding: Embedding, slc: CauchySlice, vf1, vf2,
                          sigma0: float, sigma1: float, theta=None) -> float:
    """Darboux form of the combined pair:

        integral of (delta1 Q . delta2 Phat - delta2 Q . delta1 Phat)

    with both variations exact, read off one varied geometry.
    Position-first ordering keeps the sigma1 -> 0 limit equal to the
    minimal-area slice form; it is `dng_canonical_pairing`'s integral.
    """
    return _darboux_form(embedding, slc, 3, vf1, vf2,
                         lambda vg: _dnggb_pair(vg, sigma0, sigma1, theta))


# -- topology and the two-dimensional identity ---------------------------------

def _require_closed(embedding: Embedding, n_probe: int = 33):
    """Closed surface: every chart axis periodic, or capped by a degenerate
    metric at its endpoints (polar charts)."""
    for k, ax in enumerate(embedding.axes):
        if ax.periodic:
            continue
        other = embedding.axes[1 - k]
        sweep = np.linspace(other.lo, other.hi, n_probe)
        for edge in (ax.lo, ax.hi):
            pts = [None, None]
            pts[k] = np.full_like(sweep, edge)
            pts[1 - k] = sweep
            geom = embedding.geometry(tuple(pts), 1)
            dets = np.abs(np.asarray(geom.det_induced_metric(0).value, float))
            if np.max(dets) > 1e-10:
                raise PreconditionError(
                    f"{embedding.name}: axis {ax.name} ends at {edge} with a "
                    "nondegenerate boundary; surface is not closed"
                )


def curvature_density(embedding: Embedding, n: int = 32):
    """Gauss-Bonnet integrand sqrt(g) R of a closed Riemannian surface on
    an n x n grid: (values, grid)."""
    if embedding.dim != 2:
        raise UnsupportedConfigurationError(
            "the Euler characteristic integral needs a two-parameter surface"
        )
    _require_closed(embedding)
    grid = make_grid(embedding, n)
    geom = embedding.geometry(grid.mesh, 3)
    if _sheet_signature(geom) < 0:
        raise UnsupportedConfigurationError(
            "Gauss-Bonnet quadrature is for Riemannian surfaces"
        )
    dens = geom.sqrt_abs_det(0) * geom.intrinsic_scalar_curvature
    return np.asarray(dens.value, float), grid


def euler_characteristic(embedding: Embedding, n: int = 32) -> float:
    """(1/4 pi) integral of sqrt(g) R over a closed Riemannian surface."""
    values, grid = curvature_density(embedding, n)
    return float(integrate(values, grid)) / (4 * np.pi)


def two_d_einstein_identity(target, grid: Grid | None = None) -> float:
    """Max norm of the intrinsic Einstein tensor R_ab - (1/2) gamma_ab R.

    Identically zero in two dimensions; the return value is the numerical
    residual of the jet-assembled curvature.
    """
    geom = _resolve_geometry(target, grid, 3)
    _require_worldsheet(geom)
    gi = geom.inverse_induced_metric
    ricci = jet_einsum("am...,abmn...->bn...", gi, geom.intrinsic_riemann)
    scal = jet_einsum("bn...,bn...->...", gi, ricci)
    einstein = ricci - 0.5 * (scal * geom.induced_metric)
    return float(np.max(np.abs(np.asarray(einstein.value, float))))
