"""Worldvolume Lagrangian models and their field equations.

A model is a pointwise scalar L built from the inverse induced metric
gamma^{ab}, the extrinsic curvature K_ab^i and its tangential covariant
derivative grad_a K_bc^i.  Its constitutive data are the three partials

    H_ab       = dL / d gamma^{ab}        (lower indices)
    HK^{ab}_i  = dL / d K_ab^i            (upper worldvolume indices)
    HG^{abc}_i = dL / d (grad_a K_bc^i)

evaluated holding the other, lower-index arguments fixed.  A model is
its coupling times a signed sum of `embeddings.INVARIANTS`, e.g.
``EinsteinHilbert.density = (("k_squared", 1.0), ("k_dot_k", -1.0))``;
`PARTIALS` writes each invariant's value and partials once (only DNG's
constant -mu is written by hand).  The tests check H, HK and HG against
finite differences of the declared density on raw values.

The first variation of S = integral sqrt|gamma| L under a normal
deformation phi^i splits into a bulk density and a divergence,

    delta S = int sqrt|gamma| E_i phi^i + int d_a (sqrt|gamma| Theta^a),

and `eom_density` assembles E_i from a fixed 14-entry table, one entry per
integration-by-parts product of the anchored variation formulas in
`deformation` (R(u, v, w, z) is the ambient pairing of Geometry.rblock):

    E01  + L K_i
    E02  - 2 K^{ab}_i H_ab
    E03  - grad_a grad_b HK^{ab}_i
    E04  + HK^{ab}_j K_{ad}^j K^d_{b i}
    E05  + HK^{ab}_j R(n_i, e_a, e_b, n^j)
    E06  + grad_c grad_b grad_a HG^{abc}_i
    E07  - (grad_a HG^{abc}_j) K_{bd}^j K^d_{c i}
    E08  - (grad_a HG^{abc}_j) R(n_i, e_b, e_c, n^j)
    E09  + 2 grad_a (HG^{abc}_l K^e_c^l) K_{eb i}
    E10  + 2 grad_b (HG^{abc}_l K^e_c^l) K_{ea i}
    E11  - 2 grad_e (HG^{abc}_l K^e_c^l) K_{ab i}
    E12  - grad_d (HG^{abc}_j K_{bc i} K_a^{d j})
    E13  + grad_d (HG^{abc}_i K_{bc j} K_a^{d j})
    E14  + HG^{abc}_l K_bc^j R(e_a, n_i, n_j, n_l)

Every sign is pinned by the finite-difference action oracle in the tests;
the curvature couplings E05/E08/E14 are only visible on a product
background, which the test battery includes.  Every divergence is taken
of an upper-index tensor (`Geometry.divergence`), and entries that differ
only in slot order and sign are summed before their shared contraction:
E09-E11 and E12+E13; E03-E05 and E06-E08 are one adjoint of delta K
(`_adjoint`).  Each term is built at the order E keeps (one above where a
divergence follows; L and H_ab on a `Geometry.truncated` prefix).
The divergence kernel Theta^a lives in `symplectic`.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import deformation as dfm
from .embeddings import (INVARIANTS, Embedding, Geometry, Grid, _finite,
                         integrate)
from .errors import (
    ParameterError,
    PreconditionError,
    UnsupportedConfigurationError,
)
from .jets import jet_einsum, jet_rearrange

__all__ = [
    "LagrangianModel",
    "DNG",
    "QuadraticK",
    "EinsteinHilbert",
    "SyntheticGradK",
    "hg_contractions",
    "action",
    "eom_density",
    "eom_residual",
    "action_variation_check",
    "VariationReport",
]


# -- model interface ---------------------------------------------------------

# name in `INVARIANTS` -> (I, dI/dgamma^{ab}, dI/dK_ab^i, dI/d(grad_a K_bc^i))
# as functions of a Geometry; None where a partial vanishes identically.
# Each value is the Geometry's cached scalar of that invariant.
PARTIALS = {
    "k_squared": (
        lambda g: g.k_squared_scalar,
        lambda g: 2.0 * jet_einsum("i...,abi...->ab...", g.mean_curvature,
                                   g.extrinsic_curvature),
        lambda g: 2.0 * g._with_inverse("ab...,i...->abi...", g.mean_curvature),
        None),
    "k_dot_k": (
        lambda g: g.k_dot_k_scalar,
        lambda g: 2.0 * jet_einsum(
            "aci...,cbi...->ab...", g.extrinsic_curvature,
            g.k_mixed(g.extrinsic_curvature.order)),
        lambda g: 2.0 * g.k_raised(g.extrinsic_curvature.order),
        None),
    "gradk_mean": (
        lambda g: g.gradk_squared_scalar,
        lambda g: (jet_einsum("ai...,bi...->ab...", g.grad_mean, g.grad_mean)
                   + 2.0 * jet_einsum("pi...,pabi...->ab...", g.grad_mean_up,
                                      g.grad_extrinsic)),
        None,
        lambda g: 2.0 * g._with_inverse("bc...,ai...->abci...",
                                        g.grad_mean_up)),
}


class LagrangianModel:
    """Base interface: L = coupling * sum of sign * I over ``density``.

    A subclass is a frozen dataclass whose one field is the coupling, and
    ``density`` holds its (name in `PARTIALS`, +1.0 or -1.0) terms.  L and
    each ``h_*`` are the coupling times the signed sum of the terms' entries;
    ``h_*`` return None when every entry is None, which lets the assembly
    skip whole term groups.
    """

    name = "model"
    density = ()
    positive = False    # the coupling must be > 0, not only nonzero

    def __post_init__(self):
        (field,) = fields(self)
        (c,) = _finite(f"{self.name}: coupling {field.name}", self.coupling)
        if not (c > 0.0 if self.positive else c != 0.0):
            raise ParameterError(f"{self.name}: coupling {field.name} must be "
                                 f"{'positive' if self.positive else 'nonzero'}")

    @property
    def coupling(self) -> float:
        return getattr(self, fields(self)[0].name)

    @property
    def action_order(self) -> int:
        """Jet order of plain action quadrature: max(2, d), d the depth of
        the deepest tensor the density's invariants read (`INVARIANTS`)."""
        return max([2] + [INVARIANTS[n][2] for n, _sign in self.density])

    @property
    def jet_order(self) -> int:
        """Jet order of the field equations, max(2, 2d)."""
        return max([2] + [2 * INVARIANTS[n][2] for n, _sign in self.density])

    def check_geometry(self, geom: Geometry) -> None:
        pass

    def _signed_sum(self, geom: Geometry, slot: int):
        """coupling * sum of sign * PARTIALS[name][slot](geom): the signed
        terms are summed first (a - b is a + (-b) on jets), and the sum
        never starts from 0, which would turn -0.0 into +0.0."""
        total = None
        for name, sign in self.density:
            part = PARTIALS[name][slot]
            if part is not None:
                t = part(geom) if sign > 0 else -part(geom)
                total = t if total is None else total + t
        return None if total is None else self.coupling * total

    def lagrangian(self, geom: Geometry):
        return self._signed_sum(geom, 0)

    def h_gamma(self, geom: Geometry):
        return self._signed_sum(geom, 1)

    def h_k(self, geom: Geometry):
        return self._signed_sum(geom, 2)

    def h_gradk(self, geom: Geometry):
        return self._signed_sum(geom, 3)

    @property
    def eom_scale(self) -> float:
        """The leading coupling normalization of E_i: residual = E / scale."""
        return -2.0 * self.coupling


@dataclass(frozen=True)
class DNG(LagrangianModel):
    """Constant density L = -mu: the action is -mu times the worldvolume
    area, extremized by vanishing mean curvature."""

    mu: float = 1.0
    name = "dng"
    positive = True

    def lagrangian(self, geom):
        return -self.mu

    @property
    def eom_scale(self):
        # residual = raw / scale = mu K^i
        return -1.0


@dataclass(frozen=True)
class QuadraticK(LagrangianModel):
    """Squared mean curvature (rigidity) density L = alpha K^i K_i; its
    residual is lap K^i - R-coupling + K K K combinations."""

    alpha: float = 1.0
    name = "quadratic-k"
    density = (("k_squared", 1.0),)


@dataclass(frozen=True)
class EinsteinHilbert(LagrangianModel):
    """L = sigma1 (K^iK_i - K_ab^i K^{ab}_i), which on a flat background
    equals sigma1 times the intrinsic curvature scalar (structure
    equation); restricted to flat backgrounds for exactly that reason.
    Topological for two-dimensional worldvolumes: E_i vanishes there."""

    sigma1: float = 1.0
    name = "einstein-hilbert"
    density = (("k_squared", 1.0), ("k_dot_k", -1.0))

    def check_geometry(self, geom):
        if not geom.background.flat:
            raise UnsupportedConfigurationError(
                "EinsteinHilbert model needs a flat background; the"
                " equality with the intrinsic curvature scalar fails on"
                " curved ones"
            )


@dataclass(frozen=True)
class SyntheticGradK(LagrangianModel):
    """Gradient density L = beta grad_a K^i grad^a K_i on the mean
    curvature vector; exercises the HG^{abc} path of the assembly."""

    beta: float = 1.0
    name = "synthetic-gradk"
    density = (("gradk_mean", 1.0),)


# -- assembly ----------------------------------------------------------------

def _require_order(geom: Geometry, need: int, what: str):
    if geom.X.order < need:
        raise PreconditionError(
            f"{what} needs jet order >= {need}, geometry has {geom.X.order}"
        )


def _adjoint(geom: Geometry, X, order):
    """X^{bc}_j J[b, c, j, i] - grad_b grad_c X^{bc}_i at jet order ``order``:
    the adjoint of delta K (`Geometry.jacobi`), E03-E05 on HK, E06-E08 on
    -div1."""
    XJ = jet_einsum("bcj...,bcji...->i...", X, geom.jacobi(order))
    return XJ - geom.divergence(geom.divergence(X, 2, 1), 1, 1)


def hg_contractions(geom: Geometry, HG, order):
    """The contractions of HG^{abc}_i that both `eom_density` and
    `symplectic.symplectic_potential` read, wsum, m and anti at jet order
    ``order``, as the tuple

        div1[b, c, i]  = grad_a HG^{abc}_i                  (E06-E08, T06, T07)
        wsum[a, b, e]  = W^{abe} + W^{bae} - W^{bea},
                         W^{abe} = HG^{abc}_l K^e_c^l       (E09-E11, T08-T10)
        m[a, i, j]     = HG^{abc}_i K_bc^j                  (E14)
        anti[d, i]     = (m[a, i, j] - m[a, j, i]) K^d_a^j  (E12+E13, T11+T12)
    """
    Kmix = geom.k_mixed(order)
    div1 = geom.divergence(HG, 3, 1)
    hg = HG.truncated(order)
    W = jet_einsum("abcl...,ecl...->abe...", hg, Kmix)
    wsum = (W + jet_rearrange("bae...->abe...", W)
            - jet_rearrange("bea...->abe...", W))
    m = jet_einsum("abci...,bcj...->aij...", hg, geom.extrinsic_curvature)
    anti = jet_einsum("aij...,daj...->di...",
                      m - jet_rearrange("aji...->aij...", m), Kmix)
    return div1, wsum, m, anti


def eom_density(model: LagrangianModel, geom: Geometry):
    """Raw Euler-Lagrange density E_i, a jet over the geometry's grid of
    order top = geom.order - model.jet_order (see the module docstring)."""
    model.check_geometry(geom)
    _require_order(geom, model.jet_order, f"{model.name} field equations")
    top = geom.order - model.jet_order
    K = geom.extrinsic_curvature
    HK, HG = model.h_k(geom), model.h_gradk(geom)
    low = geom.truncated(top + model.action_order)   # L and H_ab at top

    E = model.lagrangian(low) * low.mean_curvature                  # E01

    H = model.h_gamma(low)
    if H is not None:
        E = E - 2.0 * jet_einsum("abi...,ab...->i...", low.k_raised(top), H)  # E02

    if HK is not None:
        E = E + _adjoint(geom, HK, top)                             # E03-E05

    if HG is not None:
        div1, wsum, m, anti = hg_contractions(geom, HG, top + 1)
        E = E - _adjoint(geom, div1, top)                           # E06-E08
        dw = geom.divergence(wsum, 3, 0)                            # (b,e)
        E = E + 2.0 * jet_einsum("be...,bei...->i...", dw, K)       # E09-E11
        E = E + geom.divergence(anti, 1, 1)                         # E12+E13
        block_tnnn = geom.rblock("tnnn", top)                       # (a,i,j,l)
        E = E + jet_einsum("aijl...,alj...->i...", block_tnnn, m)   # E14

    return E


def _resolve_geometry(target, grid, order):
    if isinstance(target, Geometry):
        return target
    if isinstance(target, Embedding):
        if grid is None:
            raise ParameterError("a grid is required with an embedding")
        return target.grid_geometry(grid, order)
    raise ParameterError("target must be an Embedding or a Geometry")


def eom_residual(model: LagrangianModel, target,
                 grid: Grid | None = None) -> np.ndarray:
    """Field-equation residual of the model on a grid or prebuilt geometry:
    the values of `eom_density` divided by the model's leading coupling
    normalization ``eom_scale``, shape (codim,) + grid (DNG: residual =
    mu K^i; QuadraticK: a closed quartic form, checked in the tests).
    """
    geom = _resolve_geometry(target, grid, model.jet_order)
    E = eom_density(model, geom)
    return np.asarray(E.value, float) / model.eom_scale


# -- action and its variation -------------------------------------------------

def action(model: LagrangianModel, embedding: Embedding, grid: Grid) -> float:
    """Quadrature of sqrt|gamma| L over the grid."""
    geom = embedding.grid_geometry(grid, model.action_order)
    model.check_geometry(geom)
    geom.check_nondegenerate()
    dens = geom.sqrt_abs_det(0) * model.lagrangian(geom)
    return float(integrate(np.asarray(dens.value, float), grid))


def _require_interior_support(embedding: Embedding, grid: Grid, V):
    vals = np.abs(np.asarray(V.value, float))
    amp = float(np.max(vals))
    if amp == 0.0:
        return
    for k, axis in enumerate(embedding.axes):
        if axis.periodic:
            continue
        edge = max(
            float(np.max(np.take(vals, [0], axis=1 + k))),
            float(np.max(np.take(vals, [-1], axis=1 + k))),
        )
        if edge > 1e-8 * amp:
            raise PreconditionError(
                f"deformation support touches the clamped axis '{axis.name}'"
                f" boundary (edge amplitude {edge:.2e} vs peak {amp:.2e})"
            )


@dataclass
class VariationReport:
    """Finite-difference action derivative vs the assembled bulk integral."""

    numeric: float
    assembled: float
    gap: float
    integrand: np.ndarray     # assembled sqrt|gamma| E_i phi^i per grid point
    eps: tuple

    def tolerance(self) -> float:
        return dfm.eps_tolerance(self.eps, 1e-5)


def action_variation_check(model: LagrangianModel, embedding: Embedding,
                           grid: Grid, vfield,
                           eps_list=dfm.EPS_SCHEDULE) -> VariationReport:
    """Check delta S = int sqrt|gamma| E_i phi^i for a compactly supported
    deformation.

    One geometry is built, of order max(jet_order, action_order + 1).  Its
    normal frame is projected once, at the higher of K's order and the
    order the field reads it at (the tangents' order of the prefix below),
    and E, assembled first, reads it as a prefix.  ``vfield``, an ambient
    vector jet or a callable that maps a geometry to one, is evaluated
    once, on the prefix of order ``action_order + 1`` that drives the
    re-embedding finite difference; phi^i = <V, n^i> of its value drive
    the assembled side.  The divergence term integrates to zero because the
    support stays interior, which is checked before any re-embedding.
    """
    geom = embedding.grid_geometry(
        grid, max(model.jet_order, model.action_order + 1))
    model.check_geometry(geom)
    # K reads the frame at N - 2, the field on geom_fd at action_order
    geom.normal_frame(max(geom.order - 2, model.action_order))
    E = eom_density(model, geom)
    geom_fd = geom.truncated(model.action_order + 1)
    V = dfm.resolve_field(vfield, geom_fd)
    _require_interior_support(embedding, grid, V)
    phi = dfm.normal_components(geom, V.truncated(0))
    integrand = geom.sqrt_abs_det(0) * jet_einsum("i...,i...->...", E, phi)
    integrand = np.asarray(integrand.value, float)
    assembled = float(integrate(integrand, grid))

    def action_of(g2):
        dens = g2.sqrt_abs_det(0) * model.lagrangian(g2)
        return np.asarray(integrate(np.asarray(dens.value, float), grid))

    res = dfm.finite_difference_delta(geom_fd, V, action_of, eps_list)
    numeric = float(res.estimate)
    return VariationReport(
        numeric=numeric,
        assembled=assembled,
        gap=abs(numeric - assembled),
        integrand=integrand,
        eps=tuple(res.eps),
    )
