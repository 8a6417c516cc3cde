"""Normal deformation calculus for embedded worldvolumes.

Given a worldvolume with normal frame n_i and a deformation with normal
components phi^i, the first variations of the induced objects are:

  delta gamma_ab        = +2 K_ab^i phi_i
  delta gamma^{ab}      = -2 K^{ab}_i phi^i
  delta sqrt|gamma|     = sqrt|gamma| K^i phi_i
  covariant delta K_bc^i (frame-covariant part):
      L_bc^i = -grad_b grad_c phi^i + J[b, c, i, j] phi^j  (`Geometry.jacobi`),
      J[b, c, i, j] = K_bd^i K^d_c_j + rpair(e_b, n_j; e_c, n^i)
  delta twist w_a^{ij}  = K_a^{d i} grad_d phi^j - K_a^{d j} grad_d phi^i
               + rpair(n_k, e_a; n^j, n^i) phi^k
  delta wv connection   dG^d_{ab} = gamma^{de}(grad_a P_eb + grad_b P_ea
               - grad_e P_ab),  P_ab = K_ab^j phi_j
  covariant delta of grad_a K_bc^i:
      grad_a L_bc^i - dG^d_{ab} K_dc^i - dG^d_{ac} K_bd^i
      + dw_a^i_j K_bc^j

The variation of a curvature scalar follows from these by the chain rule.
Each invariant is written once, in `embeddings.INVARIANTS`, as a function
of gamma^{ab} and K_ab^i or grad_a K_bc^i; `predicted_delta_scalar`
evaluates it on the dual numbers Jet(1, 1, [value, closed-form variation])
of their grid values and returns the eps coefficient.

Every formula is pinned by finite-difference oracles in the test suite:
scalars are compared directly, frame-carried tensors on codimension-1
worldvolumes (where the normal is selection-stable), and the twist signs on
codimension-2 worldvolumes through gauge-invariant scalar contractions.

Both sides deform the embedding map in background chart components,
X_eps = X + eps * V with V = phi^i n_i frozen on the base worldvolume;
first derivatives in eps agree with covariant deformation families.
`varied_geometry` seeds eps as one more jet variable (`Jet.lift` with
the fields as slopes), so the eps coefficient of any quantity is its
exact first variation; the finite-difference oracle re-embeds at a
halving schedule of steps instead and stays independent of that jet path.
The eps variables do not count toward the jet order, and a varied
geometry carries each eps_k to degree 1 and no eps_1 eps_2 term: every
result reads first variations only.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .conventions import S_DOMEGA_K, S_DOMEGA_R
from .embeddings import INVARIANTS, Geometry
from .errors import ParameterError, PreconditionError
from .jets import Jet, jet_einsum, jet_rearrange, jet_stack

__all__ = [
    "normal_field",
    "resolve_field",
    "deformation_vector",
    "normal_components",
    "deformed_geometry",
    "varied_geometry",
    "variation",
    "delta_induced_metric",
    "delta_inverse_metric",
    "delta_sqrt_det",
    "delta_extrinsic",
    "delta_twist",
    "delta_wv_christoffel",
    "delta_grad_extrinsic",
    "scalar_invariant",
    "predicted_delta_scalar",
    "OracleResult",
    "eps_tolerance",
    "validate_eps_schedule",
    "finite_difference_delta",
]

EPS_SCHEDULE = (1e-3, 5e-4, 2.5e-4)


def normal_field(geom: Geometry, *fns):
    """Stack per-normal scalar functions of the parameters into one jet.

    The components are read in ``geom.normals``, which in codimension >= 2
    is picked point by point and can jump between grid nodes: smooth
    phi^i then give a discontinuous phi^i n_i (see `deformation_vector`).
    """
    if len(fns) != geom.codim:
        raise ParameterError(
            f"need {geom.codim} normal components, got {len(fns)}"
        )
    comps = [f(*geom.params) for f in fns]
    return jet_stack(comps, template=geom.X)


def resolve_field(vfield, geom: Geometry):
    """A deformation argument on ``geom``: a callable is evaluated there,
    anything else is taken as the ambient vector jet itself."""
    return vfield(geom) if callable(vfield) else vfield


def deformation_vector(geom: Geometry, phi):
    """Ambient components of the deformation: V^mu = phi^i n_i^mu.

    In codimension >= 2, phi^i n_i depends on the pointwise frame of
    ``geom.normals``; pointwise uses are unaffected.  The normal part of
    an ambient field W, ``deformation_vector(geom, normal_components(geom,
    W))``, is W minus its tangential part e_a ``geom.chart_components(W)``
    and does not depend on that frame, so a smooth W gives a smooth
    deformation.
    """
    return jet_einsum("i...,im...->m...", phi, geom.normals)


def normal_components(geom: Geometry, V):
    """Normal components phi^i = <V, n^i> of an ambient vector jet V, from
    one lowering of V.  Its tangential components are
    ``geom.chart_components(V)``."""
    gV = jet_einsum("mn...,n...->m...", geom.ambient_metric, V)
    return jet_einsum("im...,m...->i...", geom.normal_frame(gV.order), gV)


def deformed_geometry(geom: Geometry, V, eps: float) -> Geometry:
    """Geometry of the chart-shifted embedding X + eps V."""
    return Geometry(geom.background, geom.X + eps * V, geom.params,
                    geom.embedding)


def varied_geometry(geom: Geometry, *fields) -> Geometry:
    """Geometry of X + sum_k eps_k V_k, each eps_k one more jet variable.

    The result is one order below ``geom`` and carries each eps_k to
    degree 1: each quantity on it carries the first variations that
    ``geom``'s order leaves room for, and no chart-degree terms above
    them.  Each field, an ambient vector jet on ``geom`` of order at least
    ``geom.order - 1``, is held fixed as a function of the parameters, so
    a field built from the tangents or normals will do.  The eps_k
    coefficient of any quantity on the result is its exact first
    variation along V_k (`variation`); the eps-free ones are ``geom``'s.
    """
    if not fields or geom.order < 1:
        raise ParameterError(
            f"a varied geometry needs at least one field and a geometry of "
            f"order >= 1; got {len(fields)} fields and order {geom.order}")
    for V in fields:
        if not (isinstance(V, Jet) and V.order >= geom.order - 1):
            got = (f"order {V.order}" if isinstance(V, Jet)
                   else type(V).__name__)
            raise PreconditionError(
                f"a field that varies an order-{geom.order} geometry must be "
                f"a jet of order >= {geom.order - 1}, not {got}")
    top, n = geom.order - 1, geom.X.nvars + len(fields)
    return Geometry(geom.background,
                    geom.X.truncated(top).lift(n, *fields),
                    params=[p.truncated(top).lift(n) for p in geom.params],
                    embedding=geom.embedding)


def variation(vgeom: Geometry, q, k: int = 0) -> np.ndarray:
    """Grid values of the exact first variation of ``q``, a quantity on
    ``vgeom = varied_geometry(geom, V_0, ...)``, along V_k: its eps_k
    Taylor coefficient.  ``k`` must index one of the fields; a coefficient
    ``q`` does not carry raises `PreconditionError`."""
    neps = vgeom.X.nvars - vgeom.dim
    if not (isinstance(k, (int, np.integer)) and 0 <= k < neps):
        raise ParameterError(
            f"variation index k={k!r} is outside the {neps} deformation "
            f"variable(s) of the varied geometry")
    alpha = [0] * q.nvars
    alpha[vgeom.dim + k] = 1
    return np.asarray(q.coefficient(alpha), float)


def poly_window(u):
    """Polynomial window (1 - u^2)^10 on [-1, 1].

    Vanishes at u = +-1 together with its first nine derivatives, so a
    windowed field has interior support, and a polynomial, so a windowed
    analytic integrand stays analytic and its Gauss-Legendre quadrature
    converges exponentially.
    """
    w = 1.0 - u * u
    out = w
    for _ in range(9):
        out = out * w
    return out


# -- predicted first variations -------------------------------------------

def delta_induced_metric(geom: Geometry, phi):
    return 2.0 * jet_einsum("abi...,i...->ab...", geom.extrinsic_curvature, phi)


def delta_inverse_metric(geom: Geometry, phi):
    return -2.0 * jet_einsum("abi...,i...->ab...", geom.k_raised(phi.order),
                             phi)


def delta_sqrt_det(geom: Geometry, phi):
    kphi = jet_einsum("i...,i...->...", geom.mean_curvature, phi)
    return geom.sqrt_abs_det(kphi.order) * kphi


def delta_extrinsic(geom: Geometry, phi, gphi=None):
    """Frame-covariant first variation of K_bc^i: J phi - grad grad phi;
    ``gphi``, if given, is grad phi, ``geom.covariant_grad(phi, 0, 1)``, or
    a prefix of it."""
    gphi = geom.covariant_grad(phi, 0, 1) if gphi is None else gphi
    ddphi = geom.covariant_grad(gphi, 1, 1)
    J = geom.jacobi(ddphi.order)
    return jet_einsum("bcij...,j...->bci...", J, phi) - ddphi


def delta_twist(geom: Geometry, phi):
    """First variation of the twist connection w_a^{ij}."""
    gphi = geom.covariant_grad(phi, 0, 1)           # (d, i)
    # K_a^{b i} -> (a, b, i)
    k_up = jet_rearrange("abi...->bai...", geom.k_mixed(gphi.order))
    kg = jet_einsum("adi...,dj...->aij...", k_up, gphi)
    k_term = kg - jet_rearrange("aij...->aji...", kg)
    # rpair(n_k, e_a; n^j, n^i) = R(e_a, n_k, n_j, n_i)
    r_term = jet_einsum("akji...,k...->aij...",
                        geom.rblock("tnnn", k_term.order), phi)
    return S_DOMEGA_K * k_term + S_DOMEGA_R * r_term


def delta_wv_christoffel(geom: Geometry, phi):
    """First variation of the worldvolume connection, dG^d_{ab}."""
    P = jet_einsum("abj...,j...->ab...", geom.extrinsic_curvature, phi)
    gP = geom.covariant_grad(P, 2, 0)               # (e, a, b) = grad_e P_ab
    combo = (jet_rearrange("aeb...->eab...", gP)
             + jet_rearrange("bea...->eab...", gP)
             - gP)
    return jet_einsum("de...,eab...->dab...", geom.inverse_induced_metric, combo)


def delta_grad_extrinsic(geom: Geometry, phi, lam=None):
    """Frame-covariant first variation of grad_a K_bc^i; ``lam``, if
    given, is ``delta_extrinsic(geom, phi)``."""
    lam = delta_extrinsic(geom, phi) if lam is None else lam
    out = geom.covariant_grad(lam, 2, 1)            # (a, b, c, i)
    dG = delta_wv_christoffel(geom, phi)
    K = geom.extrinsic_curvature
    out = out - jet_einsum("dab...,dci...->abci...", dG, K)
    out = out - jet_einsum("dac...,bdi...->abci...", dG, K)
    dw = delta_twist(geom, phi)
    out = out + jet_einsum("aij...,bcj...->abci...", dw, K)
    return out


# -- scalar invariants and their predicted variations ----------------------


def scalar_invariant(geom: Geometry, name: str):
    """Pointwise scalar invariants used by the oracles; det(gamma) and
    sqrt|gamma| at order 0, whose value and eps slots their readers take."""
    if name == "det_metric":
        return geom.det_induced_metric(0)
    if name == "sqrt_det":
        return geom.sqrt_abs_det(0)
    if name not in INVARIANTS:
        raise ParameterError(f"unknown scalar invariant '{name}'")
    fn, tensor, _depth = INVARIANTS[name]
    return fn(geom.inverse_induced_metric, getattr(geom, tensor))


def predicted_delta_scalar(geom: Geometry, phi, name: str, lam=None):
    """Grid values of the chain-rule variation of a named scalar: for a
    curvature invariant, the eps coefficient of its dual-number value.

    Every curvature invariant reads ``lam = delta_extrinsic(geom, phi)``;
    pass it to compute it once for several names.
    """
    if name == "det_metric":
        kphi = jet_einsum("i...,i...->...", geom.mean_curvature, phi)
        return np.asarray((2.0 * geom.det_induced_metric(0) * kphi).value,
                          float)
    if name == "sqrt_det":
        return np.asarray(delta_sqrt_det(geom, phi.truncated(0)).value, float)
    if name not in INVARIANTS:
        raise ParameterError(f"no predicted variation for '{name}'")
    fn, tensor, _depth = INVARIANTS[name]
    lam = delta_extrinsic(geom, phi) if lam is None else lam
    delta = (delta_grad_extrinsic(geom, phi, lam)
             if tensor == "grad_extrinsic" else lam)
    gi = Jet(1, 1, [geom.inverse_induced_metric.value,
                    delta_inverse_metric(geom, phi.truncated(0)).value])
    dual = Jet(1, 1, [getattr(geom, tensor).value, delta.value])
    return np.asarray(fn(gi, dual).coefficient((1,)), float)


# -- finite-difference oracle ----------------------------------------------

@dataclass
class OracleResult:
    """Central-difference estimates at a halving eps schedule.

    ``central(eps)`` is the memoized central difference at one step; the
    estimate reads the last two steps, and only `convergence_ratio` reads
    the third-last, so that step is evaluated on its first call.
    """

    estimate: np.ndarray          # Richardson-extrapolated derivative
    eps: tuple
    central: Callable

    def convergence_ratio(self, floor: float = 1e-12):
        """(D1-D2)/(D2-D3) of the last three steps; ~4 for clean quadratic
        convergence."""
        d1, d2, d3 = (self.central(e) for e in self.eps[-3:])
        num, den = d1 - d2, d2 - d3
        ratio = np.where(np.abs(den) > floor, num / np.where(den == 0, 1, den),
                         np.nan)
        return ratio


def eps_tolerance(eps_list, floor):
    """The checks' tolerance on a difference against the oracle at the
    schedule ``eps_list``: max(``floor``, 10 min(eps)**2), since the
    Richardson estimate's error falls as eps**2."""
    return max(floor, 10.0 * min(eps_list) ** 2)


def validate_eps_schedule(eps_list):
    """Raise ParameterError unless eps_list holds at least three positive
    finite steps, each half the one before (to 1e-12 relative), as the
    ratio-2 Richardson step of `finite_difference_delta` assumes, and the
    checks' tolerance (`eps_tolerance`) is a finite float."""
    eps = np.asarray(eps_list, float)
    if eps.size < 3 or not np.all(np.isfinite(eps) & (eps > 0)):
        raise ParameterError(
            "the eps schedule needs at least three positive finite steps")
    small = float(eps.min())
    try:
        finite = np.isfinite(eps_tolerance([small], 0.0))
    except OverflowError:       # a float's ** raises where * gives inf
        finite = False
    if not finite:
        raise ParameterError(f"eps {small!r} overflows its tolerance 10 eps**2")
    if np.any(np.abs(eps[1:] - 0.5 * eps[:-1]) > 1e-12 * 0.5 * eps[:-1]):
        raise ParameterError("each eps step must be half the one before")


def finite_difference_delta(geom: Geometry, V, extract, eps_list=EPS_SCHEDULE):
    """Oracle derivative of ``extract(geometry)`` along the deformation V.

    ``extract`` maps a Geometry to an ndarray; eps_list must halve (see
    `validate_eps_schedule`).
    """
    validate_eps_schedule(eps_list)

    @lru_cache(maxsize=None)
    def central(eps):
        sp = np.asarray(extract(deformed_geometry(geom, V, +eps)), float)
        sm = np.asarray(extract(deformed_geometry(geom, V, -eps)), float)
        return (sp - sm) / (2.0 * eps)

    d2, d3 = central(eps_list[-2]), central(eps_list[-1])
    estimate = (4.0 * d3 - d2) / 3.0
    return OracleResult(estimate=estimate, eps=tuple(eps_list), central=central)
