"""Ambient metrics with their connection and curvature.

A :class:`BackgroundMetric` describes the space an embedded worldvolume
lives in: a metric component function plus closed-form connection and
curvature functions.  A ``flat`` background has zero connection and
curvature and needs neither; a curved one must supply both, as every
catalog background does.  Nothing is extracted from the metric function.

All tensor-returning methods accept coordinates that are plain numbers,
arrays, or jets (the geometry pipeline passes worldvolume-parameter jets),
and return tensor jets whose leading axes are the tensor indices, stacked
from the nested component lists by `jets.jet_stack`.  A tensor whose
components are all constants (a flat metric) carries no grid axes and
broadcasts through einsum's ``...``.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import jets
from .errors import ParameterError, PreconditionError
from .jets import (
    Jet,
    jet_einsum,
    jet_rearrange,
    jet_stack,
)

__all__ = [
    "BackgroundMetric",
    "minkowski",
    "euclidean",
    "round_sphere_background",
    "product_background",
    "product_spheres_background",
    "christoffel_from_metric",
    "riemann_from_metric",
]


def _normalize_coords(coords):
    """Lift all coordinates to jets sharing one (nvars, order); return them
    and the first as the template."""
    kinds = {(c.nvars, c.order, c.eps) for c in coords if isinstance(c, Jet)}
    if len(kinds) > 1:
        raise PreconditionError(
            "coordinate jets must share nvars, order and eps variables")
    kind = kinds.pop() if kinds else (1, 0)
    out = [c if isinstance(c, Jet)
           else Jet.constant(np.asarray(c, float), *kind) for c in coords]
    return out, out[0]


@dataclass
class BackgroundMetric:
    """Ambient space: metric components plus closed-form geometry.

    metric_fn(*coords) returns a dim x dim nested sequence of components;
    christoffel_fn returns [rho][mu][nu] (upper first index); riemann_fn
    returns the all-lower R_{a b m n}.  ``flat`` short-circuits connection
    and curvature to zero.  A curved background must bring both closed
    forms: connection and curvature are not derived from ``metric_fn``, and
    construction without them raises `ParameterError`.
    """

    name: str
    dim: int
    metric_fn: Callable
    christoffel_fn: Optional[Callable] = None
    riemann_fn: Optional[Callable] = None
    flat: bool = False

    def __post_init__(self):
        _check_dim(f"background {self.name}", self.dim, 1)
        if not self.flat and (self.christoffel_fn is None
                              or self.riemann_fn is None):
            raise ParameterError(
                f"curved background {self.name} needs closed-form "
                "christoffel_fn and riemann_fn")

    # -- tensor-jet interface (used by the geometry pipeline) ------------
    def metric_tensor(self, coords):
        coords, template = _normalize_coords(coords)
        return jet_stack(self.metric_fn(*coords), template)

    def christoffel_tensor(self, coords):
        """Connection G^r_{m n}(x) with axes (r, m, n)."""
        coords, template = _normalize_coords(coords)
        if self.flat:
            return jet_stack(_zeros(self.dim, 3), template)
        return jet_stack(self.christoffel_fn(*coords), template)

    def riemann_tensor(self, coords):
        """All-lower curvature R_{a b m n}(x)."""
        coords, template = _normalize_coords(coords)
        if self.flat:
            return jet_stack(_zeros(self.dim, 4), template)
        return jet_stack(self.riemann_fn(*coords), template)

    # -- point-value interface -------------------------------------------
    def metric_at(self, point):
        return np.asarray(self.metric_tensor(list(np.asarray(point, float))).value,
                          float)

    def christoffel_at(self, point):
        coords = list(np.asarray(point, float))
        return np.asarray(self.christoffel_tensor(coords).value, float)

    def riemann_at(self, point):
        coords = list(np.asarray(point, float))
        return np.asarray(self.riemann_tensor(coords).value, float)


# -- metric -> connection -> curvature (of the induced metric, in Geometry) --

def _gamma_lower(dg):
    # G_{r m n} = (d_m g_{rn} + d_n g_{rm} - d_r g_{mn}) / 2, dg[a] = d_a g
    return 0.5 * (
        jet_rearrange("mrn...->rmn...", dg)
        + jet_rearrange("nrm...->rmn...", dg)
        - dg
    )


def christoffel_from_metric(ginv, dg):
    """G^r_{m n} from an inverse metric jet ginv (r,l) and the metric
    gradient dg (a,m,n)."""
    return jet_einsum("rl...,lmn...->rmn...", ginv, _gamma_lower(dg))


def riemann_from_metric(g, ginv, dg, ddg):
    """All-lower R_{a b m n} from the metric, its inverse, gradient and
    hessian jets, as a jet of ``ddg``'s order.

    Every term joins a sum with the ``ddg`` term, so g, ginv and dg are
    contracted truncated to that order (a lower jet order is a
    bit-identical prefix).  On an induced metric, whose partials each lose
    an order, that is one order below dg."""
    g, ginv, dg = (j.truncated(ddg.order) for j in (g, ginv, dg))
    low = _gamma_lower(dg)
    gamma = jet_einsum("rl...,lmn...->rmn...", ginv, low)
    # d_a G_{l m n} with ddg[a,b] = d_a d_b g
    dlow = 0.5 * (
        jet_rearrange("amln...->almn...", ddg)
        + jet_rearrange("anlm...->almn...", ddg)
        - ddg
    )
    # d_a g^{r l} = -g^{r p} (d_a g_{p q}) g^{q l}
    dginv = -jet_einsum(
        "rp...,apql...->arl...",
        ginv,
        jet_einsum("apq...,ql...->apql...", dg, ginv),
    )
    dgamma = jet_einsum("arl...,lmn...->armn...", dginv, low) + jet_einsum(
        "rl...,almn...->armn...", ginv, dlow
    )
    gg = jet_einsum("rml...,lns...->rmns...", gamma, gamma)
    dg_term = jet_rearrange("mrns...->rsmn...", dgamma)  # d_m G^r_{n s}
    gg_term = jet_rearrange("rmns...->rsmn...", gg)      # G^r_{m l} G^l_{n s}
    upper = (
        dg_term
        - jet_rearrange("rsnm...->rsmn...", dg_term)
        + gg_term
        - jet_rearrange("rsnm...->rsmn...", gg_term)
    )
    return jet_einsum("rk...,ksmn...->rsmn...", g, upper)


# -- catalog ---------------------------------------------------------------

def _check_dim(name, dim, least):
    if not isinstance(dim, (int, np.integer)) or dim < least:
        raise ParameterError(
            f"{name} needs an integer dim >= {least}, got {dim!r}")


def _flat(name, dim, first):
    """Constant diagonal metric diag(first, 1, ..., 1)."""
    _check_dim(f"{name} background", dim, 1)
    eta = np.diag([first] + [1.0] * (dim - 1))
    return BackgroundMetric(name=f"{name}{dim}", dim=dim, flat=True,
                            metric_fn=lambda *coords: eta.tolist())


def minkowski(dim: int) -> BackgroundMetric:
    """Flat (-,+,...,+) space in inertial coordinates."""
    return _flat("minkowski", dim, -1.0)


def euclidean(dim: int) -> BackgroundMetric:
    """Flat euclidean space in cartesian coordinates."""
    return _flat("euclidean", dim, 1.0)


def round_sphere_background(dim: int, radius: float = 1.0) -> BackgroundMetric:
    """Round sphere of the given radius in hyperspherical angles.

    Coordinates (x_1, ..., x_dim) with metric
    g_ii = radius^2 * prod_{k<i} sin^2(x_k); the final angle is periodic.
    """
    _check_dim("round sphere background", dim, 2)
    if not isinstance(radius, numbers.Real) or not 0.0 < radius < np.inf:
        raise ParameterError(
            f"radius must be a positive finite number, got {radius!r}")
    r2 = float(radius) ** 2

    def metric_fn(*coords):
        rows = [[0.0] * dim for _ in range(dim)]
        f = 1.0
        for i in range(dim):
            rows[i][i] = r2 * f if i else r2
            if i < dim - 1:
                s = jets.sin(coords[i])
                f = f * s * s
        return rows

    def christoffel_fn(*coords):
        # G^i_{jj} = -sin x_i cos x_i * prod_{i<k<j} sin^2 x_k   (i < j)
        # G^j_{ij} = G^j_{ji} = cos x_i / sin x_i                (i < j)
        rows = [[[0.0] * dim for _ in range(dim)] for _ in range(dim)]
        sins = [jets.sin(c) for c in coords[: dim - 1]]
        coss = [jets.cos(c) for c in coords[: dim - 1]]
        for i in range(dim - 1):
            for j in range(i + 1, dim):
                prod = -1.0 * sins[i] * coss[i]
                for k in range(i + 1, j):
                    prod = prod * sins[k] * sins[k]
                rows[i][j][j] = prod
                cot = coss[i] / sins[i]
                rows[j][i][j] = cot
                rows[j][j][i] = cot
        return rows

    def riemann_fn(*coords):
        g = metric_fn(*coords)
        rows = [
            [
                [
                    [
                        (g[a][m] * g[b][n] - g[a][n] * g[b][m]) / r2
                        for n in range(dim)
                    ]
                    for m in range(dim)
                ]
                for b in range(dim)
            ]
            for a in range(dim)
        ]
        return rows

    return BackgroundMetric(
        name=f"sphere{dim}(r={radius})",
        dim=dim,
        metric_fn=metric_fn,
        christoffel_fn=christoffel_fn,
        riemann_fn=riemann_fn,
    )


def product_background(*factors: BackgroundMetric) -> BackgroundMetric:
    """Product of backgrounds, coordinates concatenated factor by factor.

    The metric, the connection G^r_{mn} and the all-lower Riemann tensor of
    a product are block diagonal: an entry vanishes unless all its indices
    lie in one factor, where it is that factor's entry.  Connection and
    curvature are assembled from the factors' closed forms; a flat factor
    contributes zeros.
    """
    if not factors:
        raise ParameterError("a product background needs at least one factor")
    offsets = np.cumsum([0] + [f.dim for f in factors]).tolist()
    dim = offsets[-1]

    def block_diagonal(fns, rank):
        def fn(*coords):
            out = _zeros(dim, rank)
            for f, o, ffn in zip(factors, offsets, fns):
                if ffn is not None:
                    _place(out, ffn(*coords[o:o + f.dim]), o, rank)
            return out
        return fn

    def closed_form(attr, rank):
        return block_diagonal(
            [None if f.flat else getattr(f, attr) for f in factors], rank)

    return BackgroundMetric(
        name="x".join(f.name for f in factors),
        dim=dim,
        metric_fn=block_diagonal([f.metric_fn for f in factors], 2),
        christoffel_fn=closed_form("christoffel_fn", 3),
        riemann_fn=closed_form("riemann_fn", 4),
        flat=all(f.flat for f in factors),
    )


def _zeros(dim, rank):
    """Nested lists of 0.0, ``rank`` levels of ``dim`` entries."""
    return [_zeros(dim, rank - 1) for _ in range(dim)] if rank else 0.0


def _place(out, block, offset, rank):
    """Write a factor's nested block into ``out`` at ``offset`` on every
    level."""
    for a, entry in enumerate(block):
        if rank == 1:
            out[offset + a] = entry
        else:
            _place(out[offset + a], entry, offset, rank - 1)


def product_spheres_background(r1: float = 1.0, r2: float = 1.0) -> BackgroundMetric:
    """S^2(r1) x S^2(r2) in angles (t1, p1, t2, p2).

    Product of two round spheres.  Unlike a single sphere this is not a
    constant-curvature space: the Riemann tensor is block diagonal per
    factor, so mixed contractions that cancel identically on maximally
    symmetric backgrounds survive here.  Useful for exercising curvature
    couplings that constant-curvature catalogs cannot see.
    """
    return replace(
        product_background(round_sphere_background(2, r1),
                           round_sphere_background(2, r2)),
        name=f"s2xs2(r1={r1},r2={r2})",
    )
