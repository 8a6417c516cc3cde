"""Embedded worldvolumes and their induced geometry.

An :class:`Embedding` is a map from worldvolume parameters into a background
space.  Calling :meth:`Embedding.geometry` seeds the parameters as truncated
Taylor jets and returns a :class:`Geometry` whose properties (tangents,
orthonormal normal frame, induced metric, extrinsic curvature, twist
connection, covariant derivatives, intrinsic and pulled-back ambient
curvature) are computed lazily and exactly at the chosen expansion order.

Grids pair parameter meshes with quadrature weights, one rule per kind of
axis: Gauss-Legendre on bounded axes (its nodes lie strictly inside the
interval, which keeps chart-boundary points such as sphere poles off the
stencil) and the uniform trapezoid rule on periodic ones, so analytic
integrands converge exponentially on both.
"""
from __future__ import annotations

import string
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, reduce
from typing import Callable

import numpy as np

from . import jets
from .backgrounds import (
    BackgroundMetric,
    christoffel_from_metric,
    riemann_from_metric,
)
from .errors import (
    DegenerateGeometryError,
    DomainError,
    ParameterError,
    PreconditionError,
)
from .jets import (
    Jet,
    jet_einsum,
    jet_det,
    jet_matinv,
    jet_rearrange,
    jet_stack,
)

__all__ = [
    "ParamAxis",
    "Embedding",
    "Grid",
    "Geometry",
    "INVARIANTS",
    "make_grid",
    "line_grid",
    "integrate",
    "plane",
    "sphere_polar",
    "cylinder",
    "ellipsoid",
    "torus_e3",
    "flat_torus_e4",
    "bumpy_torus_e4",
    "graph_surface_e4",
    "static_string",
    "traveling_wave",
    "perturbed_sphere",
    "s3_curve",
    "s2_latitude",
    "surface_s2xs2",
]

_RESIDUAL_FLOOR = 1e-10


@dataclass(frozen=True)
class ParamAxis:
    """One worldvolume parameter: name, range and periodicity."""

    name: str
    lo: float
    hi: float
    periodic: bool = False


@dataclass(frozen=True)
class Embedding:
    """A parameterized worldvolume inside a background space.

    map_fn(*params) must return a sequence of ``background.dim`` components
    built from its arguments with jet-safe operations.
    """

    name: str
    background: BackgroundMetric
    axes: tuple
    map_fn: Callable

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def codim(self) -> int:
        return self.background.dim - self.dim

    def __post_init__(self):
        if not 1 <= self.dim <= 3:
            raise ParameterError(
                f"{self.name}: a worldvolume needs 1 to 3 axes, got {self.dim}")
        if self.codim < 1:
            raise ParameterError("embedding needs at least one normal direction")

    def validate_params(self, params):
        for ax, p in zip(self.axes, params):
            vals = np.asarray(p, float)
            if not np.all(np.isfinite(vals)):
                raise DomainError(f"{self.name}: parameter {ax.name} must be "
                                  "finite")
            if ax.periodic:
                continue
            if np.any(vals < ax.lo - 1e-12) or np.any(vals > ax.hi + 1e-12):
                raise DomainError(
                    f"{self.name}: parameter {ax.name} outside [{ax.lo}, {ax.hi}]"
                )

    def embedding_jet(self, params, order):
        """The embedding map as a tensor jet (ambient axis leading)."""
        if len(params) != self.dim:
            raise ParameterError(
                f"{self.name} expects {self.dim} parameters, got {len(params)}"
            )
        if not isinstance(order, (int, np.integer)) or order < 0:
            raise ParameterError(
                f"{self.name}: jet order must be a whole number >= 0, "
                f"got {order!r}")
        self.validate_params(params)
        xi = jets.variables(params, order)
        comps = list(self.map_fn(*xi))
        if len(comps) != self.background.dim:
            raise PreconditionError(
                f"{self.name}: map returned {len(comps)} components, "
                f"background has dimension {self.background.dim}"
            )
        return jet_stack(comps, template=xi[0]), xi

    def geometry(self, params, order):
        X, xi = self.embedding_jet(params, order)
        return Geometry(self.background, X, params=xi, embedding=self)

    def grid_geometry(self, grid, order):
        """`geometry` on the nodes of ``grid``, which must be built on this
        chart's axes."""
        if grid.axes != self.axes:
            raise ParameterError(
                f"{self.name}: the grid was built on axes "
                f"{[ax.name for ax in grid.axes]}, not on this chart's "
                f"{[ax.name for ax in self.axes]}")
        return self.geometry(grid.mesh, order)


# -- quadrature grids -------------------------------------------------------


@dataclass(frozen=True)
class Grid:
    """Parameter mesh plus quadrature weights (Gauss-Legendre on bounded
    axes, uniform on periodic ones) and the chart axes it was built on."""

    mesh: tuple            # broadcast grid arrays, indexing="ij"
    weight: np.ndarray     # full quadrature weight array
    axes: tuple            # the embedding's ParamAxis tuple

    @property
    def shape(self):
        return self.weight.shape


@lru_cache(maxsize=16)
def _leggauss(n: int):
    """The raw n-point Gauss-Legendre rule (x, w) on [-1, 1], read-only,
    kept per n: each is an n x n eigenproblem (0.76 ms at n = 32)."""
    # imported here: an import of the package that builds no bounded grid
    # does not pay for numpy.polynomial
    from numpy.polynomial.legendre import leggauss
    x, w = leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _axis_nodes(ax: ParamAxis, n: int):
    """Nodes and weights of n points on one axis: the uniform rule on a
    periodic axis, Gauss-Legendre mapped to [lo, hi] on a bounded one."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ParameterError(
            f"grid needs a whole number >= 1 of points per axis, got {n!r}")
    if ax.periodic:
        h = (ax.hi - ax.lo) / n
        return ax.lo + h * np.arange(n), np.full(n, h)
    x, w = _leggauss(int(n))
    half = 0.5 * (ax.hi - ax.lo)
    return 0.5 * (ax.hi + ax.lo) + half * x, half * w


def make_grid(embedding: Embedding, shape) -> Grid:
    if isinstance(shape, (int, np.integer)):
        shape = (shape,) * embedding.dim
    if np.ndim(shape) != 1 or len(shape) != embedding.dim:
        raise ParameterError(
            f"grid shape must be a point count or {embedding.dim} of them, "
            f"got {shape!r}")
    pts, ws = zip(*[_axis_nodes(ax, n) for ax, n in zip(embedding.axes, shape)])
    mesh = np.meshgrid(*pts, indexing="ij") if len(pts) > 1 else [pts[0]]
    return Grid(mesh=tuple(mesh), weight=reduce(np.multiply.outer, ws),
                axes=embedding.axes)


def line_grid(embedding: Embedding, axis: int, n: int, fixed: dict) -> Grid:
    """1-d grid along one axis with the remaining parameters held fixed."""
    if not isinstance(axis, (int, np.integer)) or not 0 <= axis < embedding.dim:
        raise ParameterError(
            f"line_grid: axis {axis!r} is not one of the {embedding.dim} axes")
    pts, w = _axis_nodes(embedding.axes[axis], n)
    mesh = []
    for a, axx in enumerate(embedding.axes):
        if a == axis:
            mesh.append(pts)
        else:
            if axx.name not in fixed:
                raise ParameterError(f"line_grid: missing fixed value for {axx.name}")
            (val,) = _finite(f"line_grid: fixed {axx.name}", fixed[axx.name])
            mesh.append(np.full_like(pts, val))
    return Grid(mesh=tuple(mesh), weight=w, axes=embedding.axes)


def integrate(values, grid: Grid):
    """Quadrature sum of pointwise values over the grid."""
    vals = np.asarray(values, float)
    if vals.shape[vals.ndim - grid.weight.ndim:] != grid.shape:
        raise ParameterError(f"integrate: values of shape {vals.shape} do not "
                             f"end in the grid shape {grid.shape}")
    axes = tuple(range(vals.ndim - grid.weight.ndim, vals.ndim))
    return (vals * grid.weight).sum(axis=axes)


# -- curvature invariants ---------------------------------------------------
#
# Each invariant is written once, as a function of gamma^{ab} and K_ab^i or
# grad_a K_bc^i: it evaluates on a Geometry's jets and on the grid-value dual
# numbers of `deformation.predicted_delta_scalar`.  `Geometry` repeats the
# last contraction of the first two on its cached partners.

def _k_squared(gi, K):
    """K^i K_i (mean curvature squared)."""
    m = jet_einsum("ab...,abi...->i...", gi, K)
    return jet_einsum("i...,i...->...", m, m)


def _k_dot_k(gi, K):
    """K_{ab}^i K^{ab}_i."""
    k_mixed = jet_einsum("ac...,cbi...->abi...", gi, K)
    k_raised = jet_einsum("bd...,adi...->abi...", gi, k_mixed)
    return jet_einsum("abi...,abi...->...", K, k_raised)


def _gradk_full(gi, gk):
    """grad_a K_bc^i grad^a K^{bc}_i."""
    up = jet_einsum("ad...,dbci...->abci...", gi, gk)
    up = jet_einsum("be...,aeci...->abci...", gi, up)
    up = jet_einsum("cf...,abfi...->abci...", gi, up)
    return jet_einsum("abci...,abci...->...", gk, up)


def _gradk_mean(gi, gk):
    """grad_a K^i grad^a K_i, with grad_a K^i = gamma^{bc} grad_a K_bc^i."""
    gm = jet_einsum("bc...,abci...->ai...", gi, gk)
    gm_up = jet_einsum("ab...,bi...->ai...", gi, gm)
    return jet_einsum("ai...,ai...->...", gm, gm_up)


# name -> (invariant, tensor read besides gamma^{ab}, derivatives of X in it)
INVARIANTS = {
    "k_squared": (_k_squared, "extrinsic_curvature", 2),
    "k_dot_k": (_k_dot_k, "extrinsic_curvature", 2),
    "gradk_full": (_gradk_full, "grad_extrinsic", 3),
    "gradk_mean": (_gradk_mean, "grad_extrinsic", 3),
}


def _add_blocks(base, axis, dim, terms):
    """Tensor jet ``base`` (None: zero) plus each (offset, term) of ``terms``
    on rows offset.. of its tensor axis ``axis`` (of length ``dim``), as
    ``+`` adds them, at the lowest order among them."""
    if not terms:
        return base
    jl = [t for _o, t in terms] + ([] if base is None else [base])
    lead = min(jl, key=lambda j: j.order)
    out = []
    for k in range(len(lead.c)):
        x = None if base is None else base.c[k]
        ys = [(o, t.c[k]) for o, t in terms if t.c[k] is not None]
        if not ys:
            out.append(x)
            continue
        shape = np.broadcast_shapes(
            np.shape(x), *(y.shape[:axis] + (dim,) + y.shape[axis + 1:]
                           for _o, y in ys))
        s = np.zeros(shape)
        if x is not None:
            s[...] = x
        for o, y in ys:
            s[(slice(None),) * axis + (slice(o, o + y.shape[axis]),)] += y
        out.append(s)
    return Jet(lead.nvars, lead.order, out, lead.eps)


# -- induced geometry -------------------------------------------------------


class Geometry:
    """Lazily evaluated induced geometry of one embedded worldvolume.

    Tensor index layout (leading axes before the grid axes):
      tangents[a, mu], normals[i, mu], induced_metric(order)[a, b],
      extrinsic_curvature[a, b, i], k_mixed(order)[a, b, i] (K^a_b^i),
      k_raised(order)[a, b, i] (K^{ab}_i), wv_christoffel(order)[c, a, b],
      twist(order)[a, i, j], grad_extrinsic[a, b, c, i]
      (worldvolume-covariant derivative), rblock(legs, order) (all-lower
      ambient curvature projected on the tangents 't' and normals 'n',
      one axis per leg: rblock("nttn", m)[i, a, b, j]),
      jacobi(order)[b, c, i, j].

    Sums and contractions align jets to the lower order, so each term is
    built at the order of the sum it joins: a derivative's connection term
    at the order of the partials (one below the field), the ambient
    connection two below the map, the intrinsic curvature's products at
    the order of the metric's second partials (three below the map).  The
    tensors read through a method with an ``order`` are built at the order
    their caller asks for (`_at_order`), capped at the order the map
    leaves them: g_{mn}, gamma_ab and gamma^{ab} (`_metric`), the normal
    frame and its lowering (K reads them two below the map,
    ``twist(order)`` the frame at order + 1), det(gamma) and
    sqrt|gamma| (order 0 for a reader of values, the order of the jet they
    weight otherwise), K^a_b^i and K^{ab}_i, the worldvolume connection,
    and each curvature block and the factor's Riemann tensor under it (at
    order 1 or lower).  So each cached tensor sits a fixed number of
    orders below the map (or at 0), and in truncated Taylor arithmetic
    the same worldvolume at a lower order is a prefix of this one, bit
    for bit (`truncated`).

    The worldvolume variables are the first ``dim`` jet variables, one per
    parameter jet in ``params``; ``embedding`` is the chart they live on.
    Any later variables (the deformation parameters of
    `deformation.varied_geometry`) ride along undifferentiated.
    """

    def __init__(self, background, X, params, embedding):
        self.background = background
        self.X = X
        self.params = params
        self.embedding = embedding
        self._held = {}              # name -> highest-order jet built (`_at_order`)
        self.dim = len(params)
        self.ambient_dim = int(np.asarray(X.value).shape[0])
        self.codim = self.ambient_dim - self.dim
        if self.codim < 1:
            raise PreconditionError("worldvolume must have positive codimension")

    @property
    def order(self):
        return self.X.order

    @staticmethod
    def _order(name, order):
        """``order``, which ``name`` is asked for at; `PreconditionError`
        unless it is a whole number >= 0 (a bool or 2.0 is not one)."""
        if not (isinstance(order, (int, np.integer))
                and not isinstance(order, bool) and order >= 0):
            raise PreconditionError(
                f"{name} needs an order >= 0, a whole number, got {order!r}")
        return order

    def _at_order(self, name, order, top, build, low=0):
        """``build(m)`` at m = min(max(``order``, ``low``), ``top``).  The
        highest m built so far is kept under ``name``, and a lower order is
        read as its prefix, in truncated Taylor arithmetic bit-identical."""
        order = min(self._order(name, order), top)
        held = self._held.get(name)
        if held is None or held.order < order:
            held = self._held[name] = build(min(max(order, low), top))
        return held.truncated(order)

    def truncated(self, order):
        """The same worldvolume at jet order ``order``, reading as prefixes
        the tensors built here: each cached jet cut by the drop in order
        (unbuilt below 0), the value-only ones as they are (unbuilt if the
        view has no tangents), and a copy of ``_held``."""
        drop = self.order - order
        view = Geometry(self.background, self.X.truncated(order),
                        [p.truncated(order) for p in self.params],
                        self.embedding)
        for name, val in vars(self).items():
            if not isinstance(getattr(Geometry, name, None), cached_property):
                continue
            if isinstance(val, Jet) and val.order >= drop:
                view.__dict__[name] = val.truncated(val.order - drop)
            elif not isinstance(val, Jet) and order >= 1:  # has tangents
                view.__dict__[name] = val
        view._held = dict(self._held)
        return view

    def partials(self, j):
        """First partials of a tensor jet in the worldvolume variables,
        stacked on a new leading axis."""
        return jet_stack([j.partial(d) for d in range(self.dim)])

    @cached_property
    def grid_shape(self):
        return tuple(np.asarray(self.X.value).shape[1:])

    def _x_components(self, order):
        """Ambient components of the map, truncated to jet order ``order``."""
        X = self.X.truncated(order)
        return [X[mu] for mu in range(self.ambient_dim)]

    def _metric(self, name, order, build):
        """g_{mn}, gamma_ab or gamma^{ab} at min(``order``, the tangents'
        order) (`_at_order`), built at no less than K's order, so an earlier
        read of values builds it once for the readers up to K's order."""
        top = self.tangents.order
        return self._at_order(name, order, top, build, top - 1)

    def ambient_metric(self, order):
        """g_{mn} along the map (`_metric`)."""
        return self._metric("ambient_metric", order, lambda m:
                            self.background.metric_tensor(self._x_components(m)))

    @cached_property
    def tangents(self):
        return self.partials(self.X)

    def _dot(self, u, v):
        """Ambient inner product of two vector jets (mu leading)."""
        gv = jet_einsum("mn...,n...->m...", self.ambient_metric(v.order), v)
        return jet_einsum("m...,m...->...", u, gv)

    def induced_metric(self, order):
        """gamma_ab = g(e_a, e_b) (`_metric`)."""
        e = self.tangents
        return self._metric("induced_metric", order, lambda m: jet_einsum(
            "am...,bm...->ab...", e, jet_einsum(
                "mn...,bn...->bm...", self.ambient_metric(m), e)))

    def check_nondegenerate(self):
        """Raise DegenerateGeometryError naming the first grid indices (up
        to 8) where det(gamma) is not finite or below 1e-14 in size."""
        det = np.asarray(self.det_induced_metric(0).value, float)
        bad = ~np.isfinite(det) | (np.abs(det) < 1e-14)
        if np.any(bad):
            idx = np.argwhere(bad)[:8].tolist()
            raise DegenerateGeometryError(
                f"degenerate induced metric at grid indices {idx}"
                + ("" if np.count_nonzero(bad) <= 8 else " (truncated)"))

    def inverse_induced_metric(self, order):
        """gamma^{ab} (`_metric`), from gamma read before its check."""
        def build(m):
            gamma = self.induced_metric(m)
            self.check_nondegenerate()
            try:
                return jet_matinv(gamma)
            except np.linalg.LinAlgError as exc:
                raise DegenerateGeometryError("induced metric is singular") from exc
        return self._metric("inverse_induced_metric", order, build)

    def _with_inverse(self, spec, T):
        """jet_einsum(spec, gamma^{ab}, T), gamma^{ab} read at T's order."""
        return jet_einsum(spec, self.inverse_induced_metric(T.order), T)

    def det_induced_metric(self, order):
        """det(gamma) at order min(``order``, the metric's) (`_at_order`)."""
        return self._at_order(
            "det_induced_metric", order, self.tangents.order,
            lambda m: jet_det(self.induced_metric(m)))

    @cached_property
    def metric_sign(self):
        """Sign of det(induced metric): -1 on Lorentzian worldvolumes."""
        s = np.sign(np.asarray(self.det_induced_metric(0).value, float))
        if np.any(s == 0):
            self.check_nondegenerate()
        return s

    def sqrt_abs_det(self, order):
        """sqrt|det(gamma)| at order min(``order``, the metric's): a reader
        asks for the order of the jet it weights (`_at_order`).  det(gamma)
        is read at that order before `metric_sign` reads its value, so it
        is built once."""
        return self._at_order(
            "sqrt_abs_det", order, self.tangents.order,
            lambda m: (self.det_induced_metric(m) * self.metric_sign).sqrt())

    def chart_components(self, W):
        """Chart components gamma^{ab} <e_b, W> of an ambient vector jet W,
        (mu, ...) -> (a, ...); further axes ride through einsum's ``...``."""
        return self._chart_of_lowered(
            jet_einsum("mn...,n...->m...", self.ambient_metric(W.order), W))

    def _chart_of_lowered(self, gW):
        """`chart_components` of W from its lowering gW = g_{mn} W^n."""
        low = jet_einsum("bm...,m...->b...", self.tangents, gW)
        return self._with_inverse("ab...,b...->a...", low)

    def _off_tangent(self, cols, order):
        """The 0/1 fields ``cols``, each (D, grid...), as the columns w_k of a
        constant jet of order ``order``, projected off the tangent space:
        r_k = w_k - e_a gamma^{ab} <e_b, w_k>, a (D, k) jet."""
        shape = (self.ambient_dim,) + self.grid_shape
        W = Jet.constant(np.stack([np.broadcast_to(c, shape) for c in cols], 1)
                         .astype(float), self.X.nvars, order, self.X.eps)
        return W - jet_einsum("ak...,am...->mk...", self.chart_components(W),
                              self.tangents)

    @cached_property
    def _normal_picks(self):
        """The 0/1 fields (D, grid...) of the k basis vectors the normal
        frame projects, picked on values: every ambient basis vector is
        projected off the tangent space at once, at jet order 0; each pick
        is the pointwise longest column, which is then normalized and
        removed from every column.  In codimension >= 2 the pick can jump
        between neighbouring nodes."""
        D, k = self.ambient_dim, self.codim
        g = self.ambient_metric(0)
        slot = np.arange(D).reshape((D,) + (1,) * len(self.grid_shape))
        R = self._off_tangent([slot == m for m in range(D)], 0)
        g0 = np.asarray(g.value, float)
        picks = []
        for _ in range(k):
            r0 = np.asarray(R.value, float)
            norm_arr = np.einsum("mk...,mk...->k...", r0,
                                 np.einsum("mn...,nk...->mk...", g0, r0))
            if np.any(np.max(norm_arr, axis=0) <= _RESIDUAL_FLOOR):
                raise DegenerateGeometryError(
                    "no spacelike normal direction found (degenerate frame)"
                )
            picks.append(slot == np.argmax(norm_arr, axis=0))
            if len(picks) < k:
                n = jet_einsum("mk...,k...->m...", R, picks[-1].astype(float))
                n = n / self._dot(n, n).sqrt()
                coef = jet_einsum("m...,mk...->k...", n,
                                  jet_einsum("mn...,nk...->mk...", g, R))
                R = R - jet_einsum("k...,m...->mk...", coef, n)
        return picks

    def normal_frame(self, order):
        """Orthonormal spacelike normal frame (i, mu), orientation-fixed: the
        `_normal_picks` projected off the tangent space at order
        min(``order``, the tangents' order) and orthonormalized column by
        column (`_at_order`)."""
        return self._at_order("normal_frame", order, self.tangents.order,
                              self._build_normal_frame)

    def _build_normal_frame(self, order):
        D, d, k = self.ambient_dim, self.dim, self.codim
        grid = self.grid_shape
        self.inverse_induced_metric(order)   # before the picks read values
        R = self._off_tangent(self._normal_picks, order)
        normals = []
        for i in range(k):
            r = R[:, i]
            for n_prev in normals:
                r = r - self._dot(n_prev, r) * n_prev
            normals.append(r / self._dot(r, r).sqrt())

        frame_vals = [np.broadcast_to(np.asarray(v.value, float), (D,) + grid)
                      for v in (self.tangents[a] for a in range(d))]
        frame_vals += [np.broadcast_to(np.asarray(n.value, float), (D,) + grid)
                       for n in normals]
        M = np.stack(frame_vals, axis=-1)          # (mu, grid..., A)
        M = np.moveaxis(M, 0, -2)                  # (grid..., mu, A)
        det = np.linalg.det(M)
        if np.any(det == 0):
            raise DegenerateGeometryError("combined frame is singular")
        normals[-1] = normals[-1] * np.sign(det)
        return jet_stack(normals, template=self.X)

    @cached_property
    def normals(self):
        """The normal frame at the tangents' order, which a deformation
        field phi^i n_i needs (`deformation.deformation_vector`)."""
        return self.normal_frame(self.tangents.order)

    def _christoffel_tangents(self, offset, block):
        """G^m_{rs} e_a^r, axes (m, a, s), of the background block ``block``
        at ``offset``, kept one order below the tangents (`_at_order`): the
        order of `ambient_covariant`'s connection term."""
        def build(order):
            rows = slice(offset, offset + block.dim)
            G = block.christoffel_tensor(self._x_components(order)[rows])
            return jet_einsum("mrs...,ar...->mas...", G, self.tangents[:, rows])
        top = max(self.tangents.order - 1, 0)
        return self._at_order(f"_christoffel_tangents[{offset}]", top, top,
                              build)

    def ambient_covariant(self, W):
        """Pulled-back covariant derivative D_a W = d_a W + G^m_{rs} e_a^r W^s.

        ``W`` carries the ambient index on its last tensor axis, after any
        others: (k..., mu) -> (a, k..., mu).  Each block of the background
        (`BackgroundMetric.blocks`; a product per factor) adds its term into
        its rows of d_a W, so only exact zeros are skipped.  A flat
        background has none: D_a W is d_a W, at most a zero's sign flipped.
        """
        dW = self.partials(W)
        n = np.ndim(W.value) - len(self.grid_shape) - 1
        k, W = "bcd"[:n], W.truncated(dW.order)
        terms = [(o, jet_einsum(f"mas...,{k}s...->a{k}m...",
                                self._christoffel_tangents(o, block),
                                W[(slice(None),) * n + (slice(o, o + block.dim),)]))
                 for o, block in self.background.blocks]
        return _add_blocks(dW, n + 1, self.ambient_dim, terms)

    @property
    def second_fundamental(self):
        """Ambient-covariant second derivative of the map: (a, b, mu).

        Only K reads it, so it is not kept past K's build."""
        return self.ambient_covariant(self.tangents)

    def _lowered_normals(self, order):
        """g_{mn} n^n with axes (i, m), shared by K and the twist, at order
        min(``order``, the tangents' order) (`_at_order`).

        Its present coefficients are kept as one block: many small arrays,
        held for the geometry's life, fragment the heap (peak RSS +3.5 MiB
        on the ``curved-high-order`` bench workload)."""
        def build(order):
            gn = jet_einsum("mn...,in...->im...", self.ambient_metric(order),
                            self.normal_frame(order))
            block = iter(np.stack([x for x in gn.c if x is not None]))
            return Jet(gn.nvars, gn.order,
                       [None if x is None else next(block) for x in gn.c],
                       gn.eps)
        return self._at_order("_lowered_normals", order, self.tangents.order,
                              build)

    @cached_property
    def extrinsic_curvature(self):
        """K[a, b, i] = -<n^i, D_a e_b>, with the frame at K's order."""
        sf = self.second_fundamental
        return -1.0 * jet_einsum("abm...,im...->abi...", sf,
                                 self._lowered_normals(sf.order))

    @cached_property
    def mean_curvature(self):
        return self._with_inverse("ab...,abi...->i...", self.extrinsic_curvature)

    def twist(self, order):
        """Normal-bundle connection w[a, i, j] = <n^i, D_a n^j> at order
        min(``order``, one below the tangents'), built from the frame at
        order + 1 (`_at_order`)."""
        def build(order):
            Dn = self.ambient_covariant(self.normal_frame(order + 1))  # (a, j, mu)
            return jet_einsum("ajm...,im...->aij...", Dn,
                              self._lowered_normals(order))
        return self._at_order("twist", order, self.tangents.order - 1, build)

    def wv_christoffel(self, order):
        """Worldvolume connection G^c_{ab} at order min(``order``, the
        metric's partials'), the order of the connection terms that read
        it (`_at_order`)."""
        def build(m):
            dgamma = self.partials(self.induced_metric(m + 1))
            return christoffel_from_metric(self.inverse_induced_metric(m),
                                           dgamma)
        return self._at_order("wv_christoffel", order,
                              self.tangents.order - 1, build)

    @cached_property
    def intrinsic_riemann(self):
        g = self.induced_metric(self.tangents.order)
        dg = self.partials(g)
        ddg = self.partials(dg)
        return riemann_from_metric(g, self.inverse_induced_metric(ddg.order),
                                   dg, ddg)

    @cached_property
    def intrinsic_scalar_curvature(self):
        t = self._with_inverse("am...,abmn...->bn...", self.intrinsic_riemann)
        return self._with_inverse("bn...,bn...->...", t)

    def _riemann(self, offset, block, order):
        """All-lower R of the background block ``block`` at ``offset``, along
        the map at order min(``order``, the tangents', 1) (`_at_order`): one
        build per curved factor, which every `rblock` reads."""
        rows = slice(offset, offset + block.dim)
        return self._at_order(
            f"_riemann[{offset}]", order, min(self.tangents.order, 1),
            lambda m: block.riemann_tensor(self._x_components(m)[rows]))

    def rframe(self, legs, order):
        """Build the ``legs`` block of the ambient curvature projected on
        the combined frame at jet order ``order``; read it through
        `rblock`, which keeps it.

        Each slot contracts with its leg's frame rows, the tangents for 't'
        and the normal frame at ``order`` for 'n'.  R is contracted per
        curved block (`BackgroundMetric.blocks`; a product per factor):
        three slots on the block's rows, then the last over the (A, B, C, n)
        tensor they fill, so only exact zeros are skipped.  A flat
        background gives the constant zero of the block's shape and builds
        no frame.
        """
        if self.background.flat:
            size = {"t": self.dim, "n": self.codim}
            return Jet.constant(
                np.zeros(tuple(size[leg] for leg in legs) + self.grid_shape),
                self.X.nvars, order, self.X.eps)
        F = [self.tangents if leg == "t" else self.normal_frame(order)
             for leg in legs]

        def block(o, bg):
            rows = slice(o, o + bg.dim)
            R = jet_einsum("abmn...,Aa...->Abmn...",
                           self._riemann(o, bg, order), F[0][:, rows])
            R = jet_einsum("Abmn...,Bb...->ABmn...", R, F[1][:, rows])
            return o, jet_einsum("ABmn...,Cm...->ABCn...", R, F[2][:, rows])
        # the per-block terms are added before the last contraction
        R = _add_blocks(None, 3, self.ambient_dim,
                        [block(o, bg) for o, bg in self.background.blocks])
        return jet_einsum("ABCn...,En...->ABCE...", R, F[3])

    def rblock(self, legs, order):
        """Ambient curvature on the combined frame with each slot on the
        tangents ('t') or the normals ('n'), rblock("nttn", m)[i, a, b, j] =
        R(n_i, e_a, e_b, n_j), a jet of order min(``order``, the tangents',
        1) built by `rframe` (`_at_order`).  The field equations ask for
        ``geom.order - model.jet_order``, `delta_extrinsic` for grad grad
        phi's, every other reader for the order of the sum it joins; only
        delta K (`delta_grad_extrinsic`, T03-T05) differentiates it."""
        if len(legs) != 4 or set(legs) - {"t", "n"}:
            raise ParameterError(
                f"rblock legs must be four of 't'/'n', got {legs!r}")
        return self._at_order(f"rblock[{legs}]", order,
                              min(self.tangents.order, 1),
                              lambda m: self.rframe(legs, m))

    def jacobi(self, order):
        """J[b, c, i, j] = K_bd^i K^d_c_j + R(n_j, e_b, e_c, n^i) at order
        min(``order``, K's order, 1): delta K_bc^i = J phi - grad grad phi."""
        m = min(self._order("jacobi", order), self.extrinsic_curvature.order, 1)
        kk = jet_einsum("bdi...,dcj...->bcij...",
                        self.extrinsic_curvature.truncated(m), self.k_mixed(m))
        return kk + jet_rearrange("jbci...->bcij...", self.rblock("nttn", m))

    def covariant_grad(self, fld, n_wv, n_nor):
        """Worldvolume-covariant derivative, new lower index first.

        ``fld`` has ``n_wv`` leading worldvolume (lower) indices followed by
        ``n_nor`` normal-frame indices; grid axes trail.
        """
        letters = list(string.ascii_lowercase[:n_wv + n_nor])
        if "z" in letters or "y" in letters:
            raise PreconditionError("field rank too large")
        base = "".join(letters)
        out = self.partials(fld)
        fld = fld.truncated(out.order)     # the connection terms' order
        for p in range(n_wv):
            repl = letters.copy()
            repl[p] = "z"
            spec = f"zy{letters[p]}...,{''.join(repl)}...->y{base}..."
            out = out - jet_einsum(spec, self.wv_christoffel(out.order), fld)
        for q in range(n_wv, n_wv + n_nor):
            repl = letters.copy()
            repl[q] = "z"
            spec = f"y{letters[q]}z...,{''.join(repl)}...->y{base}..."
            out = out + jet_einsum(spec, self.twist(out.order), fld)
        return out

    def divergence(self, T, n_up, n_nor):
        """Covariant divergence grad_a T^{a...} on the first index.

        ``T`` has ``n_up`` leading worldvolume (upper) indices followed by
        ``n_nor`` normal-frame indices; the result keeps all but the first,
        in order.  Each connection term of `covariant_grad` is traced
        inside its contraction: + G^p_{az} T^{..z..} per upper slot,
        + w_a^q_z T^{..z..} per normal slot.
        """
        letters = list(string.ascii_lowercase[:n_up + n_nor])
        rest = "".join(letters[1:])
        out = sum(T[a].partial(a) for a in range(self.dim))
        T = T.truncated(out.order)         # the connection terms' order
        for p in range(n_up):
            repl = letters.copy()
            repl[p] = "z"
            spec = f"{letters[p]}az...,{''.join(repl)}...->{rest}..."
            out = out + jet_einsum(spec, self.wv_christoffel(out.order), T)
        for q in range(n_up, n_up + n_nor):
            repl = letters.copy()
            repl[q] = "z"
            spec = f"a{letters[q]}z...,{''.join(repl)}...->{rest}..."
            out = out + jet_einsum(spec, self.twist(out.order), T)
        return out

    @cached_property
    def grad_extrinsic(self):
        """grad K[a, b, c, i]."""
        return self.covariant_grad(self.extrinsic_curvature, 2, 1)

    def codazzi_residual(self):
        """grad_a K_bc^i - grad_b K_ac^i + R(n_i, e_c, e_a, e_b); zero by the
        structure equations."""
        gk = self.grad_extrinsic
        anti = gk - jet_rearrange("abci...->baci...", gk)
        return anti + jet_rearrange("icab...->abci...",
                                    self.rblock("nttt", gk.order))

    # -- scalar invariants used by the action models ----------------------
    def k_mixed(self, order):
        """K with its first worldvolume index raised, K^a_b^i, at order
        min(``order``, K's) (`_at_order`)."""
        return self._at_order(
            "k_mixed", order, self.extrinsic_curvature.order,
            lambda m: self._with_inverse(
                "ac...,cbi...->abi...", self.extrinsic_curvature.truncated(m)))

    def k_raised(self, order):
        """K with both worldvolume indices raised, K^{ab}_i, at order
        min(``order``, K's) (`_at_order`)."""
        return self._at_order(
            "k_raised", order, self.extrinsic_curvature.order,
            lambda m: self._with_inverse("bd...,adi...->abi...",
                                         self.k_mixed(m)))

    @cached_property
    def grad_mean(self):
        """grad_a K^i, the covariant gradient of the mean curvature: (a, i)."""
        return self.covariant_grad(self.mean_curvature, 0, 1)

    @cached_property
    def k_squared_scalar(self):
        """K^i K_i, as ``_k_squared`` on the cached mean curvature."""
        m = self.mean_curvature
        return jet_einsum("i...,i...->...", m, m)

    @cached_property
    def k_dot_k_scalar(self):
        """K_{ab}^i K^{ab}_i, as ``_k_dot_k`` on the cached ``k_raised``."""
        K = self.extrinsic_curvature
        return jet_einsum("abi...,abi...->...", K, self.k_raised(K.order))

    @cached_property
    def grad_mean_up(self):
        """grad^a K^i, the mean-curvature gradient with its index raised."""
        return self._with_inverse("ab...,bi...->ai...", self.grad_mean)

    @cached_property
    def gradk_squared_scalar(self):
        """grad_a K^i grad^a K_i of the mean curvature vector.

        Read from ``grad_mean``, which needs no worldvolume connection, not
        from the trace form ``_gradk_mean`` of `INVARIANTS`: sending
        `SyntheticGradK`'s density through the trace form cost 2.4% more
        ``pass_s`` on the ``curved-high-order`` bench workload.
        """
        return jet_einsum("ai...,ai...->...", self.grad_mean, self.grad_mean_up)

    def gauss_scalar_residual(self):
        """Twice-traced structure-equation residual tying the intrinsic
        curvature scalar to K^iK_i - K.K plus the projected ambient
        curvature; zero pointwise for any consistent geometry."""
        scal = self.intrinsic_scalar_curvature
        t = self._with_inverse("am...,abmn...->bn...",
                               self.rblock("tttt", scal.order))
        amb = self._with_inverse("bn...,bn...->...", t)
        return (scal
                - (self.k_squared_scalar - self.k_dot_k_scalar)
                - amb)


# -- embedding catalog ------------------------------------------------------

from .backgrounds import (  # noqa: E402
    euclidean,
    minkowski,
    product_spheres_background,
    round_sphere_background,
)


def _finite(name, *values):
    """The parameters ``values`` as floats; `ParameterError` unless each is
    a finite number (a str, bytes or bool is not one)."""
    try:
        if any(isinstance(v, (str, bytes, bool, np.bool_)) for v in values):
            raise TypeError("not a number")
        out = [float(v) for v in values]
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{name}: parameters must be numbers, got "
                             f"{values}") from exc
    if not np.all(np.isfinite(out)):
        raise ParameterError(f"{name}: parameters must be finite, got {values}")
    return out


# chart axes shared by the catalog
_POLAR = (ParamAxis("theta", 0.0, np.pi),
          ParamAxis("phi", 0.0, 2 * np.pi, periodic=True))
_TORUS = (ParamAxis("u", 0.0, 2 * np.pi, periodic=True),
          ParamAxis("v", 0.0, 2 * np.pi, periodic=True))
_SHEET = (ParamAxis("tau", 0.0, 2.5),
          ParamAxis("sigma", 0.0, 2 * np.pi, periodic=True))
_BOX = (ParamAxis("u", -1.0, 1.0), ParamAxis("v", -1.0, 1.0))


def plane(size: float = 1.0) -> Embedding:
    (s,) = _finite("plane", size)
    return Embedding(
        name="plane",
        background=euclidean(3),
        axes=(ParamAxis("u", -s, s), ParamAxis("v", -s, s)),
        map_fn=lambda u, v: (u, v, 0.0 * u),
    )


def cylinder(radius: float = 1.0, height: float = 1.0) -> Embedding:
    r, h = _finite("cylinder", radius, height)
    return Embedding(
        name=f"cylinder(r={radius})",
        background=euclidean(3),
        axes=(
            ParamAxis("phi", 0.0, 2 * np.pi, periodic=True),
            ParamAxis("z", -h, h),
        ),
        map_fn=lambda p, z: (r * jets.cos(p), r * jets.sin(p), z),
    )


def ellipsoid(ax: float = 1.0, ay: float = 1.15, az: float = 1.3) -> Embedding:
    """Triaxial ellipsoid: nonconstant curvature, so grad K is nonzero."""
    a, b, c = _finite("ellipsoid", ax, ay, az)
    return Embedding(
        name=f"ellipsoid({a},{b},{c})",
        background=euclidean(3),
        axes=_POLAR,
        map_fn=lambda t, p: (
            a * jets.sin(t) * jets.cos(p),
            b * jets.sin(t) * jets.sin(p),
            c * jets.cos(t),
        ),
    )


def sphere_polar(radius: float = 1.0) -> Embedding:
    """Round sphere: the ellipsoid with its three semi-axes equal."""
    (r,) = _finite("sphere", radius)
    return replace(ellipsoid(r, r, r), name=f"sphere(r={radius})")


def torus_e3(big_radius: float = 2.0, small_radius: float = 0.5) -> Embedding:
    """Torus of revolution; its chart is singular where R + r cos v = 0, so
    |small_radius| must be below |big_radius|."""
    R, r = _finite("torus", big_radius, small_radius)
    if not abs(r) < abs(R):
        raise ParameterError(
            f"torus: |small_radius| {r} must be below |big_radius| {R}; the "
            "chart is singular where R + r cos v = 0")
    return Embedding(
        name=f"torus(R={R},r={r})",
        background=euclidean(3),
        axes=_TORUS,
        map_fn=lambda u, v: (
            (R + r * jets.cos(v)) * jets.cos(u),
            (R + r * jets.cos(v)) * jets.sin(u),
            r * jets.sin(v),
        ),
    )


def flat_torus_e4(r1: float = 1.0, r2: float = 1.0) -> Embedding:
    a, b = _finite("flat-torus", r1, r2)
    return Embedding(
        name=f"flat-torus(r1={a},r2={b})",
        background=euclidean(4),
        axes=_TORUS,
        map_fn=lambda u, v: (
            a * jets.cos(u), a * jets.sin(u), b * jets.cos(v), b * jets.sin(v),
        ),
    )


def bumpy_torus_e4(r1: float = 1.0, r2: float = 1.0, amp: float = 0.3) -> Embedding:
    a, b, c = _finite("bumpy-torus", r1, r2, amp)
    return Embedding(
        name=f"bumpy-torus(amp={c})",
        background=euclidean(4),
        axes=_TORUS,
        map_fn=lambda u, v: (
            (a + c * jets.cos(v)) * jets.cos(u),
            (a + c * jets.cos(v)) * jets.sin(u),
            b * jets.cos(v),
            b * jets.sin(v),
        ),
    )


def graph_surface_e4(f_amp: float = 0.3, g_amp: float = 0.2) -> Embedding:
    fa, ga = _finite("graph-surface", f_amp, g_amp)
    return Embedding(
        name="graph-surface",
        background=euclidean(4),
        axes=_BOX,
        map_fn=lambda u, v: (
            u,
            v,
            fa * jets.sin(u) * jets.cos(v),
            ga * jets.cos(2.0 * u) * jets.sin(v),
        ),
    )


def static_string(radius: float = 1.0) -> Embedding:
    (r,) = _finite("static-string", radius)
    return Embedding(
        name=f"static-string(r={radius})",
        background=minkowski(4),
        axes=_SHEET,
        map_fn=lambda t, s: (t, r * jets.cos(s), r * jets.sin(s), 0.0 * t),
    )


def traveling_wave(amplitude: float = 0.3) -> Embedding:
    (A,) = _finite("traveling-wave", amplitude)
    return Embedding(
        name=f"traveling-wave(A={A})",
        background=minkowski(3),
        axes=_SHEET,
        map_fn=lambda t, s: (t, s, A * jets.sin(s - t)),
    )


def perturbed_sphere(radius: float = 1.0, amp: float = 0.05) -> Embedding:
    """Sphere with radius r (1 + amp cos 2 theta); its chart is singular
    where 1 + amp cos 2 theta = 0, so |amp| must be below 1."""
    r, a = _finite("perturbed-sphere", radius, amp)
    if not abs(a) < 1.0:
        raise ParameterError(
            f"perturbed-sphere: |amp| {a} must be below 1; the chart is "
            "singular where 1 + amp cos 2 theta = 0")
    return Embedding(
        name=f"perturbed-sphere(amp={a})",
        background=euclidean(3),
        axes=_POLAR,
        map_fn=lambda t, p: tuple(
            (r * (1.0 + a * jets.cos(2.0 * t))) * comp
            for comp in (
                jets.sin(t) * jets.cos(p),
                jets.sin(t) * jets.sin(p),
                jets.cos(t),
            )
        ),
    )


def s3_curve(chi0: float = 1.0, theta0: float = 1.1, a: float = 0.2,
             b: float = 0.3, radius: float = 1.0) -> Embedding:
    """Closed curve inside a round 3-sphere: codimension 2, curved ambient."""
    chi0, theta0, a, b, radius = _finite("s3-curve", chi0, theta0, a, b, radius)
    return Embedding(
        name="s3-curve",
        background=round_sphere_background(3, radius),
        axes=(ParamAxis("xi", 0.0, 2 * np.pi, periodic=True),),
        map_fn=lambda x: (
            chi0 + a * jets.cos(x),
            theta0 + b * jets.sin(x),
            x,
        ),
    )


def s2_latitude(theta0: float = 0.8, radius: float = 1.0) -> Embedding:
    """Latitude circle inside a round 2-sphere: codimension 1, curved ambient."""
    t0, r = _finite("s2-latitude", theta0, radius)
    return Embedding(
        name=f"s2-latitude(theta0={theta0})",
        background=round_sphere_background(2, r),
        axes=(ParamAxis("xi", 0.0, 2 * np.pi, periodic=True),),
        map_fn=lambda x: (t0 + 0.0 * x, x),
    )


def surface_s2xs2(r1: float = 1.0, r2: float = 1.3) -> Embedding:
    """Generic surface patch in S^2 x S^2: codimension 2, non-maximally-
    symmetric ambient.

    On a product of spheres the tangent/normal/normal/normal block of the
    ambient Riemann tensor does not cancel, so this patch exercises
    curvature couplings that are invisible on flat or single-sphere
    backgrounds.  The map is deliberately generic (no isometries left).
    """
    r1, r2 = _finite("s2xs2", r1, r2)
    return Embedding(
        name="s2xs2-patch",
        background=product_spheres_background(r1, r2),
        axes=_BOX,
        map_fn=lambda u, v: (
            1.10 + 0.30 * u + 0.10 * jets.sin(v),
            0.40 + 0.50 * v + 0.15 * jets.sin(u),
            1.30 + 0.20 * jets.sin(u) + 0.25 * v,
            0.90 + 0.40 * u + 0.20 * jets.cos(v),
        ),
    )

