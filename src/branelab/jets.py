"""Truncated multivariate Taylor-series ("jet") arithmetic.

Forward-mode differentiation engine used throughout the package.  A ``Jet``
stores the Taylor coefficients (partial derivatives divided by multi-index
factorials) of a smooth function of ``nvars`` variables, truncated at total
degree ``order``.  Evaluating an analytic map with jet-valued inputs yields
all its partial derivatives at once, to machine precision, with no
finite-difference noise.

Coefficients may be scalars or numpy arrays.  Array coefficients are how the
geometry pipeline vectorizes: a single scalar jet can carry one coefficient
array per Taylor term, shaped ``(tensor indices..., grid...)``, so one jet
multiplication sweeps a whole grid.  Coefficients are never jets:
`Jet.constant` and `Jet.variable` reject a jet value, and `jet_einsum` a
jet whose coefficients are jets.

Eps variables: the variables `Jet.lift` appends (the eps_k V_k terms of
a varied embedding) are eps variables, hyper-dual numbers after Fike and
Alonso.  They do not count toward the order: a jet of order N carries its
worldvolume (non-eps) variables to total degree N and the eps variables
to total degree 1, the first variations; ``Jet.eps`` is the number of
eps variables (0 for none).  Reading a monomial a jet does not carry
raises `PreconditionError`, and so does a partial derivative along an eps
variable: its eps coefficient is read with `Jet.coefficient` instead.

Conventions: coefficients are stored by worldvolume degree, then total
degree, then lexicographic order, so truncating to a lower order is a
prefix slice; without eps variables this is the graded order.  A slot the
kernel knows to be an exact zero without reading data is absent: it holds
None.  `Jet.constant` and the padding of `Jet.lift` make absent slots, and
every operation below carries them on; the value ``c[0]`` is never
absent.  `Jet.coefficient` and `Jet.derivative` read an absent slot as
zeros of the value's shape.  Only this module reads that layout:
`jet_stack` builds every stacked tensor jet from nested leaves, and
`Jet.lift` adds jet variables by moving coefficients.

Arithmetic: a product sums, for each output slot k, the coefficient products
a_i b_j over the pairs (i, j) -> k whose two factors are present, adding
each term into the fresh array of the first; a slot with no such pair is
absent (`_live`).  Skipping a term with an absent factor changes the sum
at most in the sign of a zero while the other factor is finite (an inf
or NaN coefficient is present, and meets an absent one as no term).  A
slot is fed by the same pairs, in the same (graded) order of i, as
without eps variables, so every carried coefficient is bit-identical to
the one of a jet that counts the eps variables as ordinary ones to the
same total degree.  ``+``, ``-``, `Jet.partial`, `Jet.map_coeffs` and
`jet_stack` pass absence through.
The analytic functions (sin, cos, sinh, cosh, sqrt and the reciprocal) are
those the geometry computes with; a power is a product.  Each is one degree
recurrence in `Jet._compose`, about one product's work; a lower order is a
bit-identical prefix.  Inputs outside its domain raise `DomainError`.
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import DomainError, ParameterError, PreconditionError

__all__ = [
    "Jet",
    "variables",
    "sin",
    "cos",
    "sqrt",
    "sinh",
    "cosh",
    "jet_einsum",
    "jet_rearrange",
    "jet_stack",
    "jet_matinv",
    "jet_det",
]


@lru_cache(maxsize=None)
def _tables(nvars: int, order: int, eps: int = 0):
    """Multi-index bookkeeping for (nvars, order, eps), cached.

    The last ``eps`` variables are eps variables, the others worldvolume
    variables.  The carried monomials are those of worldvolume degree
    <= ``order`` and eps degree <= 1.

    Returns (indices, position, prefix_counts, products, partial_maps,
    degrees):
      indices: tuple of multi-index tuples by worldvolume degree, then
        graded (total degree, then lexicographic) order
      position: dict multi-index -> coefficient slot
      prefix_counts[k]: number of coefficients of a jet of order k
      products[k]: the pairs (i, j) with indices[i] + indices[j] ==
        indices[k], in the graded order of indices[i], so the first is
        (0, k) and the last (k, 0); every other j comes before k
      partial_maps[d]: for d/dx_d along a worldvolume variable, the
        (src, factor) of each slot of the result, one order less
      degrees[k]: total degree of indices[k], as a float
    """
    head = nvars - eps
    if nvars < 1 or order < 0 or not 0 <= eps < nvars:
        raise ParameterError(
            f"need nvars >= 1, order >= 0 and from 0 to nvars - 1 eps "
            f"variables; got nvars={nvars}, order={order}, eps={eps}")

    def graded(a):
        return sum(a), a

    ranges = [range(order + 1)] * head + [range(2)] * eps
    raw = [a for a in product(*ranges)
           if sum(a[:head]) <= order and sum(a[head:]) <= 1]
    raw.sort(key=lambda a: (sum(a[:head]),) + graded(a))
    indices = tuple(raw)
    position = {a: i for i, a in enumerate(indices)}
    prefix_counts = tuple(
        sum(1 for a in indices if sum(a[:head]) <= k) for k in range(order + 1)
    )
    products = [[] for _ in indices]
    for i, a in sorted(enumerate(indices), key=lambda ia: graded(ia[1])):
        for j, b in enumerate(indices):
            k = position.get(tuple(x + y for x, y in zip(a, b)))
            if k is not None:
                products[k].append((i, j))
    partial_maps = tuple(
        tuple((position[a[:d] + (a[d] + 1,) + a[d + 1:]], float(a[d] + 1))
              for a in indices if sum(a[:head]) < order)
        for d in range(head))
    return (indices, position, prefix_counts, tuple(tuple(p) for p in products),
            partial_maps, tuple(float(sum(a)) for a in indices))


def _mask(c):
    """Presence mask of a coefficient list: False at each absent slot."""
    return tuple([x is not None for x in c])


@lru_cache(maxsize=None)
def _live(nvars, order, eps, a, b):
    """The product pairs (i, j) -> k of `_tables` whose factors are both
    present under the masks ``a`` and ``b``, per slot k; () for a slot the
    product leaves absent.  The pairs are `_tables`' own tuples, so a cached
    entry holds references, not new pairs."""
    out = []
    for p in _tables(nvars, order, eps)[3]:
        live = tuple(ij for ij in p if a[ij[0]] and b[ij[1]])
        out.append(p if len(live) == len(p) else live)
    return tuple(out)


@lru_cache(maxsize=None)
def _recurrence(nvars, order, eps, u):
    """The live pairs (i, j), i != 0, of each slot k >= 1 of a degree
    recurrence f_k = sum u_i f_j (`Jet._compose`, `jet_matinv`) for the
    presence mask ``u``; slot 0 gets ().  f_0 is present and f_k is present
    iff a pair of slot k is live."""
    pairs, out = _tables(nvars, order, eps)[3], [()]
    for k in range(1, len(u)):      # f_j is present iff j = 0 or out[j]
        out.append(tuple(ij for ij in pairs[k][1:]
                         if u[ij[0]] and (ij[1] == 0 or out[ij[1]])))
    return tuple(out)


def _cauchy(pairs, prod):
    """Sum of prod(i, j) over the non-empty ``pairs``, accumulated in place.

    ``prod`` must return a new object, as a product does.  Each later term
    is added into the array made by the first product, so no input
    coefficient is written; a term that would broadcast the sum to a larger
    shape or another dtype (or a scalar term) is added out of place.
    """
    it = iter(pairs)
    s = prod(*next(it))
    for i, j in it:
        t = prod(i, j)
        if (type(s) is np.ndarray and type(t) is np.ndarray and t.dtype == s.dtype
                and (t.shape == s.shape
                     or np.broadcast_shapes(s.shape, t.shape) == s.shape)):
            s += t
        else:
            s = s + t
    return s


_OUTSIDE = {"nonzero": lambda v: v == 0, "positive": lambda v: v <= 0,
            "non-negative": lambda v: v < 0}


def _require(name, value, kind):
    """Raise DomainError unless ``value`` is of ``kind`` ("nonzero",
    "positive" or "non-negative") at every index.  A value that is not
    numeric, such as a jet, raises `PreconditionError`."""
    v = np.asarray(value)
    if v.dtype == object:
        raise PreconditionError(
            f"{name} needs a numeric value, not {type(value).__name__}")
    bad = _OUTSIDE[kind](v)
    if np.any(bad):
        idx = tuple(int(t) for t in np.argwhere(bad)[0])
        raise DomainError(f"{name} needs a {kind} value; "
                          f"it is {float(v[idx])!r} at index {idx}")


def _is_jet(x) -> bool:
    return isinstance(x, Jet)


class Jet:
    """Truncated Taylor expansion of a scalar in ``nvars`` variables, the
    last ``eps`` of them eps variables (`_tables`)."""

    __slots__ = ("nvars", "order", "c", "eps")

    # keep numpy from absorbing jets into object arrays; arithmetic with
    # ndarrays then falls through to the __r*__ methods below
    __array_ufunc__ = None

    def __init__(self, nvars, order, coeffs, eps=0):
        self.nvars = nvars
        self.order = order
        self.c = coeffs
        self.eps = eps

    # -- constructors -------------------------------------------------
    @staticmethod
    def constant(value, nvars, order, eps=0):
        """The constant ``value``: every slot but the value absent."""
        if _is_jet(value):
            raise PreconditionError("a jet's coefficients cannot be jets")
        # checked here, as `_tables`' cache reads 2.0 as 2 and True as 1
        if not all(map(_is_index, (nvars, order, eps))):
            raise ParameterError(
                f"a jet's sizes must be integers, not {(nvars, order, eps)}")
        n = _tables(nvars, order, eps)[2][order]
        return Jet(nvars, order, [value] + [None] * (n - 1), eps)

    @staticmethod
    def variable(i, value, nvars, order):
        """Variable ``i`` of ``nvars`` at ``value``: the value and its one
        first-degree slot present.  ``i`` must name one of the variables."""
        j = Jet.constant(value, nvars, order)
        if not (_is_index(i) and 0 <= i < nvars):
            raise ParameterError(
                f"variable index {i!r} is not one of 0..{nvars - 1}")
        if order >= 1:
            seed = tuple(1 if k == i else 0 for k in range(nvars))
            pos = _tables(nvars, order)[1][seed]
            j.c[pos] = (np.ones_like(value, dtype=float)
                        if isinstance(value, np.ndarray) else 1.0)
        return j

    # -- basic queries -------------------------------------------------
    @property
    def value(self):
        return self.c[0]

    def coefficient(self, alpha):
        """Taylor coefficient for multi-index alpha.

        Raises `PreconditionError` for a monomial the jet does not carry:
        one above its order or of eps degree above 1, or an alpha of another
        length.
        """
        slot = _tables(self.nvars, self.order, self.eps)[1].get(tuple(alpha))
        if slot is None:
            raise PreconditionError(
                f"{self._kind()} carries no coefficient {tuple(alpha)}")
        c = self.c[slot]
        return _zero_like(self.c[0]) if c is None else c

    def derivative(self, alpha):
        """Partial derivative d^alpha f for multi-index alpha."""
        return self.coefficient(alpha) * float(
            math.prod(math.factorial(a) for a in alpha))

    def truncated(self, order):
        if not (_is_index(order) and 0 <= order <= self.order):
            raise PreconditionError(
                f"cannot truncate a jet of order {self.order} to {order}")
        if order == self.order:
            return self
        n = _tables(self.nvars, self.order, self.eps)[2][order]
        return Jet(self.nvars, order, self.c[:n], self.eps)

    def _kind(self):
        return (f"a jet of order {self.order} in {self.nvars} variables "
                f"with {self.eps} eps variables")

    def lift(self, nvars, *slopes):
        """The same jet in ``nvars`` variables, the new ones last, plus
        sum_k eps_k V_k over the ``slopes`` V_k, eps_k the new variable k.

        The new variables are eps variables: the result carries this jet's
        order in the old variables times the eps monomials of degree at
        most 1, which first variations read.  Each coefficient moves to its
        own multi-index padded with zeros, and each coefficient alpha of V_k
        up to ``order`` to alpha plus eps_k; the other slots that involve a
        new variable are absent.  No arithmetic is done, so
        ``a.lift(n) * b.lift(n)`` equals ``(a * b).lift(n)`` bit for bit.
        This jet must have no eps variables, and a slope must be a jet in
        its variables, without eps variables, of order at least ``order``.
        """
        if not _is_index(nvars):
            raise ParameterError(
                f"a jet's sizes must be integers, not {nvars!r}")
        new = nvars - self.nvars
        if self.eps or new < len(slopes):
            raise PreconditionError(
                f"cannot lift {self._kind()} and {len(slopes)} slopes to "
                f"{nvars} variables")
        if new == 0:
            return self
        position = _tables(nvars, self.order, new)[1]
        pads = [(0,) * new] + [tuple(int(m == k) for m in range(new))
                               for k in range(len(slopes))]
        out = [None] * len(position)
        for pad, V in zip(pads, (self,) + slopes):
            if (V.nvars, V.eps) != (self.nvars, 0):
                raise PreconditionError(
                    f"{V._kind()} is no slope to lift {self._kind()}")
            if V.order < self.order:
                raise PreconditionError(
                    f"a slope of jet order {V.order} cannot lift an "
                    f"order-{self.order} jet; it needs >= {self.order}")
            for alpha, coef in zip(_tables(self.nvars, self.order)[0], V.c):
                out[position[alpha + pad]] = coef
        return Jet(nvars, self.order, out, new)

    def partial(self, d):
        """d/dx_d along a worldvolume variable: a jet of one order less.

        An eps variable has no partial here: its first variation is an eps
        coefficient, read with `coefficient` (`deformation.variation`).  An
        absent slot stays absent, but the value is zeros of this value's
        shape if its source slot is absent.
        """
        if not (_is_index(d) and 0 <= d < self.nvars - self.eps):
            raise PreconditionError(
                f"{self._kind()} has no worldvolume variable {d}; read an "
                "eps coefficient with Jet.coefficient or "
                "deformation.variation")
        if self.order < 1:
            raise PreconditionError(
                f"cannot differentiate an order-{self.order} jet; the "
                "geometry needs a higher jet order")
        c = self.c
        out = [None if c[src] is None else c[src] * fct
               for src, fct in _tables(self.nvars, self.order, self.eps)[4][d]]
        if out[0] is None:
            out[0] = _zero_like(c[0])
        return Jet(self.nvars, self.order - 1, out, self.eps)

    # -- arithmetic ----------------------------------------------------
    def _align(self, other):
        """Both jets at the lower order; they must share their variables."""
        if self.nvars != other.nvars or self.eps != other.eps:
            raise PreconditionError(
                f"cannot combine {self._kind()} with {other._kind()}")
        m = min(self.order, other.order)
        return self.truncated(m), other.truncated(m)

    def __add__(self, other):
        if _is_jet(other):
            a, b = self._align(other)
            return Jet(a.nvars, a.order,
                       [x if y is None else y if x is None else x + y
                        for x, y in zip(a.c, b.c)], a.eps)
        c = list(self.c)
        c[0] = c[0] + other
        return Jet(self.nvars, self.order, c, self.eps)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.nvars, self.order,
                   [None if x is None else -x for x in self.c], self.eps)

    def __sub__(self, other):
        return self + (-other if _is_jet(other) else -1.0 * other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if _is_jet(other):
            a, b = self._align(other)
            ac, bc = a.c, b.c
            prod = lambda i, j: ac[i] * bc[j]  # noqa: E731
            live = _live(a.nvars, a.order, a.eps, _mask(ac), _mask(bc))
            return Jet(a.nvars, a.order,
                       [_cauchy(p, prod) if p else None for p in live], a.eps)
        return Jet(self.nvars, self.order,
                   [None if x is None else x * other for x in self.c],
                   self.eps)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if _is_jet(other):
            return self * other._reciprocal()
        _require("division", other, "nonzero")
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    # -- analytic functions, by degree recurrence -------------------------
    def _compose(self, kind, f0, g0=None, p=None):
        """f(self) for an analytic f, given f0 = f(value), in one pass.

        The Euler operator E = sum_d x_d d/dx_d multiplies a term of total
        degree |k| by |k|, and E f(u) = f'(u) E u.  Read on coefficients,
        over the pairs (i, j) -> k of `_tables` with i != 0 (whose j all
        come before k), this gives each f_k from earlier slots only:

          pow:  f_k = sum (p|i| - |j|) u_i f_j / (|k| u_0)   (f = u**p;
                `sqrt` takes p = 1/2 and `_reciprocal` p = -1)
          sin, cos, sinh, cosh:  the pair s' = c, c' = -s (c' = s for the
                hyperbolic pair) in one pass, s_k = sum |i| u_i c_j / |k|
                and c_k = -+sum |i| u_i s_j / |k|; f0 = s(value), g0 =
                c(value), and ``kind`` names the one returned.

        These are the Taylor-arithmetic tables of Griewank and Walther,
        Evaluating Derivatives, ch. 13.  Each sum runs over the pairs whose
        two factors are present (`_recurrence`), and a slot with none is
        absent.
        """
        u = self.c
        deg = _tables(self.nvars, self.order, self.eps)[5]
        live = _recurrence(self.nvars, self.order, self.eps, _mask(u))
        f = [f0]
        if kind == "pow":
            r = 1.0 / u[0] if self._sloped() else None   # else no f_k reads r
            prod = lambda i, j: (p * deg[i] - deg[j]) * u[i] * f[j]  # noqa: E731
            for k, pairs in enumerate(live[1:], 1):
                f.append(_cauchy(pairs, prod) * r / deg[k] if pairs else None)
            return Jet(self.nvars, self.order, f, self.eps)
        du = [None] + [None if x is None else d * x
                       for d, x in zip(deg[1:], u[1:])]
        g = [g0]
        sign = -1.0 if kind in ("sin", "cos") else 1.0
        f_prod = lambda i, j: du[i] * g[j]  # noqa: E731
        g_prod = lambda i, j: du[i] * f[j]  # noqa: E731
        for k, pairs in enumerate(live[1:], 1):   # f and g share their slots
            f.append(_cauchy(pairs, f_prod) / deg[k] if pairs else None)
            g.append(_cauchy(pairs, g_prod) / (sign * deg[k]) if pairs
                     else None)
        return Jet(self.nvars, self.order, f if kind in ("sin", "sinh") else g,
                   self.eps)

    def _reciprocal(self):
        _require("reciprocal", self.c[0], "nonzero")
        return self._compose("pow", 1.0 / self.c[0], p=-1.0)

    def _sloped(self):
        """True if a slot after the value is present."""
        return any(x is not None for x in self.c[1:])

    def sqrt(self):
        _require("sqrt", self.c[0],
                 "positive" if self._sloped() else "non-negative")
        return self._compose("pow", sqrt(self.c[0]), p=0.5)

    def sin(self):
        return self._compose("sin", sin(self.c[0]), cos(self.c[0]))

    def cos(self):
        return self._compose("cos", sin(self.c[0]), cos(self.c[0]))

    def sinh(self):
        return self._compose("sinh", sinh(self.c[0]), cosh(self.c[0]))

    def cosh(self):
        return self._compose("cosh", sinh(self.c[0]), cosh(self.c[0]))

    # -- structural helpers for array-valued coefficients ---------------
    def map_coeffs(self, fn):
        """``fn`` applied to each present coefficient; ``fn`` must map zero
        to zero, since an absent slot stays absent."""
        return Jet(self.nvars, self.order,
                   [None if x is None else fn(x) for x in self.c], self.eps)

    def __getitem__(self, idx):
        """Slice the leading (tensor) axes of every coefficient array."""
        return self.map_coeffs(lambda x: x[idx])

    def __repr__(self):
        return f"Jet(nvars={self.nvars}, order={self.order}, value={self.value!r})"


def _is_index(k) -> bool:
    """True for an integer (not a bool), as an order or an index must be."""
    return isinstance(k, (int, np.integer)) and not isinstance(k, bool)


def _zero_like(v):
    if isinstance(v, np.ndarray):
        return np.zeros_like(v, dtype=float)
    return 0.0


# -- module-level functional forms (safe on floats, arrays and jets) ----

def variables(values, order):
    """Seed one jet variable per entry of ``values``."""
    n = len(values)
    return [Jet.variable(i, np.asarray(v, float), n, order) for i, v in enumerate(values)]


def sin(x):
    return x.sin() if _is_jet(x) else np.sin(x)


def cos(x):
    return x.cos() if _is_jet(x) else np.cos(x)


def sqrt(x):
    return x.sqrt() if _is_jet(x) else np.sqrt(x)


def sinh(x):
    return x.sinh() if _is_jet(x) else np.sinh(x)


def cosh(x):
    return x.cosh() if _is_jet(x) else np.cosh(x)


# -- tensor-valued jets ---------------------------------------------------
#
# A "tensor jet" is a Jet whose coefficients are arrays shaped
# (tensor axes..., grid axes...).  The helpers below contract and stack
# them; `jet_stack` is the one builder that lays out a stacked tensor jet's
# coefficients.  einsum specs must route grid axes through '...'.

def _flatten(entries, depth, shape, leaves):
    """Append the leaves of nested sequences to ``leaves`` in row-major
    order and the length of each nesting level to ``shape``."""
    if isinstance(entries, (list, tuple)):
        if depth == len(shape):
            shape.append(len(entries))
        for e in entries:
            _flatten(e, depth + 1, shape, leaves)
    else:
        leaves.append(entries)


def jet_stack(entries, template=None):
    """Stack nested sequences of jets, numbers and arrays into one tensor jet.

    The nesting gives the leading axes; each leaf's coefficients, which may
    carry tensor axes of their own, are broadcast against the others'.  The
    leaf jets must share their variables; the result has the lowest order
    among them, and a number or array leaf is a constant: it writes only
    the value.  A slot absent in every jet leaf is absent.  ``template``
    gives nvars, order and eps when no leaf is a jet; it adds no grid
    axes, so a tensor made only of constants broadcasts through einsum's
    ``...``.
    """
    shape, leaves = [], []
    _flatten(entries, 0, shape, leaves)
    jl = [e for e in leaves if _is_jet(e)]
    lead = min(jl, key=lambda e: e.order, default=template)
    if lead is None:
        raise PreconditionError("jet_stack needs at least one Jet or a template")
    for e in jl:
        if e.eps != lead.eps or e.nvars != lead.nvars:
            lead._align(e)          # raises: the variables differ
    out = []
    for k in range(len(lead.c)):
        vals = [(i, np.asarray(e.c[k] if _is_jet(e) else e, float))
                for i, e in enumerate(leaves)
                if k == 0 or _is_jet(e) and e.c[k] is not None]
        if not vals:            # every leaf's slot k is absent
            out.append(None)
            continue
        full = np.broadcast_shapes(*(a.shape for _i, a in vals))
        flat = np.zeros((len(leaves),) + full)
        for i, a in vals:
            flat[i] = a
        out.append(flat.reshape(tuple(shape) + full))
    return Jet(lead.nvars, lead.order, out, lead.eps)


def jet_rearrange(spec, a):
    """Single-operand einsum on the tensor axes (relabel, trace, transpose)."""
    return a.map_coeffs(lambda x: np.einsum(spec, np.asarray(x, float)))


def jet_einsum(spec, a, b):
    """einsum over the tensor axes of two jets (or a jet and an array).

    Of two jets, each slot sums the contractions of the pairs whose two
    coefficients are present (`_live`), so a constant jet contracts as its
    value, once per present coefficient of the other.  Coefficients must be
    arrays or numbers; a jet whose coefficients are jets raises
    `PreconditionError`.
    """
    if _is_jet(a) and _is_jet(b):
        a, b = a._align(b)
        nested = _is_jet(a.c[0]) or _is_jet(b.c[0])
    else:
        nested = _is_jet((a if _is_jet(a) else b).c[0])
    if nested:
        raise PreconditionError("jet_einsum cannot contract jets of jets")
    if not _is_jet(a):
        a_arr = np.asarray(a, float)
        return b.map_coeffs(lambda x: np.einsum(spec, a_arr, np.asarray(x, float)))
    if not _is_jet(b):
        b_arr = np.asarray(b, float)
        return a.map_coeffs(lambda x: np.einsum(spec, np.asarray(x, float), b_arr))
    ac = [None if x is None else np.asarray(x, float) for x in a.c]
    bc = [None if x is None else np.asarray(x, float) for x in b.c]
    prod = lambda i, j: np.einsum(spec, ac[i], bc[j])  # noqa: E731
    live = _live(a.nvars, a.order, a.eps, _mask(ac), _mask(bc))
    return Jet(a.nvars, a.order, [_cauchy(p, prod) if p else None for p in live],
               a.eps)


def jet_matinv(g):
    """Inverse of a matrix-valued jet with leading axes (n, n).

    Degree recurrence of Taylor arithmetic: x_0 = inv(g_0), then
    x_k = -x_0 sum g_i x_j over the products (i, j) -> k with i != 0 and
    g_i, x_j present (`_recurrence`), in slot order, so every x_j read is
    already known; a slot with none is absent.  The value is
    inv(g_0) at every jet order, and a lower-order inverse is a prefix of a
    higher-order one.  Coefficients are C-contiguous.
    """
    val = np.asarray(g.value, float)
    x0 = np.ascontiguousarray(np.moveaxis(
        np.linalg.inv(np.moveaxis(val, (0, 1), (-2, -1))), (-2, -1), (0, 1)))
    gc = [None if c is None else np.asarray(c, float) for c in g.c]
    neg, x = -x0, [x0]
    prod = lambda i, j: np.einsum("ab...,bc...->ac...", gc[i], x[j])  # noqa: E731
    for p in _recurrence(g.nvars, g.order, g.eps, _mask(gc))[1:]:
        x.append(np.einsum("ab...,bc...->ac...", neg, _cauchy(p, prod),
                           order="C") if p else None)
    return Jet(g.nvars, g.order, x, g.eps)


def jet_det(g):
    """Determinant of a matrix jet with leading axes (n, n), n <= 3."""
    n = np.asarray(g.value).shape[0]
    if n == 1:
        return g[0, 0]
    if n == 2:
        return g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    if n == 3:
        return (
            g[0, 0] * (g[1, 1] * g[2, 2] - g[1, 2] * g[2, 1])
            - g[0, 1] * (g[1, 0] * g[2, 2] - g[1, 2] * g[2, 0])
            + g[0, 2] * (g[1, 0] * g[2, 1] - g[1, 1] * g[2, 0])
        )
    raise PreconditionError(f"jet_det supports matrices up to 3x3, not {n}x{n}")

