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
prefix slice; without eps variables this is the graded order.  Only this
module reads that layout: `jet_stack` builds every stacked tensor jet from
nested leaves, and `Jet.lift` adds jet variables by moving coefficients.

Arithmetic: a product sums, for each output slot k, the coefficient products
a_i b_j over the pairs (i, j) -> k, adding each term into the fresh array of
the first.  A slot is fed by the same pairs, in the same (graded) order of
i, as without eps variables, so every carried coefficient is bit-identical
to the one of a jet that counts the eps variables as ordinary ones to the
same total degree.  `jet_einsum` contracts a constant tensor jet as its value.
Every analytic function (exp, sin, cos, sinh, cosh, log, sqrt,
the reciprocal and real powers) is one degree recurrence in `Jet._compose`,
about one product's work; a lower order is a bit-identical prefix.  Inputs
outside a function's domain raise `DomainError`.
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
    "exp",
    "log",
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
        if _is_jet(value):
            raise PreconditionError("a jet's coefficients cannot be jets")
        n = _tables(nvars, order, eps)[2][order]
        c = [value] + [_zero_like(value)] * (n - 1)
        return Jet(nvars, order, c, eps)

    @staticmethod
    def variable(i, value, nvars, order):
        j = Jet.constant(value, nvars, order)
        if order >= 1:
            seed = tuple(1 if k == i else 0 for k in range(nvars))
            pos = _tables(nvars, order)[1][seed]
            j.c[pos] = _one_like(value)
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
        return self.c[slot]

    def derivative(self, alpha):
        """Partial derivative d^alpha f for multi-index alpha."""
        fact = 1.0
        for a in alpha:
            fact *= math.factorial(a)
        return self.coefficient(alpha) * fact

    def truncated(self, order):
        if not 0 <= order <= self.order:
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
        new variable are zero.  No arithmetic is done, so
        ``a.lift(n) * b.lift(n)`` equals ``(a * b).lift(n)`` bit for bit.
        This jet must have no eps variables, and a slope must be a jet in
        its variables, without eps variables, of order at least ``order``.
        """
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
        out = [_zero_like(self.c[0])] * len(position)
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
        coefficient, read with `coefficient` (`deformation.variation`).
        """
        if not 0 <= d < self.nvars - self.eps:
            raise PreconditionError(
                f"{self._kind()} has no worldvolume variable {d}; read an "
                "eps coefficient with Jet.coefficient or "
                "deformation.variation")
        if self.order < 1:
            raise PreconditionError(
                f"cannot differentiate an order-{self.order} jet; the "
                "geometry needs a higher jet order")
        ops = _tables(self.nvars, self.order, self.eps)[4][d]
        return Jet(self.nvars, self.order - 1,
                   [self.c[src] * fct for src, fct in ops], self.eps)

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
            return Jet(a.nvars, a.order, [x + y for x, y in zip(a.c, b.c)],
                       a.eps)
        c = list(self.c)
        c[0] = c[0] + other
        return Jet(self.nvars, self.order, c, self.eps)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.nvars, self.order, [-x for x in self.c], self.eps)

    def __sub__(self, other):
        return self + (-other if _is_jet(other) else -1.0 * other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if _is_jet(other):
            a, b = self._align(other)
            ac, bc = a.c, b.c
            prod = lambda i, j: ac[i] * bc[j]  # noqa: E731
            pairs = _tables(a.nvars, a.order, a.eps)[3]
            return Jet(a.nvars, a.order, [_cauchy(p, prod) for p in pairs],
                       a.eps)
        return Jet(self.nvars, self.order, [x * other for x in self.c],
                   self.eps)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if _is_jet(other):
            return self * other._reciprocal()
        _require("division", other, "nonzero")
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, p):
        integer = float(p).is_integer()
        if integer and p >= 0:
            # repeated products, which hold at a zero value too
            if p == 0:
                return Jet.constant(_one_like(self.c[0]), self.nvars,
                                    self.order, self.eps)
            out = self
            for _ in range(int(p) - 1):
                out = out * self
            return out
        # a real power needs a positive value, or a non-negative one if the
        # jet carries only its value (no slope); a negative integer power a
        # nonzero one
        _require(f"x ** {p}", self.c[0], "nonzero" if integer else
                 "positive" if len(self.c) > 1 or p < 0 else "non-negative")
        return self._compose("pow", self.c[0] ** p, p=p)

    # -- analytic functions, by degree recurrence -------------------------
    def _compose(self, kind, f0, g0=None, p=None):
        """f(self) for an analytic f, given f0 = f(value), in one pass.

        The Euler operator E = sum_d x_d d/dx_d multiplies a term of total
        degree |k| by |k|, and E f(u) = f'(u) E u.  Read on coefficients,
        over the pairs (i, j) -> k of `_tables` with i != 0 (whose j all
        come before k), this gives each f_k from earlier slots only:

          exp:  f_k = sum |i| u_i f_j / |k|
          pow:  f_k = sum (p|i| - |j|) u_i f_j / (|k| u_0)   (f = u**p)
          log:  f_k = (u_k - sum |j| u_i f_j / |k|) / u_0
          sin, cos, sinh, cosh:  the pair s' = c, c' = -s (c' = s for the
                hyperbolic pair) in one pass, s_k = sum |i| u_i c_j / |k|
                and c_k = -+sum |i| u_i s_j / |k|; f0 = s(value), g0 =
                c(value), and ``kind`` names the one returned.

        These are the Taylor-arithmetic tables of Griewank and Walther,
        Evaluating Derivatives, ch. 13.
        """
        u = self.c
        tab = _tables(self.nvars, self.order, self.eps)
        pairs, deg = tab[3], tab[5]
        f = [f0]
        if len(u) > 1 and kind in ("pow", "log"):
            r = 1.0 / u[0]
        if kind == "log":
            df = [0.0]  # df[j] = |j| f_j
            prod = lambda i, j: u[i] * df[j]  # noqa: E731
            for k in range(1, len(u)):
                f.append((u[k] - _cauchy(pairs[k][1:], prod) / deg[k]) * r)
                df.append(deg[k] * f[k])
            return Jet(self.nvars, self.order, f, self.eps)
        if kind == "pow":
            prod = lambda i, j: (p * deg[i] - deg[j]) * u[i] * f[j]  # noqa: E731
            for k in range(1, len(u)):
                f.append(_cauchy(pairs[k][1:], prod) * r / deg[k])
            return Jet(self.nvars, self.order, f, self.eps)
        du = [None] + [d * x for d, x in zip(deg[1:], u[1:])]
        if kind == "exp":
            prod = lambda i, j: du[i] * f[j]  # noqa: E731
            for k in range(1, len(u)):
                f.append(_cauchy(pairs[k][1:], prod) / deg[k])
            return Jet(self.nvars, self.order, f, self.eps)
        g = [g0]
        sign = -1.0 if kind in ("sin", "cos") else 1.0
        f_prod = lambda i, j: du[i] * g[j]  # noqa: E731
        g_prod = lambda i, j: du[i] * f[j]  # noqa: E731
        for k in range(1, len(u)):
            f.append(_cauchy(pairs[k][1:], f_prod) / deg[k])
            g.append(_cauchy(pairs[k][1:], g_prod) / (sign * deg[k]))
        return Jet(self.nvars, self.order, f if kind in ("sin", "sinh") else g,
                   self.eps)

    def _reciprocal(self):
        _require("reciprocal", self.c[0], "nonzero")
        return self._compose("pow", 1.0 / self.c[0], p=-1.0)

    def sqrt(self):
        _require("sqrt", self.c[0],
                 "positive" if len(self.c) > 1 else "non-negative")
        return self._compose("pow", sqrt(self.c[0]), p=0.5)

    def exp(self):
        return self._compose("exp", exp(self.c[0]))

    def log(self):
        _require("log", self.c[0], "positive")
        return self._compose("log", log(self.c[0]))

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
        return Jet(self.nvars, self.order, [fn(x) for x in self.c], self.eps)

    def __getitem__(self, idx):
        """Slice the leading (tensor) axes of every coefficient array."""
        return self.map_coeffs(lambda x: x[idx])

    def __repr__(self):
        return f"Jet(nvars={self.nvars}, order={self.order}, value={self.value!r})"


def _zero_like(v):
    if isinstance(v, np.ndarray):
        return np.zeros_like(v, dtype=float)
    return 0.0


def _one_like(v):
    if isinstance(v, np.ndarray):
        return np.ones_like(v, dtype=float)
    return 1.0


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


def exp(x):
    return x.exp() if _is_jet(x) else np.exp(x)


def log(x):
    return x.log() if _is_jet(x) else np.log(x)


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
    the value.  ``template`` gives nvars, order and eps when no leaf is a
    jet; it adds no grid axes, so a tensor made only of constants
    broadcasts through einsum's ``...``.
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
                for i, e in enumerate(leaves) if k == 0 or _is_jet(e)]
        full = np.broadcast_shapes(*(a.shape for _i, a in vals))
        flat = np.zeros((len(leaves),) + full)
        for i, a in vals:
            flat[i] = a
        out.append(flat.reshape(tuple(shape) + full))
    return Jet(lead.nvars, lead.order, out, lead.eps)


def jet_rearrange(spec, a):
    """Single-operand einsum on the tensor axes (relabel, trace, transpose)."""
    return a.map_coeffs(lambda x: np.einsum(spec, np.asarray(x, float)))


def _is_constant(j):
    """True for a constant tensor jet: more than a value, an ndarray value
    and all-zero arrays in every later coefficient (NaN is not zero)."""
    return (len(j.c) > 1 and type(j.c[0]) is np.ndarray
            and all(type(x) is np.ndarray and not x.any() for x in j.c[1:]))


def jet_einsum(spec, a, b):
    """einsum over the tensor axes of two jets (or a jet and an array).

    A constant tensor jet contracts as its value array, one contraction per
    coefficient of the other jet: each of its other Cauchy terms is an
    exact zero for finite coefficients.  Coefficients must be arrays or
    numbers; a jet whose coefficients are jets raises `PreconditionError`.
    """
    if _is_jet(a) and _is_jet(b):
        a, b = a._align(b)
        nested = _is_jet(a.c[0]) or _is_jet(b.c[0])
        if not nested and _is_constant(a):
            a = a.c[0]
        elif not nested and _is_constant(b):
            b = b.c[0]
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
    ac = [np.asarray(x, float) for x in a.c]
    bc = [np.asarray(x, float) for x in b.c]
    prod = lambda i, j: np.einsum(spec, ac[i], bc[j])  # noqa: E731
    pairs = _tables(a.nvars, a.order, a.eps)[3]
    return Jet(a.nvars, a.order, [_cauchy(p, prod) for p in pairs], a.eps)


def jet_matinv(g):
    """Inverse of a matrix-valued jet with leading axes (n, n).

    Degree recurrence of Taylor arithmetic: x_0 = inv(g_0), then
    x_k = -x_0 sum g_i x_j over the products (i, j) -> k with i != 0, in
    slot order, so every x_j read is already known.  The value is
    inv(g_0) at every jet order, and a lower-order inverse is a prefix of a
    higher-order one.  Coefficients are C-contiguous.
    """
    val = np.asarray(g.value, float)
    x0 = np.ascontiguousarray(np.moveaxis(
        np.linalg.inv(np.moveaxis(val, (0, 1), (-2, -1))), (-2, -1), (0, 1)))
    gc = [np.asarray(c, float) for c in g.c]
    neg, x = -x0, [x0]
    prod = lambda i, j: np.einsum("ab...,bc...->ac...", gc[i], x[j])  # noqa: E731
    for pairs in _tables(g.nvars, g.order, g.eps)[3][1:]:
        x.append(np.einsum("ab...,bc...->ac...", neg, _cauchy(pairs[1:], prod),
                           order="C"))
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

