"""The degree recurrences of `Jet._compose`, their domains, and the in-place
accumulation of Cauchy products.

`horner` is the Horner evaluation that `Jet._compose` used before its
recurrences; it stays here as their reference, as the central differences
of `test_backgrounds` do for the closed-form connections.
"""
import math
import re

import numpy as np
import pytest

from branelab import jets
from branelab.errors import DomainError, PreconditionError
from branelab.jets import Jet, jet_einsum, jet_matinv
from conftest import dense

# (name, method, power): each analytic function, and powers that the power
# recurrence (sqrt, the reciprocal) makes with products and division
FUNCTIONS = [
    ("sin", Jet.sin, None), ("cos", Jet.cos, None),
    ("sinh", Jet.sinh, None), ("cosh", Jet.cosh, None),
    ("sqrt", Jet.sqrt, 0.5), ("reciprocal", Jet._reciprocal, -1.0),
    ("pow", lambda u: 1.0 / u, -1.0),
    ("pow", lambda u: 1.0 / (u * u * jets.sqrt(u)), -2.5),
    ("pow", jets.sqrt, 0.5), ("pow", lambda u: u * jets.sqrt(u), 1.5),
]
SCALAR_FNS = {"sin": np.sin, "cos": np.cos, "sinh": np.sinh, "cosh": np.cosh}


def horner(u, derivs):
    """f(u) given derivs[k] = f^(k)(u.value), by Horner's rule in u - value."""
    h = Jet(u.nvars, u.order, [jets._zero_like(u.c[0])] + list(u.c[1:]))
    lift = lambda v: Jet.constant(v, u.nvars, u.order)  # noqa: E731
    out = lift(derivs[u.order] / math.factorial(u.order))
    for k in range(u.order - 1, -1, -1):
        out = out * h + lift(derivs[k] / math.factorial(k))
    return out


def reference(name, x, p=None):
    """name(x) (x**p for "pow", "sqrt" and "reciprocal") by `horner`, with
    the derivative tables evaluated by `reference` on the value."""
    if name in ("sqrt", "reciprocal"):
        name = "pow"
    if not isinstance(x, Jet):
        return np.power(x, p) if name == "pow" else SCALAR_FNS[name](x)
    x0, n = x.c[0], x.order
    if name in ("sin", "cos"):
        s, c = reference("sin", x0), reference("cos", x0)
        cycle = (s, c, -s, -c) if name == "sin" else (c, -s, -c, s)
        derivs = [cycle[k % 4] for k in range(n + 1)]
    elif name in ("sinh", "cosh"):
        s, c = reference("sinh", x0), reference("cosh", x0)
        pair = (s, c) if name == "sinh" else (c, s)
        derivs = [pair[k % 2] for k in range(n + 1)]
    else:  # falling factorial p (p - 1) ... (p - k + 1) times x0**(p - k)
        derivs, coef = [], 1.0
        for k in range(n + 1):
            derivs.append(coef * reference("pow", x0, p - k))
            coef *= p - k
    return horner(x, derivs)


def flat(x):
    """Every float of a jet, in slot order, absent slots as zeros."""
    if isinstance(x, Jet):
        return np.concatenate([flat(c) for c in dense(x)])
    return np.ravel(np.asarray(x, float))


def random_jet(kind, nvars, order, seed):
    """A jet with a value in [0.6, 1.4] and small higher coefficients, whose
    coefficients are floats or (2, 3) arrays."""
    rng = np.random.default_rng(seed)

    def coefficient(lo, hi):
        if kind == "scalar":
            return float(rng.uniform(lo, hi))
        return rng.uniform(lo, hi, size=(2, 3))

    n = jets._tables(nvars, order)[2][order]
    return Jet(nvars, order,
               [coefficient(0.6, 1.4)] + [coefficient(-0.3, 0.3)
                                          for _ in range(n - 1)])


def assert_close(got, want, rtol=1e-14):
    """Relative agreement in the max norm over all coefficients.  (Both
    evaluations round each coefficient at the size of the terms summed into
    it, so a coefficient that cancels to near zero has no relative
    accuracy of its own.)"""
    a, b = flat(got), flat(want)
    assert a.shape == b.shape
    assert np.max(np.abs(a - b)) <= rtol * np.max(np.abs(b))


@pytest.mark.parametrize("kind", ["scalar", "array"])
@pytest.mark.parametrize("name, fn, p", FUNCTIONS,
                         ids=[f"{f[0]}{'' if f[2] is None else f[2]}"
                              for f in FUNCTIONS])
def test_recurrence_matches_horner(name, fn, p, kind):
    for nvars in (1, 2, 3):
        for order in range(7):
            u = random_jet(kind, nvars, order, seed=10 * nvars + order)
            got = fn(u)
            assert (got.nvars, got.order) == (nvars, order)
            assert_close(got, reference(name, u, p))


@pytest.mark.parametrize("kind", ["scalar", "array"])
def test_lower_order_is_bit_identical_prefix(kind):
    u = random_jet(kind, 2, 6, seed=5)
    for name, fn, p in FUNCTIONS:
        full = fn(u)
        for order in range(6):
            low = fn(u.truncated(order))
            np.testing.assert_array_equal(flat(low),
                                          flat(full)[:flat(low).size])


@pytest.mark.parametrize("kind", ["scalar", "array"])
def test_identities(kind):
    for nvars, order in ((1, 6), (2, 5), (3, 4)):
        u = random_jet(kind, nvars, order, seed=nvars)
        one = Jet.constant(np.ones_like(u.c[0]), nvars, order)
        assert_close(jets.sqrt(u) * jets.sqrt(u), u)
        assert_close(jets.sin(u) * jets.sin(u) + jets.cos(u) * jets.cos(u), one)
        assert_close(u * (1.0 / u), one)


def test_sqrt_domain():
    u = Jet.variable(0, np.array([-1.0, 0.0, 1.0]), 1, 3)
    with pytest.raises(DomainError, match=r"sqrt .* -1\.0 at index \(0,\)"):
        u.sqrt()
    with pytest.raises(DomainError, match=r"sqrt .* 0\.0 at index \(0,\)"):
        jets.sqrt(u + 1.0)
    assert jets.sqrt(Jet.constant(0.0, 1, 0)).value == 0.0  # order 0: no slope
    with pytest.raises(DomainError, match=r"sqrt .* -1\.0 at index \(1,\)"):
        Jet.constant(np.array([0.0, -1.0]), 1, 0).sqrt()


def test_reciprocal_domain():
    u = Jet.variable(0, np.array([1.0, -2.0, 0.0]), 1, 2)
    with pytest.raises(DomainError,
                       match=r"reciprocal .* nonzero .* at index \(2,\)"):
        1.0 / u
    with pytest.raises(DomainError, match=r"nonzero"):
        Jet.constant(0.0, 1, 0)._reciprocal()
    np.testing.assert_array_equal((1.0 / (u + 3.0)).value, 1.0 / np.array(
        [4.0, 1.0, 3.0]))  # negative values are in the domain


def test_negative_power_domain():
    u = Jet.variable(0, np.array([0.0, 1.0]), 1, 2)
    with pytest.raises(DomainError, match=r"reciprocal .* at index \(0,\)"):
        1.0 / (u * u)
    np.testing.assert_array_equal((1.0 / ((u - 2.0) * (u - 2.0))).value,
                                  [0.25, 1.0])


def test_fractional_power_domain():
    # x ** 1.5 as x sqrt(x), and x ** -0.5 as 1 / sqrt(x)
    u = Jet.variable(0, np.array([3.0, -0.5]), 1, 1)
    with pytest.raises(DomainError, match=r"sqrt .* -0\.5 at index \(1,\)"):
        u * jets.sqrt(u)
    np.testing.assert_array_equal((u * u).value, [9.0, 0.25])
    low = Jet.constant(np.array([0.0, -0.5]), 1, 0)
    with pytest.raises(DomainError, match=r"sqrt .* -0\.5 at index \(1,\)"):
        low * jets.sqrt(low)
    with pytest.raises(DomainError,
                       match=r"reciprocal .* 0\.0 at index \(0,\)"):
        1.0 / jets.sqrt(low * low)
    np.testing.assert_array_equal(((low + 1.0) * jets.sqrt(low + 1.0)).value,
                                  [1.0, 0.5 * np.sqrt(0.5)])


@pytest.mark.parametrize("divisor, index", [
    (0.0, "()"), (np.float64(0.0), "()"), (np.array([2.0, 0.0, 0.0]), "(1,)")],
    ids=["float", "float64", "array"])
def test_division_by_zero_number(divisor, index):
    u = Jet.variable(0, np.array([1.0, 2.0, 3.0]), 1, 2)
    with pytest.raises(DomainError,
                       match=rf"division .* nonzero .* at index {re.escape(index)}"):
        u / divisor
    np.testing.assert_array_equal((u / -2.0).value, [-0.5, -1.0, -1.5])


def test_nested_values_checked_recursively():
    # a jet value is rejected where the jet would be made, before any
    # domain check could meet it
    inner = Jet.variable(0, -0.25, 1, 1)
    for make in (lambda: Jet.variable(0, inner, 1, 2),
                 lambda: Jet.constant(inner, 1, 2),
                 lambda: Jet.constant(inner, 2, 0, (1,))):
        with pytest.raises(PreconditionError, match="cannot be jets"):
            make()
    # one built around the constructors meets the domain checks
    for fn in (Jet.sqrt, Jet._reciprocal, jets.sqrt, lambda v: 1.0 / v):
        with pytest.raises(PreconditionError, match="needs a numeric value"):
            fn(Jet(1, 1, [inner, inner]))


def _copies(*js):
    return [[np.array(c, copy=True) for c in j.c] for j in js]


def _assert_unchanged(js, copies):
    for j, cs in zip(js, copies):
        for c, saved in zip(j.c, cs):
            np.testing.assert_array_equal(c, saved)


def _grid_jet(shape, order, seed):
    rng = np.random.default_rng(seed)
    n = jets._tables(2, order)[2][order]
    c = [rng.normal(size=shape) for _ in range(n)]
    c[0] = c[0] + 3.0 * np.eye(shape[0]).reshape(shape[:2] + (1,) * (len(shape) - 2))
    return Jet(2, order, c)


def test_products_leave_their_inputs_alone():
    a, b = _grid_jet((3, 3, 4, 5), 4, 1), _grid_jet((3, 3, 4, 5), 4, 2)
    const = Jet.constant(np.eye(3)[:, :, None, None] * np.ones((4, 5)), 2, 4)
    js = (a, b, const)
    saved = _copies(*js)
    jet_einsum("ab...,bc...->ac...", a, b)
    jet_einsum("ab...,bc...->ac...", const, a)
    jet_einsum("ab...,bc...->ac...", a, const)
    a * b, const * a, a * const, const * const
    jet_matinv(a), jet_matinv(const)
    _assert_unchanged(js, saved)
    assert const.c[1:] == [None] * (len(const.c) - 1)


def _out_of_place(a, b, prod):
    """The Cauchy product summed out of place, term by term, over every
    pair, absent slots read as zeros."""
    ac, bc, out = dense(a), dense(b), []
    for pairs in jets._tables(a.nvars, a.order)[3]:
        s = 0.0
        for i, j in pairs:
            s = s + prod(ac[i], bc[j])
        out.append(s)
    return out


@pytest.mark.parametrize("const", [False, True])
def test_broadcast_first_term_matches_out_of_place_sum(const):
    # b's coefficients are (D, D, 1, 1), so the first term of each slot,
    # a_0 b_k, is too; the later terms a_i b_j are grid-shaped
    rng = np.random.default_rng(3)
    a = _grid_jet((3, 3, 4, 5), 3, 4)
    a.c[0] = rng.normal(size=(3, 3, 1, 1))
    b = _grid_jet((3, 3, 1, 1), 3, 5)
    if const:
        b = Jet.constant(b.c[0], 2, 3)
    spec = "ab...,bc...->ac..."
    for got, want in (
            (jet_einsum(spec, a, b),
             _out_of_place(a, b, lambda x, y: np.einsum(spec, x, y))),
            (a * b, _out_of_place(a, b, lambda x, y: x * y))):
        assert [np.shape(c) for c in got.c] == [np.shape(c) for c in want]
        for x, y in zip(got.c, want):
            np.testing.assert_array_equal(x, y)
    if const:  # its absent slots stayed absent
        assert b.c[1:] == [None] * (len(b.c) - 1)
