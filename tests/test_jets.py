import ast
import gc
import math
import pathlib
import weakref
from itertools import product

import numpy as np
import pytest

from branelab import jets
from branelab.errors import PreconditionError
from branelab.jets import Jet, jet_det, jet_einsum, jet_matinv, jet_stack


def test_variable_seeding():
    x = Jet.variable(0, 2.0, nvars=2, order=3)
    assert x.value == 2.0
    assert x.derivative((1, 0)) == 1.0
    assert x.derivative((0, 1)) == 0.0
    assert x.derivative((2, 0)) == 0.0


def test_polynomial_partials():
    # f(x, y) = x^2 y + 3 y^3 at (2, -1)
    x, y = jets.variables([2.0, -1.0], order=3)
    f = x * x * y + 3.0 * y**3
    assert np.allclose(f.value, -7.0)
    assert np.allclose(f.derivative((1, 0)), 2 * 2 * -1)       # 2xy
    assert np.allclose(f.derivative((0, 1)), 4 + 9)            # x^2 + 9y^2
    assert np.allclose(f.derivative((1, 1)), 4.0)              # 2x
    assert np.allclose(f.derivative((2, 0)), -2.0)             # 2y
    assert np.allclose(f.derivative((0, 3)), 18.0)             # 18
    assert np.allclose(f.derivative((3, 0)), 0.0)


def test_transcendental_chain():
    # f(x) = sin(exp(x) + x^2), check against manual derivatives at x=0.3
    x0 = 0.3
    (x,) = jets.variables([x0], order=4)
    f = jets.sin(jets.exp(x) + x * x)
    u = math.exp(x0) + x0 * x0
    du = math.exp(x0) + 2 * x0
    d2u = math.exp(x0) + 2.0
    d3u = math.exp(x0)
    assert np.allclose(f.value, math.sin(u))
    assert np.allclose(f.derivative((1,)), math.cos(u) * du)
    assert np.allclose(f.derivative((2,)), -math.sin(u) * du**2 + math.cos(u) * d2u)
    d3 = (-math.cos(u) * du**3 - 3 * math.sin(u) * du * d2u + math.cos(u) * d3u)
    assert np.allclose(f.derivative((3,)), d3)


def test_division_log_sqrt():
    x0, y0 = 1.7, 0.4
    x, y = jets.variables([x0, y0], order=3)
    f = jets.log(x) / jets.sqrt(x + y * y)
    # cross-check value and one mixed partial by finite differences
    def fval(a, b):
        return math.log(a) / math.sqrt(a + b * b)

    h = 1e-5
    fd_xy = (
        fval(x0 + h, y0 + h) - fval(x0 + h, y0 - h)
        - fval(x0 - h, y0 + h) + fval(x0 - h, y0 - h)
    ) / (4 * h * h)
    assert np.allclose(f.value, fval(x0, y0))
    assert np.allclose(f.derivative((1, 1)), fd_xy, atol=1e-6)


def test_hyperbolic_and_pow():
    (x,) = jets.variables([0.9], order=3)
    f = jets.cosh(x) ** 2 - jets.sinh(x) ** 2
    assert np.allclose(f.value, 1.0)
    assert np.allclose(f.derivative((1,)), 0.0, atol=1e-13)
    assert np.allclose(f.derivative((2,)), 0.0, atol=1e-13)
    g = (x * x + 1.0) ** 0.5
    val = math.sqrt(0.9**2 + 1)
    assert np.allclose(g.value, val)
    assert np.allclose(g.derivative((1,)), 0.9 / val)


def test_partial_lowers_order():
    x, y = jets.variables([0.5, 1.5], order=4)
    f = x**3 * y**2
    fx = f.partial(0)
    assert fx.order == 3
    assert np.allclose(fx.value, 3 * 0.25 * 2.25)
    assert np.allclose(fx.derivative((1, 1)), 6 * 0.5 * 2 * 1.5)  # d2/dxdy of 3x^2y^2


def test_array_coefficients_vectorize():
    # same jet program over a grid of points at once
    grid = np.linspace(0.1, 1.4, 7)
    x = Jet.variable(0, grid, nvars=1, order=3)
    f = jets.sin(x) * jets.exp(x)
    d2 = f.derivative((2,))
    expected = 2 * np.cos(grid) * np.exp(grid)  # (sin e^x)'' = 2 cos e^x
    np.testing.assert_allclose(d2, expected, rtol=1e-12)


def test_min_order_mixing():
    x = Jet.variable(0, 1.0, nvars=1, order=4)
    y = Jet.variable(0, 2.0, nvars=1, order=2)
    f = x * y
    assert f.order == 2


def test_numpy_interop_is_explicit():
    x = Jet.variable(0, 1.0, nvars=1, order=2)
    with pytest.raises(TypeError):
        np.sin(x)  # jets refuse silent ufunc dispatch
    assert jets.sin(x).value == pytest.approx(math.sin(1.0))


def test_jet_stack_and_einsum():
    x, y = jets.variables([0.7, -0.2], order=2)
    v = jet_stack([x * y, x + y, 1.0])
    w = jet_stack([x, y, x * x])
    dot = jet_einsum("a...,a...->...", v, w)
    expect = lambda a, b: (a * b) * a + (a + b) * b + a * a  # noqa: E731
    assert np.allclose(dot.value, expect(0.7, -0.2))
    h = 1e-6
    fd = (expect(0.7 + h, -0.2) - expect(0.7 - h, -0.2)) / (2 * h)
    assert np.allclose(dot.derivative((1, 0)), fd, atol=1e-8)


def test_jet_stack_nests_and_mixes_leaves():
    grid = np.array([0.5, 0.7, 0.9])
    x, y = jets.variables([grid, 1.0 + grid], order=3)
    t = jet_stack([[x * y, 2.0], [y.truncated(2), np.array([1.0, 2.0, 3.0])]])
    assert (t.nvars, t.order, t.value.shape) == (2, 2, (2, 2, 3))
    for k in range(len(t.c)):
        np.testing.assert_array_equal(t.c[k][0, 0], (x * y).c[k])
        np.testing.assert_array_equal(t.c[k][1, 0], y.c[k])
    # a constant leaf writes only the value
    np.testing.assert_array_equal(t.value[0, 1], 2.0)
    np.testing.assert_array_equal(t.value[1, 1], [1.0, 2.0, 3.0])
    for c in t.c[1:]:
        np.testing.assert_array_equal(c[:, 1], 0.0)
    # a scalar leaf broadcasts against a tensor leaf's axes
    vec = jet_stack([x, y])
    m = jet_stack([vec, x])
    assert m.value.shape == (2, 2, 3)
    for k in range(len(m.c)):
        np.testing.assert_array_equal(m.c[k][0], vec.c[k])
        np.testing.assert_array_equal(m.c[k][1], [x.c[k], x.c[k]])


def test_jet_stack_of_constants_takes_no_grid_from_template():
    (x,) = jets.variables([np.linspace(0.0, 1.0, 4)], order=2)
    eye = jet_stack([[1.0, 0.0], [0.0, 1.0]], template=x)
    assert (eye.nvars, eye.order) == (1, 2)
    np.testing.assert_array_equal(eye.value, np.eye(2))
    for c in eye.c[1:]:
        np.testing.assert_array_equal(c, np.zeros((2, 2)))
    with pytest.raises(PreconditionError, match="template"):
        jet_stack([1.0, 2.0])


def test_jet_stack_rejects_other_variable_counts():
    grid = np.linspace(0.0, 1.0, 4)
    (x,) = jets.variables([grid], order=2)
    y = jets.variables([grid, grid], order=2)[1]
    for leaves in ([x, y], [y, x]):
        with pytest.raises(PreconditionError, match="cannot combine"):
            jet_stack(leaves)


def test_jet_stack_keeps_no_leaf_alive():
    # with the cycle collector off, only reference counting frees the leaves
    (x,) = jets.variables([np.linspace(0.0, 1.0, 5)], order=2)
    gc.disable()
    try:
        leaf = x * x
        ref = weakref.ref(leaf.c[1])
        out = jet_stack([[leaf, 1.0], [x, 0.0]])
        del leaf
        assert ref() is None
        assert out.value.shape == (2, 2, 5)
    finally:
        gc.enable()


def test_only_jets_touches_private_jet_names():
    src = pathlib.Path(jets.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name == "jets.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith(
                    "jets"):
                bad = [a.name for a in node.names if a.name.startswith("_")]
                assert not bad, f"{path.name} imports {bad} from jets"
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "jets"):
                raise AssertionError(f"{path.name} reads jets.{node.attr}")


def test_matinv_exact():
    rng = np.random.default_rng(7)
    x, y = jets.variables([0.5, 0.8], order=3)
    a = rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2))
    base = np.eye(2) * 3.0
    g = jet_stack([
        jet_stack([base[0, 0] + a[0, 0] * x + b[0, 0] * y * y,
                   base[0, 1] + a[0, 1] * x * y]),
        jet_stack([base[1, 0] + a[0, 1] * x * y,
                   base[1, 1] + a[1, 1] * jets.sin(y)]),
    ])
    ginv = jet_matinv(g)
    ident = jet_einsum("ab...,bc...->ac...", g, ginv)
    for k, coeff in enumerate(ident.c):
        target = np.eye(2) if k == 0 else np.zeros((2, 2))
        np.testing.assert_allclose(np.asarray(coeff, float), target, atol=1e-12)


def test_det_matches_numpy():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        m = rng.normal(size=(n, n)) + np.eye(n) * 4
        g = Jet.constant(m, nvars=1, order=2)
        assert np.allclose(jet_det(g).value, np.linalg.det(m))


def test_det_derivative():
    # d/dt det(I + t A) at t=0 equals trace(A)
    rng = np.random.default_rng(11)
    a = rng.normal(size=(3, 3))
    (t,) = jets.variables([0.0], order=2)
    rows = []
    for i in range(3):
        rows.append(jet_stack([(1.0 if i == j else 0.0) + a[i, j] * t
                               for j in range(3)]))
    g = jet_stack(rows)
    d = jet_det(g)
    assert np.allclose(d.derivative((1,)), np.trace(a))


def test_det_rejects_a_matrix_above_3x3():
    with pytest.raises(PreconditionError, match="up to 3x3, not 4x4"):
        jet_det(Jet.constant(np.eye(4), nvars=1, order=2))


@pytest.mark.parametrize("make", [
    pytest.param(lambda: Jet(1, 3, [0.7, 1.0, 0.0, 0.0]), id="scalar"),
    pytest.param(lambda: _random_jet(2, 3, (5,), 7), id="array"),
    pytest.param(lambda: _random_jet(2, 3, (5,), 7).lift(4), id="eps-capped"),
])
def test_zeroth_power_is_the_constant_one(make):
    x = make()
    for p in (0, 0.0):
        one = x ** p
        assert (one.nvars, one.order, one.eps) == (x.nvars, x.order, x.eps)
        assert len(one.c) == len(x.c)
        np.testing.assert_array_equal(one.value, np.ones_like(x.value))
        assert np.shape(one.value) == np.shape(x.value)
        for c in one.c[1:]:
            np.testing.assert_array_equal(c, np.zeros_like(x.value))


def eval_map(fn, values, order):
    """Evaluate a python map on jet variables; stack its outputs on the
    leading axis."""
    xs = jets.variables(values, order)
    return jet_stack(list(fn(*xs)), template=xs[0])


def test_eval_map_stacks_components():
    def sphere(theta, phi):
        return (jets.sin(theta) * jets.cos(phi),
                jets.sin(theta) * jets.sin(phi),
                jets.cos(theta))

    X = eval_map(sphere, [0.6, 1.1], order=2)
    assert np.asarray(X.value).shape == (3,)
    # d(cos theta)/dtheta = -sin(theta)
    assert np.allclose(X.partial(0).value[2], -math.sin(0.6))


def test_einsum_rejects_jets_of_jets():
    # a jet whose coefficients are tensor jets is refused in each branch:
    # jet by jet (either or both nested), array by jet and jet by array
    rng = np.random.default_rng(5)
    a, da = (Jet(2, 2, list(rng.normal(size=(6, 3, 3, 4)))) for _ in range(2))
    arr = rng.normal(size=(3, 3, 4))
    nested, flat = Jet(1, 1, [a, da]), Jet(1, 1, [arr, 2.0 * arr])
    spec = "ab...,bc...->ac..."
    for x, y in ((nested, nested), (flat, nested), (nested, flat),
                 (arr, nested), (nested, arr)):
        with pytest.raises(PreconditionError, match="jets of jets"):
            jet_einsum(spec, x, y)


def test_truncate_is_prefix():
    x, y = jets.variables([1.1, 0.4], order=4)
    f = jets.exp(x * y)
    g = f.truncated(2)
    assert g.order == 2
    assert np.allclose(g.derivative((1, 1)), f.derivative((1, 1)))


def test_random_identity_properties():
    rng = np.random.default_rng(42)
    for _ in range(25):
        v = rng.uniform(0.2, 1.5, size=2)
        x, y = jets.variables(list(v), order=3)
        lhs = jets.log(x * y)
        rhs = jets.log(x) + jets.log(y)
        for a, b in zip(lhs.c, rhs.c):
            np.testing.assert_allclose(a, b, atol=1e-12)
        s2 = jets.sin(x) ** 2 + jets.cos(x) ** 2
        np.testing.assert_allclose(s2.value, 1.0, atol=1e-13)
        for coeff in s2.c[1:]:
            np.testing.assert_allclose(coeff, 0.0, atol=1e-12)


def _matrix_jet(n, order, grid, seed):
    """A well-conditioned n x n matrix jet in two variables on a grid."""
    rng = np.random.default_rng(seed)
    ncoef = jets._tables(2, order)[2][order]
    c = [0.2 * rng.normal(size=(n, n) + grid) for _ in range(ncoef)]
    c[0] = c[0] + 3.0 * np.eye(n).reshape((n, n) + (1,) * len(grid))
    return Jet(2, order, c)


@pytest.mark.parametrize("order", range(7))
def test_matinv_residual_at_every_order(order):
    g = _matrix_jet(4, order, (3, 5), seed=order)
    x = jet_matinv(g)
    ident = jet_einsum("ab...,bc...->ac...", g, x)
    eye = np.eye(4).reshape(4, 4, 1, 1)
    for k, coeff in enumerate(ident.c):
        assert np.max(np.abs(coeff - (eye if k == 0 else 0.0))) <= 1e-14


def test_matinv_coefficients_are_c_contiguous():
    g = _matrix_jet(3, 4, (6, 4), seed=1)
    # a grid-major value (a moveaxis view) must not pass its layout on to
    # the inverse, whose coefficients feed every later einsum
    g.c[0] = np.ascontiguousarray(np.moveaxis(g.c[0], (0, 1), (-2, -1)))
    g.c[0] = np.moveaxis(g.c[0], (-2, -1), (0, 1))
    assert all(c.flags["C_CONTIGUOUS"] for c in jet_matinv(g).c)


def test_matinv_lower_order_is_bit_identical_prefix():
    g = _matrix_jet(2, 5, (7,), seed=2)
    full = jet_matinv(g)
    for order in range(5):
        low = jet_matinv(g.truncated(order))
        for a, b in zip(low.c, full.c):
            np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(
        full.value, np.moveaxis(np.linalg.inv(np.moveaxis(g.value, (0, 1),
                                                           (-2, -1))),
                                (-2, -1), (0, 1)))


def _random_jet(nvars, order, grid, seed):
    rng = np.random.default_rng(seed)
    n = len(jets._tables(nvars, order)[0])
    return Jet(nvars, order, [rng.normal(size=grid) for _ in range(n)])


def test_lift_places_coefficients_by_multi_index():
    a = _random_jet(2, 3, (5,), 11)
    lifted = a.lift(4)
    assert (lifted.nvars, lifted.order, lifted.eps) == (4, 3, 2)
    for alpha in jets._tables(4, 3, 2)[0]:
        want = a.coefficient(alpha[:2]) if alpha[2:] == (0, 0) else 0.0
        np.testing.assert_array_equal(lifted.coefficient(alpha), want)
    assert a.lift(2) is a
    with pytest.raises(PreconditionError, match="lift"):
        a.lift(1)


@pytest.mark.parametrize("order, slopes, slots", [
    (0, 1, 3), (2, 1, 18), (2, 2, 24), (3, 1, 30), (4, 2, 60), (6, 1, 84)])
def test_lift_carries_the_eps_multilinear_slots(order, slopes, slots):
    # 2 worldvolume variables to total degree ``order`` and the eps
    # variables, one per slope and one more, to total degree 1:
    # C(order + 2, 2) worldvolume monomials times 1 + slopes + 1; eps_k
    # holds slope k and the last eps variable zeros
    n = 2 + slopes + 1
    a = _random_jet(2, order, (3,), 5)
    vs = [_random_jet(2, order, (3,), 6 + k) for k in range(slopes)]
    lifted = a.lift(n, *vs)
    assert len(lifted.c) == slots
    want = [alpha for alpha in product(range(order + 1), repeat=2)
            for alpha in [alpha + eps
                          for eps in product((0, 1), repeat=n - 2)]
            if sum(alpha[:2]) <= order and sum(alpha[2:]) <= 1]
    assert sorted(jets._tables(n, order, n - 2)[0]) == sorted(want)
    for k in range(n - 2):
        pad = tuple(int(m == k) for m in range(n - 2))
        for alpha in jets._tables(2, order)[0]:
            np.testing.assert_array_equal(
                lifted.coefficient(alpha + pad),
                vs[k].coefficient(alpha) if k < slopes else 0.0)


def test_lift_places_slopes_in_the_new_variables():
    a = _random_jet(2, 3, (5,), 11)
    v = _random_jet(2, 3, (5,), 12)
    w = _random_jet(2, 4, (5,), 13)
    lifted = a.lift(5, v, w)
    assert (lifted.nvars, lifted.order, lifted.eps) == (5, 3, 3)
    for alpha in jets._tables(5, 3, 3)[0]:
        head, eps = alpha[:2], alpha[2:]
        want = {(0, 0, 0): a, (1, 0, 0): v, (0, 1, 0): w}.get(eps)
        # every slope coefficient up to the order, the top one included
        want = 0.0 if want is None else want.coefficient(head)
        np.testing.assert_array_equal(lifted.coefficient(alpha), want)


def test_lift_rejects_mismatched_slopes():
    a = _random_jet(2, 3, (5,), 11)
    with pytest.raises(PreconditionError, match="no slope"):
        a.lift(3, _random_jet(1, 3, (5,), 12))
    with pytest.raises(PreconditionError, match="order"):
        a.lift(3, _random_jet(2, 2, (5,), 12))
    with pytest.raises(PreconditionError, match="lift"):
        a.lift(3, a, a)
    # a jet with eps variables neither lifts nor is a slope
    with pytest.raises(PreconditionError, match="cannot lift .* 1 eps "
                                                "variables"):
        a.lift(3).lift(4, _random_jet(3, 3, (5,), 12))
    # in a's 2 variables, one of them an eps variable
    eps_slope = _random_jet(1, 3, (5,), 12).lift(2)
    with pytest.raises(PreconditionError, match="in 2 variables with 1 eps "
                                                "variables is no slope"):
        a.lift(3, eps_slope)


@pytest.mark.parametrize("nvars, order, extra", [(1, 4, 1), (2, 3, 2),
                                                  (2, 5, 1)])
def test_lift_commutes_with_products_bit_for_bit(nvars, order, extra):
    a = _random_jet(nvars, order, (3, 4), 1)
    b = _random_jet(nvars, order, (3, 4), 2)
    n = nvars + extra
    for got, want in ((a.lift(n) * b.lift(n), (a * b).lift(n)),
                      (jet_einsum("ij,ij->i", a.lift(n), b.lift(n)),
                       jet_einsum("ij,ij->i", a, b).lift(n)),
                      (a.lift(n).exp(), a.exp().lift(n))):
        assert (got.nvars, got.order) == (want.nvars, want.order)
        for x, y in zip(got.c, want.c):
            np.testing.assert_array_equal(x, y)
