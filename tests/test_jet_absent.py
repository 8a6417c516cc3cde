"""Absent coefficient slots, checked against a dense reference on random jets.

A jet slot the kernel knows to be an exact zero is absent (None in
``Jet.c``), and every operation sums only the pairs whose two factors are
present.  Here each operation runs on random jets with random absent
slots and is compared with a dense reference: every slot materialized as
zeros of the value's shape, and every product pair of `jets._tables`
summed in its order, out of place.  The references below are written from
the tables alone, not from `jets._live` or `jets._recurrence`, so a live
pair dropped or a slot wrongly left absent fails.

Results agree bit for bit, up to the sign of an exact zero: a sum whose
every term has an absent factor is absent (read as +0.0), where the dense
sum of zero products may be -0.0.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branelab import jets
from branelab.jets import Jet, jet_einsum, jet_matinv, jet_stack

EXACT = settings(max_examples=60, derandomize=True, deadline=None)

# (worldvolume variables, eps variables, order, coefficient shape, seed)
CASES = st.tuples(st.sampled_from([1, 2]), st.sampled_from([0, 1, 2]),
                  st.integers(0, 3), st.sampled_from([(), (3,), (2, 3)]),
                  st.integers(0, 2**32 - 1))
SHAPES = {(): (2, 2), (3,): (2, 2, 3), (2, 3): (2, 2, 2, 3)}  # matrix operands
MATMUL = "ab...,bc...->ac..."


def random_jet(nvars, order, eps, shape, rng, value=0.0):
    """Random coefficients (a float for shape ()), each slot but the value
    absent with probability 1/2; ``value`` shifts the value."""
    n = len(jets._tables(nvars, order, eps)[0])

    def draw():
        return float(rng.normal()) if shape == () else rng.normal(size=shape)

    c = [draw() + value] + [draw() if rng.random() < 0.5 else None
                            for _ in range(n - 1)]
    return Jet(nvars, order, c, eps)


def materialized(j):
    """Every slot of ``j``, an absent one as zeros of the value's shape."""
    zero = np.zeros_like(np.asarray(j.c[0], float))
    return [zero if x is None else x for x in j.c]


def dense_cauchy(a, b, contract):
    """Slot k sums contract(A_i, B_j) over every pair (i, j) -> k of the
    tables, in their order, out of place."""
    A, B = materialized(a), materialized(b)
    out = []
    for pairs in jets._tables(a.nvars, a.order, a.eps)[3]:
        s = None
        for i, j in pairs:
            t = contract(A[i], B[j])
            s = t if s is None else s + t
        out.append(s)
    return out


def dense_compose(u, kind, p, values):
    """The degree recurrences of `Jet._compose` on the materialized u, every
    pair (i, j) -> k with i != 0 summed; ``values`` gives f(u_0) (and, for
    the trigonometric pairs, s(u_0) and c(u_0))."""
    U = materialized(u)
    tab = jets._tables(u.nvars, u.order, u.eps)
    pairs, deg = tab[3], tab[5]
    f, g = [values[0](U[0])], [values[-1](U[0])]
    sign = -1.0 if kind in ("sin", "cos") else 1.0

    def total(k, term):
        s = None
        for i, j in pairs[k][1:]:
            t = term(i, j)
            s = t if s is None else s + t
        return s

    for k in range(1, len(U)):
        if kind == "pow":
            s = total(k, lambda i, j: (p * deg[i] - deg[j]) * U[i] * f[j])
            f.append(s * (1.0 / U[0]) / deg[k])
        else:
            fk = total(k, lambda i, j: deg[i] * U[i] * g[j]) / deg[k]
            g.append(total(k, lambda i, j: deg[i] * U[i] * f[j])
                     / (sign * deg[k]))
            f.append(fk)
    return g if kind in ("cos", "cosh") else f


def dense_matinv(m):
    M = materialized(m)
    x0 = np.moveaxis(np.linalg.inv(np.moveaxis(M[0], (0, 1), (-2, -1))),
                     (-2, -1), (0, 1))
    x = [x0]
    for pairs in jets._tables(m.nvars, m.order, m.eps)[3][1:]:
        s = None
        for i, j in pairs[1:]:
            t = np.einsum(MATMUL, M[i], x[j])
            s = t if s is None else s + t
        x.append(np.einsum(MATMUL, -x0, s))
    return x


def assert_dense(got, want):
    """``got`` equals the dense list ``want``: the value present, each slot
    of the same shape and bits, an exact zero's sign aside."""
    assert len(got.c) == len(want) and got.c[0] is not None
    for k, (x, y) in enumerate(zip(materialized(got), want)):
        x, y = np.asarray(x, float), np.asarray(y, float)
        assert x.shape == y.shape, k
        assert (x + 0.0).tobytes() == (y + 0.0).tobytes(), k


def _draw(case):
    nw, eps, order, shape, seed = case
    return nw + eps, order, eps, shape, np.random.default_rng(seed)


@EXACT
@given(case=CASES)
def test_products_sum_the_live_pairs(case):
    n, order, eps, shape, rng = _draw(case)
    a, b = (random_jet(n, order, eps, shape, rng) for _ in range(2))
    assert_dense(a * b, dense_cauchy(a, b, np.multiply))
    mshape = SHAPES[shape]
    A, B = (random_jet(n, order, eps, mshape, rng) for _ in range(2))
    contract = lambda x, y: np.einsum(MATMUL, x, y)  # noqa: E731
    assert_dense(jet_einsum(MATMUL, A, B), dense_cauchy(A, B, contract))
    # a constant operand is the special case with one live pair per slot
    C = Jet.constant(rng.normal(size=mshape), n, order, eps)
    assert_dense(jet_einsum(MATMUL, C, B), dense_cauchy(C, B, contract))
    assert_dense(jet_einsum(MATMUL, B, C), dense_cauchy(B, C, contract))


# (kind, the function, its power, the functions of the value it starts from)
COMPOSE = [("pow", Jet.sqrt, 0.5, (np.sqrt,)),
           ("pow", Jet._reciprocal, -1.0, (lambda x: 1.0 / x,)),
           ("sin", Jet.sin, None, (np.sin, np.cos)),
           ("cos", Jet.cos, None, (np.sin, np.cos)),
           ("sinh", Jet.sinh, None, (np.sinh, np.cosh)),
           ("cosh", Jet.cosh, None, (np.sinh, np.cosh))]


@EXACT
@given(case=CASES, fn=st.sampled_from(COMPOSE))
def test_recurrences_sum_the_live_pairs(case, fn):
    n, order, eps, shape, rng = _draw(case)
    kind, method, p, values = fn
    u = random_jet(n, order, eps, shape, rng)
    u.c[0] = 1.0 + np.abs(u.c[0])            # inside every function's domain
    assert_dense(method(u), dense_compose(u, kind, p, values))


@EXACT
@given(case=CASES)
def test_matinv_sums_the_live_pairs(case):
    n, order, eps, shape, rng = _draw(case)
    eye = np.eye(2).reshape((2, 2) + (1,) * len(shape))
    g = random_jet(n, order, eps, SHAPES[shape], rng, value=0.0)
    g.c[0] = 0.2 * g.c[0] + 3.0 * eye
    assert_dense(jet_matinv(g), dense_matinv(g))


@EXACT
@given(case=CASES)
def test_structural_operations_pass_absence_through(case):
    n, order, eps, shape, rng = _draw(case)
    a, b = (random_jet(n, order, eps, shape, rng) for _ in range(2))
    A, B = materialized(a), materialized(b)
    assert_dense(a + b, [x + y for x, y in zip(A, B)])
    assert_dense(a - b, [x - y for x, y in zip(A, B)])
    assert_dense(-a, [-x for x in A])
    for m in range(order + 1):
        cut = jets._tables(n, m, eps)[2][m]
        assert_dense(a.truncated(m), A[:cut])
    if order >= 1:
        for d in range(n - eps):
            ops = jets._tables(n, order, eps)[4][d]
            assert_dense(a.partial(d), [A[src] * fct for src, fct in ops])
    # a stack of two jets and a constant: the constant writes the value
    got = jet_stack([a, b, 2.0])
    assert_dense(got, [np.stack(np.broadcast_arrays(x, y, 2.0 if k == 0
                                                    else 0.0))
                       for k, (x, y) in enumerate(zip(A, B))])


@EXACT
@given(case=CASES, slopes=st.integers(0, 2))
def test_lift_pads_with_absent_slots(case, slopes):
    nw, extra, order, shape, seed = case
    rng = np.random.default_rng(seed)
    a = random_jet(nw, order, 0, shape, rng)
    V = [random_jet(nw, order + 1, 0, shape, rng) for _ in range(slopes)]
    n = nw + max(extra, slopes, 1)
    got = a.lift(n, *V)
    want = [np.zeros_like(np.asarray(a.c[0], float))] * len(got.c)
    position = jets._tables(n, order, n - nw)[1]
    pads = [(0,) * (n - nw)] + [tuple(int(m == k) for m in range(n - nw))
                                for k in range(slopes)]
    for pad, jet in zip(pads, [a] + V):
        for alpha, coef in zip(jets._tables(nw, order)[0], materialized(jet)):
            want[position[alpha + pad]] = coef
    assert_dense(got, want)
    # a padded slot is absent, not zeros
    held = {position[alpha + pad] for pad in pads
            for alpha in jets._tables(nw, order)[0]}
    assert all(got.c[k] is None for k in range(len(got.c)) if k not in held)


def test_absence_is_structural_not_read_from_data():
    # a present coefficient that happens to be zero, NaN or inf stays
    # present, and an inf meets an absent factor as no term (no NaN)
    (x,) = jets.variables([np.array([0.5, 0.7])], order=2)
    z = Jet(1, 2, [np.ones(2), np.zeros(2), None])
    assert z.c[1] is not None and (z * z).c[1] is not None
    bad = Jet(1, 2, [np.ones(2), np.array([np.inf, np.nan]), None])
    prod = bad * Jet.constant(np.full(2, 2.0), 1, 2)
    np.testing.assert_array_equal(prod.c[1], [np.inf, np.nan])
    assert prod.c[2] is None
    assert not np.isnan(prod.coefficient((2,))).any()
    # the value is never absent, even where its source slot is
    assert x.partial(0).partial(0).c[0] is not None


@pytest.mark.parametrize("shape", [(), (3,)])
def test_absent_slots_read_as_zeros_of_the_value_shape(shape):
    c = Jet.constant(np.ones(shape) if shape else 1.0, 2, 2, 1)
    for alpha in jets._tables(2, 2, 1)[0][1:]:
        got = c.coefficient(alpha)
        assert np.shape(got) == shape and not np.any(got)
        np.testing.assert_array_equal(c.derivative(alpha), got)
