"""The two levers that skip known zeros in the jet kernel, checked to be
exact on random jets.

* eps variables: a jet whose last variables are eps variables carries its
  other (worldvolume) variables to its order and the eps variables to
  total degree 1.  An isotropic jet of order N + 1 carries every monomial
  of an eps jet of order N, and projecting it onto them must commute, bit
  for bit, with every kernel operation.
* absent slots: a product sums only the pairs whose two factors are
  present, so a constant tensor jet contracts as its value array, and
  must equal the full Cauchy sum over every slot read as dense.

The reference products and carried sets here are built from the
multi-indices alone, not from the product pairs or the carried set of
`jets._tables`, so a pair dropped or summed out of graded order there
fails.
"""
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branelab import deformation as dfm
from branelab import embeddings as emb
from branelab import jets
from branelab.errors import DomainError, ParameterError, PreconditionError
from branelab.jets import Jet, jet_einsum, jet_matinv, jet_stack
from conftest import dense

GRID = (3,)
MATMUL = "ab...,bc...->ac..."

# (worldvolume variables, eps variables, order of the eps jets, seed)
CASES = st.tuples(st.sampled_from([1, 2]), st.sampled_from([1, 2]),
                  st.integers(0, 4), st.integers(0, 2**32 - 1))
EXACT = settings(max_examples=40, derandomize=True, deadline=None)


def carried(nvars, order, eps):
    """The monomials of (nvars, order, eps), by their definition."""
    head = nvars - eps
    return {a for a in product(range(order + 2), repeat=nvars)
            if sum(a[:head]) <= order and sum(a[head:]) <= (1 if eps else 0)}


def iso_jet(nvars, order, rng, shape=GRID, value=0.0):
    """An isotropic jet with random coefficients; ``value`` shifts its
    value, so it can be kept positive or a matrix kept invertible."""
    n = len(jets._tables(nvars, order)[0])
    c = [rng.normal(size=shape) for _ in range(n)]
    c[0] = c[0] + value
    return Jet(nvars, order, c)


def project(j, eps):
    """The coefficients of the isotropic jet ``j`` of order N on the
    monomials of an eps jet of order N - 1 (of order N without eps
    variables), read one multi-index at a time."""
    order = j.order - (eps > 0)
    idx = jets._tables(j.nvars, order, eps)[0]
    assert set(idx) == carried(j.nvars, order, eps)
    return Jet(j.nvars, order, [j.coefficient(a) for a in idx], eps)


def assert_bits(got, want):
    assert (got.nvars, got.order, got.eps) == (want.nvars, want.order, want.eps)
    assert len(got.c) == len(want.c)
    for k, (x, y) in enumerate(zip(got.c, want.c)):
        x, y = np.asarray(x, float), np.asarray(y, float)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), k


def cauchy(a, b, contract=np.multiply):
    """Slot k of the product sums contract(a_i, b_j) over every pair of
    carried multi-indices alpha_i + alpha_j = alpha_k, alpha_i in graded
    (total degree, then lexicographic) order, each later term added to the
    first.  An absent slot is read as zeros (`Jet.coefficient`)."""
    pos = {alpha: n for n, alpha in enumerate(
        jets._tables(a.nvars, a.order, a.eps)[0])}
    ac, bc, out = dense(a), dense(b), []
    for gamma in pos:
        s = None
        for alpha in sorted(pos, key=lambda alpha: (sum(alpha), alpha)):
            j = pos.get(tuple(g - x for g, x in zip(gamma, alpha)))
            if j is not None:
                t = contract(ac[pos[alpha]], bc[j])
                s = t if s is None else s + t
        out.append(s)
    return Jet(a.nvars, a.order, out, a.eps)


def _setup(case):
    """(worldvolume variables, all variables, the isotropic jets' order,
    eps variables, rng): the isotropic order is the eps jets' order plus
    one, the eps degree they carry."""
    nw, neps, order, seed = case
    return nw, nw + neps, order + 1, neps, np.random.default_rng(seed)


@EXACT
@given(case=CASES)
def test_projection_commutes_with_products(case):
    nw, n, order, eps, rng = _setup(case)
    P = lambda j: project(j, eps)  # noqa: E731
    a, b = iso_jet(n, order, rng), iso_jet(n, order, rng)
    assert_bits(P(a) * P(b), P(a * b))
    assert_bits(P(a) * P(b), cauchy(P(a), P(b)))
    assert_bits(a * b, cauchy(a, b))
    A, B = (iso_jet(n, order, rng, shape=(2, 2) + GRID) for _ in range(2))
    got = jet_einsum(MATMUL, P(A), P(B))
    assert_bits(got, P(jet_einsum(MATMUL, A, B)))
    contract = lambda x, y: np.einsum(MATMUL, x, y)  # noqa: E731
    assert_bits(got, cauchy(P(A), P(B), contract))


@EXACT
@given(case=CASES)
def test_projection_commutes_with_matinv(case):
    nw, n, order, eps, rng = _setup(case)
    eye = np.eye(3).reshape((3, 3, 1))
    g = iso_jet(n, order, rng, shape=(3, 3) + GRID, value=4.0 * eye)
    assert_bits(jet_matinv(project(g, eps)), project(jet_matinv(g), eps))


# each analytic function, and powers made of them, products and division
COMPOSE = [Jet.sqrt, Jet._reciprocal, Jet.sin, Jet.cos, Jet.sinh, Jet.cosh,
           lambda u: u * jets.sqrt(u), lambda u: 1.0 / (u * u),
           lambda u: 1.0 / jets.sqrt(u), lambda u: u * u * u]


@EXACT
@given(case=CASES, fn=st.sampled_from(COMPOSE))
def test_projection_commutes_with_compose(case, fn):
    nw, n, order, eps, rng = _setup(case)
    u = iso_jet(n, order, rng)
    u.c[0] = 1.0 + np.abs(u.c[0])            # inside every function's domain
    assert_bits(fn(project(u, eps)), project(fn(u), eps))


@EXACT
@given(case=CASES)
def test_projection_commutes_with_partial_truncation_and_stack(case):
    nw, n, order, eps, rng = _setup(case)
    P = lambda j: project(j, eps)  # noqa: E731
    a, b = iso_jet(n, order, rng), iso_jet(n, max(order - 1, 1), rng)
    for d in range(nw):                      # worldvolume variables
        if order > 1:
            assert_bits(P(a).partial(d), P(a.partial(d)))
        else:
            with pytest.raises(PreconditionError, match="order-0"):
                P(a).partial(d)
    for d in range(nw, n):                   # eps variables: no partial
        with pytest.raises(PreconditionError, match="eps coefficient"):
            P(a).partial(d)
    for m in range(order):
        assert_bits(P(a).truncated(m), P(a.truncated(m + 1)))
    assert_bits(jet_stack([[P(a), 1.0], [P(b), 2.0]]),
                P(jet_stack([[a, 1.0], [b, 2.0]])))


@EXACT
@given(case=CASES, with_eps=st.booleans(), left=st.booleans())
def test_constant_operand_equals_the_full_cauchy_sum(case, with_eps, left):
    nw, n, order, eps, rng = _setup(case)
    eps = eps if with_eps else 0
    B = project(iso_jet(n, order, rng, shape=(2, 2) + GRID), eps)
    A = Jet.constant(rng.normal(size=(2, 2) + GRID), n, B.order, B.eps)
    assert A.c[1:] == [None] * (len(A.c) - 1)
    assert all(x is not None for x in B.c)
    a, b = (A, B) if left else (B, A)
    contract = lambda x, y: np.einsum(MATMUL, x, y)  # noqa: E731
    assert_bits(jet_einsum(MATMUL, a, b), cauchy(a, b, contract))
    # a NaN in a later coefficient is present, not a zero: its terms run
    # and carry it into its slot
    A.c[-1] = np.zeros_like(A.c[0])
    A.c[-1][0, 0, 0] = np.nan
    got = jet_einsum(MATMUL, a, b)
    assert np.isnan(got.c[-1]).any()
    for x, y in zip(dense(got), cauchy(a, b, contract).c):
        np.testing.assert_array_equal(x, y)


def test_constant_path_is_one_call(monkeypatch):
    calls = []
    inner = jets.jet_einsum

    def counted(*args):
        calls.append(args[0])
        return inner(*args)

    monkeypatch.setattr(jets, "jet_einsum", counted)
    x = jets.variables([np.linspace(0.0, 1.0, 4)], order=3)[0]
    eye = Jet.constant(np.eye(2).reshape(2, 2, 1), 1, 3)
    vec = jet_stack([x, x * x])
    jets.jet_einsum("ab...,b...->a...", eye, vec)
    assert calls == ["ab...,b...->a..."]


def test_nested_values_are_not_constants():
    # a jet of jets beside a constant jet is refused, not contracted as a
    # constant; an order-0 constant contracts as its value
    (x,) = jets.variables([0.3], order=2)
    dual = Jet(1, 1, [x, Jet.constant(0.0, 1, 2)])
    const = Jet.constant(np.ones(3), 1, 1)
    for a, b in ((dual, const), (const, dual)):
        with pytest.raises(PreconditionError, match="jets of jets"):
            jet_einsum("...,...->...", a, b)
    one = Jet.constant(np.ones(3), 1, 0)
    assert jet_einsum("i,i->", one, one).c == [3.0]


# -- what an eps jet does not carry ------------------------------------------

def test_uncarried_monomials_raise():
    rng = np.random.default_rng(0)
    a = iso_jet(2, 3, rng).lift(4)
    # the eps variables do not count toward the order
    for alpha in [(1, 0, 0, 1), (3, 0, 1, 0), (0, 3, 0, 1)]:
        np.testing.assert_array_equal(a.coefficient(alpha), 0.0)
    # eps_k**2 and the mixed eps_1 eps_2 term are second variations
    for alpha in [(0, 0, 2, 0), (0, 0, 1, 1), (1, 0, 1, 1), (2, 2, 0, 0),
                  (1, 0, 0), (0,) * 5]:
        with pytest.raises(PreconditionError, match="carries no coefficient"):
            a.coefficient(alpha)
        with pytest.raises(PreconditionError):
            a.derivative(alpha)


def test_partial_along_an_eps_variable_raises():
    rng = np.random.default_rng(1)
    base, slope = iso_jet(2, 4, rng), iso_jet(2, 4, rng)
    vg = base.lift(4, slope, slope)
    for d in (2, 3, 4, -1):
        with pytest.raises(PreconditionError,
                           match="Jet.coefficient or deformation.variation"):
            vg.partial(d)
    # along a worldvolume variable the eps coefficients are differentiated
    # with the rest, and the eps variables stay
    d0 = vg.partial(0)
    assert (d0.order, d0.eps) == (3, 2)
    want = slope.partial(0)
    for alpha in jets._tables(2, 3)[0]:
        for eps in ((1, 0), (0, 1)):
            np.testing.assert_array_equal(d0.coefficient(alpha + eps),
                                          want.coefficient(alpha))


def test_domain_checks_read_the_eps_slopes():
    # an order-0 jet with eps variables carries slopes; at a zero value
    # they make sqrt and real powers singular
    zero, one = np.zeros(GRID), np.ones(GRID)
    u = Jet(2, 0, [zero, one], 1)
    for fn in (Jet.sqrt, lambda x: x * jets.sqrt(x)):
        with pytest.raises(DomainError):
            fn(u)
    assert_bits(Jet(1, 0, [zero]).sqrt(), Jet(1, 0, [zero]))
    # a constant's eps slope is absent, so its square root has none either
    root = Jet.constant(one, 2, 0, 1).sqrt()
    assert root.c[1] is None
    np.testing.assert_array_equal(root.value, one)


def test_align_rejects_other_eps_variables():
    rng = np.random.default_rng(2)
    a = iso_jet(2, 2, rng).lift(4)
    for b, want in ((iso_jet(4, 2, rng), 0),
                    (iso_jet(3, 2, rng).lift(4), 1)):
        with pytest.raises(PreconditionError,
                           match=rf"4 variables with 2 eps variables.*4 "
                                 rf"variables with {want} eps variables"):
            a * b
        with pytest.raises(PreconditionError, match="cannot combine"):
            jet_stack([a, b])


def test_jet_stack_truncates_eps_leaves_to_the_lowest_order():
    rng = np.random.default_rng(3)
    vg = iso_jet(2, 4, rng).lift(4, iso_jet(2, 4, rng), iso_jet(2, 4, rng))
    low = vg.partial(1)
    assert (low.order, low.eps) == (3, 2)
    for leaves in ([low, vg], [vg, low]):
        got = jet_stack(leaves)
        assert (got.order, got.eps) == (3, 2)
        assert_bits(got, jet_stack([e.truncated(3) for e in leaves]))


def test_tables_reject_bad_shapes():
    for nvars, order, eps in [(0, 1, 0), (1, -1, 0), (1, 1, 1), (2, 1, 2),
                              (2, 1, -1), (3, 0, 5)]:
        with pytest.raises(ParameterError):
            jets._tables(nvars, order, eps)


def test_variation_checks_the_eps_index():
    E = emb.static_string(1.0)
    geom = E.geometry(emb.make_grid(E, (4, 5)).mesh, 2)
    vg = dfm.varied_geometry(geom, geom.tangents[0])
    assert dfm.variation(vg, vg.X, 0).shape == np.asarray(geom.X.value).shape
    for k in (-1, 1, 5):
        with pytest.raises(ParameterError, match="variation index"):
            dfm.variation(vg, vg.X, k)
