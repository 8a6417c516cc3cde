"""The two levers that skip known zeros in the jet kernel, checked to be
exact on random jets.

* eps caps: a jet whose last variables are eps variables carries its other
  (worldvolume) variables to its order, each eps variable to degree 1 and
  the eps variables together to a joint cap.  An isotropic jet of order N
  carries every monomial of a capped jet of order N - joint, and
  projecting it onto them must commute, bit for bit, with every kernel
  operation.
* constant operands: `jet_einsum` contracts a constant tensor jet as its
  value array, and must equal the full Cauchy sum.

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

GRID = (3,)
MATMUL = "ab...,bc...->ac..."

# (worldvolume variables, order, joint cap, seed); as many eps variables as
# worldvolume ones (1+1 and 2+2 variables), the joint cap at most their
# number
CASES = st.tuples(st.sampled_from([1, 2]), st.integers(0, 4),
                  st.integers(0, 2), st.integers(0, 2**32 - 1))
EXACT = settings(max_examples=40, derandomize=True, deadline=None)


def carried(nvars, order, caps, joint):
    """The monomials of (nvars, order, caps, joint), by their definition."""
    head = nvars - len(caps)
    return {a for a in product(range(order + joint + 1), repeat=nvars)
            if sum(a[:head]) <= order and sum(a[head:]) <= joint
            and all(x <= c for x, c in zip(a[head:], caps))}


def iso_jet(nvars, order, rng, shape=GRID, value=0.0):
    """An isotropic jet with random coefficients; ``value`` shifts its
    value, so it can be kept positive or a matrix kept invertible."""
    n = len(jets._tables(nvars, order)[0])
    c = [rng.normal(size=shape) for _ in range(n)]
    c[0] = c[0] + value
    return Jet(nvars, order, c)


def project(j, caps, joint):
    """The coefficients of the isotropic jet ``j`` of order N on the
    monomials of (N - ``joint``, ``caps``, ``joint``), read one
    multi-index at a time."""
    order = j.order - joint
    eps = (caps, joint) if caps else ()
    idx = jets._tables(j.nvars, order, eps)[0]
    assert set(idx) == carried(j.nvars, order, caps, joint)
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
    first."""
    pos = {alpha: n for n, alpha in enumerate(
        jets._tables(a.nvars, a.order, a.eps)[0])}
    out = []
    for gamma in pos:
        s = None
        for alpha in sorted(pos, key=lambda alpha: (sum(alpha), alpha)):
            j = pos.get(tuple(g - x for g, x in zip(gamma, alpha)))
            if j is not None:
                t = contract(a.c[pos[alpha]], b.c[j])
                s = t if s is None else s + t
        out.append(s)
    return Jet(a.nvars, a.order, out, a.eps)


def _setup(case):
    """(worldvolume variables, all variables, the isotropic jets' order,
    caps, joint cap, rng): the isotropic order is the capped one plus the
    joint cap."""
    nw, order, joint, seed = case
    joint = min(joint, nw)
    return (nw, 2 * nw, order + joint, (1,) * nw, joint,
            np.random.default_rng(seed))


@EXACT
@given(case=CASES)
def test_projection_commutes_with_products(case):
    nw, n, order, caps, joint, rng = _setup(case)
    P = lambda j: project(j, caps, joint)  # noqa: E731
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
    nw, n, order, caps, joint, rng = _setup(case)
    eye = np.eye(3).reshape((3, 3, 1))
    g = iso_jet(n, order, rng, shape=(3, 3) + GRID, value=4.0 * eye)
    assert_bits(jet_matinv(project(g, caps, joint)),
                project(jet_matinv(g), caps, joint))


COMPOSE = [Jet.exp, Jet.log, Jet.sqrt, Jet._reciprocal, Jet.sin, Jet.cos,
           Jet.sinh, Jet.cosh, lambda u: u ** 1.7, lambda u: u ** -2,
           lambda u: u ** -0.5, lambda u: u ** 3]


@EXACT
@given(case=CASES, fn=st.sampled_from(COMPOSE))
def test_projection_commutes_with_compose(case, fn):
    nw, n, order, caps, joint, rng = _setup(case)
    u = iso_jet(n, order, rng)
    u.c[0] = 1.0 + np.abs(u.c[0])            # inside every function's domain
    assert_bits(fn(project(u, caps, joint)), project(fn(u), caps, joint))


@EXACT
@given(case=CASES)
def test_projection_commutes_with_partial_truncation_and_stack(case):
    nw, n, order, caps, joint, rng = _setup(case)
    P = lambda j: project(j, caps, joint)  # noqa: E731
    a, b = iso_jet(n, order, rng), iso_jet(n, max(order - 1, joint), rng)
    for d in range(nw):                      # worldvolume variables
        if order > joint:
            assert_bits(P(a).partial(d), P(a.partial(d)))
        else:
            with pytest.raises(PreconditionError, match="order-0"):
                P(a).partial(d)
    for k in range(nw):                      # eps variables: one cap lower
        low = caps[:k] + (0,) + caps[k + 1:]
        if joint:
            assert_bits(P(a).partial(nw + k),
                        project(a.partial(nw + k), low, joint - 1))
        else:
            with pytest.raises(PreconditionError, match="no term"):
                P(a).partial(nw + k)
    for m in range(order - joint + 1):
        assert_bits(P(a).truncated(m), P(a.truncated(m + joint)))
    assert_bits(jet_stack([[P(a), 1.0], [P(b), 2.0]]),
                P(jet_stack([[a, 1.0], [b, 2.0]])))


@EXACT
@given(case=CASES, capped=st.booleans(), left=st.booleans())
def test_constant_operand_equals_the_full_cauchy_sum(case, capped, left):
    nw, n, order, caps, joint, rng = _setup(case)
    caps, joint = (caps, joint) if capped else ((), 0)
    B = project(iso_jet(n, max(order, 1), rng, shape=(2, 2) + GRID), caps,
                joint)
    A = Jet.constant(rng.normal(size=(2, 2) + GRID), n, B.order, B.eps)
    assert jets._is_constant(A) and not jets._is_constant(B)
    a, b = (A, B) if left else (B, A)
    contract = lambda x, y: np.einsum(MATMUL, x, y)  # noqa: E731
    assert_bits(jet_einsum(MATMUL, a, b), cauchy(a, b, contract))
    # a NaN in a later coefficient is not a zero: the full sum runs and
    # carries it into every slot above it
    A.c[-1] = A.c[-1].copy()
    A.c[-1][0, 0, 0] = np.nan
    assert not jets._is_constant(A)
    got = jet_einsum(MATMUL, a, b)
    assert np.isnan(got.c[-1]).any()
    for x, y in zip(got.c, cauchy(a, b, contract).c):
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
    (x,) = jets.variables([0.3], order=2)
    dual = Jet(1, 1, [x, Jet.constant(0.0, 1, 2)])
    assert not jets._is_constant(dual)
    assert not jets._is_constant(Jet.constant(np.ones(3), 1, 0))


# -- what the caps do not carry ---------------------------------------------------

def test_uncarried_monomials_raise():
    rng = np.random.default_rng(0)
    a = iso_jet(2, 3, rng).lift(4)
    # the eps variables do not count toward the order
    for alpha in [(1, 0, 0, 1), (3, 0, 1, 0), (0, 3, 0, 1)]:
        np.testing.assert_array_equal(a.coefficient(alpha), 0.0)
    for alpha in [(0, 0, 2, 0), (0, 0, 1, 2), (2, 2, 0, 0), (1, 0, 0), (0,) * 5]:
        with pytest.raises(PreconditionError, match="carries no coefficient"):
            a.coefficient(alpha)
        with pytest.raises(PreconditionError):
            a.derivative(alpha)
    # the mixed term is above the joint cap of a first-variation jet
    with pytest.raises(PreconditionError, match="joint eps degree 1 carries "
                                                "no coefficient"):
        a.coefficient((0, 0, 1, 1))
    np.testing.assert_array_equal(
        iso_jet(2, 3, rng).lift(4, joint=2).coefficient((0, 0, 1, 1)), 0.0)


def test_eps_partial_leaves_its_own_eps_unreadable():
    rng = np.random.default_rng(1)
    base = iso_jet(2, 4, rng)
    slope = iso_jet(2, 4, rng)
    for joint in (1, 2):
        vg = base.lift(4, slope, slope, joint=joint)
        d0 = vg.partial(2)
        assert (d0.order, d0.caps, d0.joint) == (4, (0, 1), joint - 1)
        with pytest.raises(PreconditionError, match="carries no coefficient"):
            d0.coefficient((0, 0, 1, 0))
        with pytest.raises(PreconditionError, match="no term"):
            d0.partial(2)
    # at joint 1, no eps_1 term either: that would be the mixed one
    d0 = base.lift(4, slope, slope).partial(2)
    with pytest.raises(PreconditionError,
                       match="joint eps degree 0 carries no coefficient"):
        d0.coefficient((0, 0, 0, 1))
    with pytest.raises(PreconditionError, match="no term"):
        d0.partial(3)
    # at joint 2, combining it with a cap-1 jet projects that one onto (0, 1)
    d0 = vg.partial(2)
    prod = d0 * vg.truncated(3)
    assert (prod.caps, prod.joint) == ((0, 1), 1)
    np.testing.assert_array_equal(
        prod.coefficient((0, 0, 0, 1)),
        d0.value * vg.coefficient((0, 0, 0, 1))
        + d0.coefficient((0, 0, 0, 1)) * vg.value)


def test_domain_checks_read_the_eps_slopes():
    # an order-0 jet with eps variables carries slopes; at a zero value
    # they make sqrt and real powers singular
    zero, one = np.zeros(GRID), np.ones(GRID)
    u = Jet(2, 0, [zero, one], ((1,), 1))
    for fn in (Jet.sqrt, lambda x: x ** 0.5):
        with pytest.raises(DomainError):
            fn(u)
    assert_bits(Jet(2, 0, [zero], ((1,), 0)).sqrt(),
                Jet(2, 0, [zero], ((1,), 0)))
    assert jets._is_constant(Jet.constant(one, 2, 0, ((1,), 1)))


def test_align_rejects_other_eps_variables():
    rng = np.random.default_rng(2)
    a = iso_jet(2, 2, rng).lift(4)
    b = iso_jet(4, 2, rng)
    with pytest.raises(PreconditionError,
                       match=r"4 variables with eps caps \(1, 1\).*4 variables "
                             r"with eps caps \(\)"):
        a * b
    with pytest.raises(PreconditionError):
        jet_stack([a, b])


def test_jet_stack_projects_leaves_onto_the_lowest_caps():
    rng = np.random.default_rng(3)
    vg = iso_jet(2, 4, rng).lift(4, iso_jet(2, 4, rng), iso_jet(2, 4, rng),
                                 joint=2)
    d0, full = vg.partial(2), vg.truncated(3)
    assert ((d0.caps, d0.joint), (full.caps, full.joint)) == (((0, 1), 1),
                                                              ((1, 1), 2))

    def to_low(e):
        idx = jets._tables(4, e.order, ((0, 1), 1))[0]
        return Jet(4, e.order, [e.coefficient(a) for a in idx], ((0, 1), 1))

    for leaves in ([d0, full], [full, d0]):
        assert_bits(jet_stack(leaves), jet_stack([to_low(e) for e in leaves]))


def test_tables_reject_bad_shapes():
    for nvars, order, caps, joint in [
            (0, 1, (), 0), (1, -1, (), 0), (1, 1, (1, 1), 0), (2, 1, (-1,), 0),
            (2, 1, (1,), 2), (2, 1, (1,), -1), (1, 1, (), 1)]:
        with pytest.raises(ParameterError):
            jets._tables(nvars, order, (caps, joint))


def test_variation_checks_the_eps_index():
    E = emb.static_string(1.0)
    geom = E.geometry(emb.make_grid(E, (4, 5)).mesh, 2)
    vg = dfm.varied_geometry(geom, geom.tangents[0])
    assert dfm.variation(vg, vg.X, 0).shape == np.asarray(geom.X.value).shape
    for k in (-1, 1, 5):
        with pytest.raises(ParameterError, match="variation index"):
            dfm.variation(vg, vg.X, k)
