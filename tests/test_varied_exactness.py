"""The varied geometry against a path with no eps variables, and its
boundary.

`deformation.varied_geometry` carries the eps variables to total degree 1,
outside the jet order.  Here the same map X + sum_k eps_k V_k is also
built with the eps variables as ordinary variables at the base geometry's
total order N.  That path has
no eps variables, so its product tables are the plain graded ones.  Every
eps coefficient a result reads must agree bit for bit on the two paths,
which pins the order in which `jets._tables` lists each slot's pairs.
"""
import numpy as np
import pytest

from branelab import deformation as dfm
from branelab import embeddings as emb
from branelab import jets
from branelab import models as mdl
from branelab import strings_gb as sgb
from branelab import symplectic as sym
from branelab.errors import BranelabError, ParameterError, PreconditionError
from branelab.jets import Jet

# a worldsheet whose tangents and metric move along every chart axis, so
# that the order of a sum over pairs shows in its last bits
E = emb.traveling_wave(0.7)

# two deformations with time components, so the curvature flux's frame
# legs vary
FIELDS = (
    sym.chart_field(lambda t, s: (
        0.2 * jets.sin(2 * s) * jets.cos(t) + 0.1 * jets.sin(s),
        0.1 * jets.cos(s) * jets.sin(t), 0.15 * jets.sin(s + t))),
    sym.chart_field(lambda t, s: (
        0.1 * jets.cos(s) * jets.sin(t),
        0.2 * jets.sin(2 * s) * jets.sin(t) * jets.cos(s),
        0.2 * jets.sin(2 * s) * jets.sin(t) * jets.sin(s) + 0.1)),
)


def _plain_lift(j, n, slopes=()):
    """j + sum_k eps_k V_k in ``n`` ordinary variables at j's order: each
    coefficient alpha of j at alpha, each of V_k at alpha + e_k."""
    pos = jets._tables(n, j.order)[1]
    out = [np.zeros_like(np.asarray(j.c[0], float))] * len(pos)
    for k, V in enumerate((j,) + tuple(slopes)):
        pad = tuple(int(m == k - 1) for m in range(n - j.nvars))
        for alpha, coef in zip(jets._tables(j.nvars, V.order)[0], V.c):
            if sum(alpha) + sum(pad) <= j.order:
                out[pos[alpha + pad]] = coef
    return Jet(n, j.order, out)


def _plain_varied(geom, *fields):
    """The geometry of X + sum_k eps_k V_k with the eps_k ordinary jet
    variables at ``geom``'s order."""
    n = geom.X.nvars + len(fields)
    return emb.Geometry(geom.background, _plain_lift(geom.X, n, fields),
                        [_plain_lift(p, n) for p in geom.params],
                        geom.embedding)


def _eps(n, *ks):
    return tuple(int(m in ks) for m in range(n))


def assert_same_bits(got, want):
    got, want = np.asarray(got, float), np.asarray(want, float)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _base(order):
    geom = E.geometry(emb.make_grid(E, (5, 7)).mesh, order)
    return geom, [f(geom) for f in FIELDS]


def test_curvature_flux_first_variations_equal_the_plain_path(monkeypatch):
    # record the slice geometry, the fields, the fluxes and the two first
    # variations of one gb_symplectic_form call
    seen = []
    original = sym._variations

    def recording(geom, fields, quantities):
        D = original(geom, fields, quantities)
        # D_{V1} of V2's flux, D_{V2} of V1's
        seen.append((geom, *(vf(geom) for vf in fields), quantities,
                     (D[1, 0], D[0, 1])))
        return D

    monkeypatch.setattr(sgb, "_variations", recording)
    slc = sym.CauchySlice("tau", 0.4, 9)
    form = sgb.gb_symplectic_form(E, slc, *FIELDS, 0.9)
    ((geom, V1, V2, fluxes, (d1, d2)),) = seen
    assert geom.order == 3
    # the same fluxes on the plain path: the connection response d_k rho
    # is the eps_k coefficient there too
    pg = _plain_varied(geom, V1, V2)
    n = pg.X.nvars
    q1, q2 = fluxes(pg, (_plain_lift(V1, n), _plain_lift(V2, n)))
    for got, q, m in ((d1, q2, 0), (d2, q1, 1)):
        want = q.coefficient((0, 0) + _eps(2, m))
        assert np.abs(want).max() > 1e-3
        assert_same_bits(got, want)
    # the mixed eps_1 eps_2 term cancels: with d_k rho read as a partial
    # on a plain path one order up, each flux carries that term, and the
    # antisymmetrized variations agree to round-off
    high = E.geometry(slc.grid(E)[0].mesh, 4)
    hg = _plain_varied(high, *(f(high) for f in FIELDS))
    rho, frame = sgb.rotation_connection(hg)
    mixed = [0.9 * hg.sqrt_abs_det(hg.order) * frame.contract(rho.partial(2 + j))
             for j in (0, 1)]
    want = (mixed[0].coefficient((0, 0) + _eps(2, 1))
            - mixed[1].coefficient((0, 0) + _eps(2, 0)))
    assert np.abs(rho.coefficient((0, 0, 1, 1))).max() > 1e-3
    np.testing.assert_allclose(d2 - d1, want, rtol=0.0, atol=1e-15)
    assert abs(form) > 1e-3


@pytest.mark.parametrize("model", [mdl.DNG(mu=1.3), mdl.QuadraticK(alpha=0.7)],
                         ids=["dng", "quadratic-k"])
def test_potential_variations_equal_the_plain_path(model):
    geom, (V1, V2) = _base(model.jet_order)
    vg = dfm.varied_geometry(geom, V1, V2)
    pg = _plain_varied(geom, V1, V2)
    n = vg.X.nvars
    for k, V in enumerate((V1, V2)):
        psi = sym.symplectic_potential(model, vg, V.lift(n))
        ppsi = sym.symplectic_potential(model, pg, _plain_lift(V, n))
        for m in (0, 1):
            want = ppsi.coefficient((0, 0) + _eps(2, m))
            assert np.abs(want).max() > 1e-3
            assert_same_bits(dfm.variation(vg, psi, m), want)


def test_darboux_pair_variations_equal_the_plain_path():
    geom, (V1, V2) = _base(2)

    def pair(g):
        return jets.jet_stack([g.X, sym.dng_momentum_density(g, 1.1)])

    ((d1, d2),) = sym._variations(geom, (V1, V2), lambda vg, _f: [pair(vg)])
    plain = pair(_plain_varied(geom, V1, V2))
    for got, m in ((d1, 0), (d2, 1)):
        assert_same_bits(got, plain.coefficient((0, 0) + _eps(2, m)))


# -- the boundary -------------------------------------------------------------

def test_varied_geometry_rejects_a_bad_field_or_geometry():
    geom, (V1, V2) = _base(2)
    with pytest.raises(ParameterError, match="at least one field"):
        dfm.varied_geometry(geom)
    flat = E.geometry(emb.make_grid(E, (3, 5)).mesh, 0)
    with pytest.raises(ParameterError, match="order >= 1; got 1 fields and "
                                             "order 0"):
        dfm.varied_geometry(flat, flat.X)
    high = E.geometry(emb.make_grid(E, (3, 5)).mesh, 4)
    for field in (V1, np.asarray(V1.value)):    # order 2 and no jet at all
        with pytest.raises(PreconditionError, match="order >= 3"):
            dfm.varied_geometry(high, field)
    assert all(issubclass(e, BranelabError)
               for e in (ParameterError, PreconditionError))


def test_a_first_variation_geometry_carries_no_mixed_term():
    geom, (V1, V2) = _base(3)
    vg = dfm.varied_geometry(geom, V1, V2)
    assert vg.order == 2
    with pytest.raises(PreconditionError, match="carries no coefficient"):
        vg.X.coefficient((0, 0, 1, 1))
    # a variation is read as an eps coefficient, never as a partial
    with pytest.raises(PreconditionError, match="deformation.variation"):
        vg.sqrt_abs_det(vg.order).partial(vg.dim)
    assert np.isfinite(dfm.variation(vg, vg.sqrt_abs_det(vg.order), 1)).all()


def test_gb_form_one_order_lower_aborts(monkeypatch):
    # the connection reads the tangents' derivative, which a varied
    # geometry of order 1 (a slice geometry of order 2) does not carry
    original = sym._slice_geometry
    monkeypatch.setattr(
        sgb, "_slice_geometry",
        lambda embedding, slc, order: original(embedding, slc, order - 1))
    with pytest.raises(PreconditionError, match="order-0"):
        sgb.gb_symplectic_form(E, sym.CauchySlice("tau", 0.4, 9), *FIELDS, 0.9)
