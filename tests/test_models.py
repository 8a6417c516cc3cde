import numpy as np
import pytest

from branelab import deformation as dfm
from branelab import embeddings as emb
from branelab import jets
from branelab import models as mdl
from branelab import symplectic as sym
from branelab.backgrounds import BackgroundMetric
from branelab.errors import (
    DegenerateGeometryError,
    ParameterError,
    PreconditionError,
    UnsupportedConfigurationError,
)
from branelab.jets import jet_einsum

ALL_MODELS = [
    mdl.DNG(mu=1.3),
    mdl.QuadraticK(alpha=0.8),
    mdl.EinsteinHilbert(sigma1=1.1),
    mdl.SyntheticGradK(beta=0.6),
]


def small_geometry(embedding, order, pts=None):
    if pts is None:
        pts = (np.array([0.4, 1.0]), np.array([0.3, 2.1]))
    return embedding.geometry(pts, order)


# -- constitutive tensors ---------------------------------------------------

def h_values(model, g):
    """Values of (H_ab, HK^{ab}_i, HG^{abc}_i); None where the model's
    partial vanishes identically."""
    return [None if h is None else np.asarray(h.value, float)
            for h in (model.h_gamma(g), model.h_k(g), model.h_gradk(g))]


def test_h_tensor_symmetries():
    g = small_geometry(emb.torus_e3(), 4)
    # HG pairs with grad_a K_bc, so only the bc-symmetric part matters
    swapped = ((0, 1), (0, 1), (1, 2))
    for model in ALL_MODELS:
        for h, axes in zip(h_values(model, g), swapped):
            if h is not None:
                np.testing.assert_allclose(h, np.swapaxes(h, *axes),
                                           atol=1e-12)


def declared_density(model, ginv, k, gradk):
    """The model's declared density on raw value arrays: its coupling times
    the signed sum of its terms, each evaluated through `INVARIANTS` on
    order-0 jets.  DNG declares no term; its density is the constant -mu."""
    if not model.density:
        return np.full(np.shape(ginv)[2:], -model.mu)
    reads = {"extrinsic_curvature": k, "grad_extrinsic": gradk}
    total = 0.0
    for name, sign in model.density:
        invariant, tensor, _depth = emb.INVARIANTS[name]
        total = total + sign * invariant(
            jets.Jet.constant(ginv, 1, 0),
            jets.Jet.constant(reads[tensor], 1, 0)).value
    return model.coupling * total


def finite_diff_h(model, ginv, k, gradk):
    """Entrywise central differences of the declared density."""
    base = (np.array(ginv), np.array(k), np.array(gradk))
    outs = []
    for which, arr in enumerate(base):
        grad = np.zeros_like(arr)
        it = np.ndindex(arr.shape[: arr.ndim - (base[0].ndim - 2)])
        for idx in it:
            h = 1e-6 * max(1.0, abs(arr[idx]).max() if hasattr(arr[idx], "max")
                           else abs(arr[idx]))
            for sgn in (+1.0, -1.0):
                pert = [np.array(a) for a in base]
                pert[which][idx] += sgn * h
                val = declared_density(model, *pert)
                grad[idx] += sgn * val / (2.0 * h)
        outs.append(grad)
    return outs


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_h_tensors_match_density_finite_difference(model):
    # perturb each argument entry of the density and compare to the
    # closed-form partials, on a curved codim-2 geometry
    g = small_geometry(emb.graph_surface_e4(), 4,
                       pts=(np.array([0.3]), np.array([-0.4])))
    ginv = np.asarray(g.inverse_induced_metric(g.order).value, float)
    k = np.asarray(g.extrinsic_curvature.value, float)
    gradk = np.asarray(g.grad_extrinsic.value, float)
    fds = finite_diff_h(model, ginv, k, gradk)
    for h, fd in zip(h_values(model, g), fds):
        np.testing.assert_allclose(np.zeros_like(fd) if h is None else h, fd,
                                   atol=1e-8, rtol=1e-6)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
@pytest.mark.parametrize("E, pts", [
    (emb.graph_surface_e4(), (np.array([0.3]), np.array([-0.4]))),
    (emb.surface_s2xs2(), (np.array([0.2, -0.3]), np.array([0.1, 0.4]))),
], ids=["graph-surface", "s2xs2"])
def test_lagrangian_equals_the_declared_density(model, E, pts):
    # SyntheticGradK's L reads grad_mean on the geometry and the trace form
    # _gradk_mean on raw values: the two must agree
    assert set(mdl.PARTIALS) <= set(emb.INVARIANTS)
    g = small_geometry(E, 4, pts)
    ref = declared_density(model, *(
        np.asarray(t.value, float) for t in (
            g.inverse_induced_metric(g.order), g.extrinsic_curvature,
            g.grad_extrinsic)))
    lag = model.lagrangian(g)
    lag = np.asarray(getattr(lag, "value", lag), float)
    np.testing.assert_allclose(np.broadcast_to(lag, ref.shape), ref,
                               rtol=1e-12, atol=0.0)


# -- field equations --------------------------------------------------------

def test_dng_residual_is_mean_curvature():
    for E, pts in [
        (emb.sphere_polar(2.0), None),
        (emb.torus_e3(), None),
        (emb.s3_curve(), (np.array([0.3, 1.1]),)),
    ]:
        g = small_geometry(E, 2, pts)
        res = mdl.eom_residual(mdl.DNG(mu=3.0), g)
        expect = 3.0 * np.asarray(g.mean_curvature.value, float)
        np.testing.assert_allclose(res, expect, atol=1e-10)


QUARTIC_CASES = [
    ("cylinder", emb.cylinder(1.3), (np.array([0.3, 2.1]), np.array([0.2, -0.5]))),
    ("sphere", emb.sphere_polar(1.0), (np.array([0.7, 1.2]), np.array([0.3, 2.0]))),
    ("torus", emb.torus_e3(), None),
    ("graph4", emb.graph_surface_e4(), (np.array([0.3, -0.6]), np.array([0.5, 0.2]))),
    ("string", emb.static_string(1.2), (np.array([0.4, 1.0]), np.array([0.3, 2.1]))),
    ("s3curve", emb.s3_curve(), (np.array([0.3, 1.1]),)),
    ("s2xs2", emb.surface_s2xs2(), (np.array([0.2, -0.3]), np.array([0.1, 0.4]))),
]


def quadratic_eom_direct(geom):
    """Closed-form normalized field equations of the rigidity model:

        lap K^i - R(n^i, e_a, e^a, n^j) K_j
        + (gamma^{ac} gamma^{bd} - gamma^{ab} gamma^{cd} / 2)
          K_ab^j K_cd^i K_j

    an independent cross-check of the generic assembly (order >= 4).
    """
    gi = geom.inverse_induced_metric(geom.order)
    mean = geom.mean_curvature
    g2 = geom.covariant_grad(geom.grad_mean, 1, 1)       # (b, a, i)
    lap = jet_einsum("ba...,bai...->i...", gi, g2)
    m = jet_einsum("ab...,iabj...->ij...", gi, geom.rblock("nttn", 1))
    rterm = jet_einsum("ij...,j...->i...", m, mean)
    s = jet_einsum("abj...,abi...->ij...", geom.k_raised(geom.order),
                   geom.extrinsic_curvature)
    kkk = jet_einsum("ij...,j...->i...", s, mean)
    ksq = jet_einsum("j...,j...->...", mean, mean)
    out = lap - rterm + kkk - 0.5 * (mean * ksq)
    return np.asarray(out.value, float)


@pytest.mark.parametrize("name,E,pts", QUARTIC_CASES,
                         ids=[c[0] for c in QUARTIC_CASES])
def test_quadratic_k_assembly_matches_closed_form(name, E, pts):
    g = small_geometry(E, 4, pts)
    res = mdl.eom_residual(mdl.QuadraticK(alpha=0.7), g)
    direct = quadratic_eom_direct(g)
    np.testing.assert_allclose(res, direct, atol=1e-8)


def test_known_solutions():
    # exact extremals: traveling wave for DNG, round sphere and cylinder
    # closed values for the rigidity model
    g = emb.traveling_wave(0.3).geometry(
        (np.array([0.3, 1.4, 2.2]), np.array([0.5, 2.0, 4.0])), 2)
    res = mdl.eom_residual(mdl.DNG(mu=1.0), g)
    assert np.max(np.abs(res)) < 1e-8

    g = emb.sphere_polar(1.7).geometry((np.array([0.6, 1.9]),
                                        np.array([0.4, 3.0])), 4)
    res = mdl.eom_residual(mdl.QuadraticK(alpha=1.0), g)
    assert np.max(np.abs(res)) < 1e-8

    r = 1.4
    g = emb.cylinder(r).geometry((np.array([0.7]), np.array([0.1])), 4)
    res = mdl.eom_residual(mdl.QuadraticK(alpha=0.9), g)
    np.testing.assert_allclose(np.max(np.abs(res)), 1.0 / (2.0 * r**3),
                               atol=1e-6)


def test_einstein_hilbert_topological_in_2d():
    for E in (emb.torus_e3(), emb.bumpy_torus_e4()):
        g = small_geometry(E, 4)
        res = mdl.eom_residual(mdl.EinsteinHilbert(sigma1=1.3), g)
        assert np.max(np.abs(res)) < 1e-10, E.name


def test_eom_values_normalize_raw_by_coupling():
    g = small_geometry(emb.torus_e3(), 4)
    model = mdl.QuadraticK(alpha=0.7)
    res = mdl.eom_residual(model, g)
    raw = np.asarray(mdl.eom_density(model, g).value, float)
    np.testing.assert_allclose(raw, res * model.eom_scale, atol=1e-14)
    assert model.eom_scale == -2.0 * 0.7


def test_eom_norm_invariant_under_normal_rotation(rotated_normals_copy):
    # E_i rotates as a normal-frame vector, so E.E is frame independent
    g = small_geometry(emb.graph_surface_e4(), 6,
                       pts=(np.array([0.3, -0.2]), np.array([0.5, 0.1])))
    rot = rotated_normals_copy(g, 0.7)
    for model in (mdl.QuadraticK(alpha=0.8), mdl.SyntheticGradK(beta=0.6)):
        a = mdl.eom_residual(model, g)
        b = mdl.eom_residual(model, rot)
        na = np.einsum("i...,i...->...", a, a)
        nb = np.einsum("i...,i...->...", b, b)
        np.testing.assert_allclose(na, nb, rtol=1e-9, atol=1e-12)
        assert np.max(np.abs(a - b)) > 1e-3  # components genuinely mix


# -- actions ----------------------------------------------------------------

def test_action_values_on_closed_surfaces():
    sphere = emb.sphere_polar(1.0)
    grid = emb.make_grid(sphere, 128)
    s = mdl.action(mdl.DNG(mu=1.0), sphere, grid)
    np.testing.assert_allclose(s, -4.0 * np.pi, rtol=1e-12)
    s = mdl.action(mdl.EinsteinHilbert(sigma1=1.0), sphere, grid)
    np.testing.assert_allclose(s, 8.0 * np.pi, rtol=1e-12)

    torus = emb.torus_e3(2.0, 0.5)
    s = mdl.action(mdl.DNG(mu=1.0), torus, emb.make_grid(torus, 64))
    np.testing.assert_allclose(s, -4.0 * np.pi**2 * 2.0 * 0.5, rtol=1e-6)


def test_grid_of_another_chart_is_rejected():
    sphere, string = emb.sphere_polar(1.0), emb.static_string(1.0)
    grid = emb.make_grid(string, 4)
    with pytest.raises(ParameterError, match="tau"):
        mdl.action(mdl.DNG(), sphere, grid)
    with pytest.raises(ParameterError, match="tau"):
        mdl.eom_residual(mdl.DNG(), sphere, grid)
    with pytest.raises(ParameterError, match="tau"):
        mdl.action_variation_check(mdl.DNG(), sphere, grid,
                                   lambda geom: geom.X)


def test_eom_residual_needs_a_grid_and_a_geometry_or_embedding():
    with pytest.raises(ParameterError, match="a grid is required"):
        mdl.eom_residual(mdl.DNG(), emb.sphere_polar(1.0))
    grid = emb.make_grid(emb.sphere_polar(1.0), 4)
    for target in ("sphere", grid):
        with pytest.raises(ParameterError,
                           match="must be an Embedding or a Geometry"):
            mdl.eom_residual(mdl.DNG(), target, grid)


def test_action_rejects_degenerate_metric():
    pinched = emb.Embedding(
        name="pinched",
        background=emb.euclidean(3),
        axes=(emb.ParamAxis("u", -1.0, 1.0), emb.ParamAxis("v", -1.0, 1.0)),
        map_fn=lambda u, v: (u * u * u, v, 0.0 * u),
    )
    grid = emb.make_grid(pinched, (5, 4))  # odd count samples u = 0
    with pytest.raises(DegenerateGeometryError) as err:
        mdl.action(mdl.DNG(mu=1.0), pinched, grid)
    assert "grid indices" in str(err.value)


# -- first-variation oracle --------------------------------------------------

def torus_vfield(geom):
    phi = dfm.normal_field(
        geom, lambda t, p: 0.3 + 0.2 * jets.sin(t) + 0.1 * jets.cos(p))
    return dfm.deformation_vector(geom, phi)


def windowed_vfield(geom):
    u, v = geom.params
    win = dfm.poly_window(u) * dfm.poly_window(v)
    phi = dfm.normal_field(
        geom,
        lambda u, v: 0.4 + 0.3 * jets.sin(u) + 0.2 * v,
        lambda u, v: 0.1 - 0.2 * u + 0.3 * jets.cos(v),
    )
    return dfm.deformation_vector(geom, win * phi)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_action_variation_on_torus(model):
    E = emb.torus_e3()
    rep = mdl.action_variation_check(model, E, emb.make_grid(E, 24),
                                     torus_vfield)
    assert rep.gap < rep.tolerance(), (rep.numeric, rep.assembled)


@pytest.mark.parametrize(
    "model", [mdl.QuadraticK(alpha=0.8), mdl.SyntheticGradK(beta=0.6)],
    ids=lambda m: m.name)
def test_action_variation_on_product_background(model):
    # codim 2 on a non-maximally-symmetric ambient space: every curvature
    # coupling in the assembly is nonzero here
    E = emb.surface_s2xs2()
    rep = mdl.action_variation_check(model, E, emb.make_grid(E, 32),
                                     windowed_vfield)
    assert rep.gap < rep.tolerance(), (rep.numeric, rep.assembled)


def test_tangential_deformation_leaves_action_fixed():
    # pure reparameterization: numeric derivative vanishes and the
    # assembled side sees no normal component at all
    E = emb.torus_e3()

    def tangential(geom):
        t, p = geom.params
        comp = jets.jet_stack(
            [0.2 + 0.1 * jets.sin(p), -0.3 + 0.1 * jets.cos(t)],
            template=geom.X)
        return jets.jet_einsum("am...,a...->m...", geom.tangents, comp)

    rep = mdl.action_variation_check(mdl.QuadraticK(alpha=0.8), E,
                                     emb.make_grid(E, 24), tangential)
    assert abs(rep.assembled) < 1e-12
    assert abs(rep.numeric) < 1e-6


def test_action_variation_projects_each_frame_once_at_its_readers_order(
        monkeypatch):
    # (geometry order, frame order) of each projection of the normal frame
    built = []
    original = emb.Geometry._build_normal_frame

    def counted(self, order):
        built.append((self.order, order))
        return original(self, order)

    monkeypatch.setattr(emb.Geometry, "_build_normal_frame", counted)
    model, E = mdl.SyntheticGradK(beta=0.6), emb.surface_s2xs2()
    mdl.action_variation_check(model, E, emb.make_grid(E, 12), windowed_vfield)
    # K and the twist on the one order-6 geometry (K's order, N - 2); the
    # field on its order-4 prefix reads that frame's prefix; then K and the
    # twist of each of the four re-embedded geometries (two central
    # differences)
    assert built == [(6, 4)] + [(3, 1)] * 4


@pytest.mark.parametrize("model, built", [
    # DNG's K is at order 1 on its order-3 geometry, below the field's 2
    (mdl.DNG(mu=1.3), [(3, 2)]),
    (mdl.QuadraticK(alpha=0.8), [(4, 2)]),
    (mdl.SyntheticGradK(beta=0.6), [(6, 4)]),
], ids=["dng", "quadratic-k", "synthetic-gradk"])
def test_action_variation_projects_the_frame_once_on_its_geometry(
        monkeypatch, model, built):
    # (geometry order, frame order) of each projection on the one geometry
    # of the check; the re-embedded geometries build their own
    orders, original = [], emb.Geometry._build_normal_frame
    top = max(model.jet_order, model.action_order + 1)

    def counted(self, order):
        if self.order == top:
            orders.append((self.order, order))
        return original(self, order)

    monkeypatch.setattr(emb.Geometry, "_build_normal_frame", counted)
    E = emb.torus_e3()
    mdl.action_variation_check(model, E, emb.make_grid(E, 8), torus_vfield)
    assert orders == built


@pytest.mark.parametrize("model, E, vfield, n", [
    (mdl.QuadraticK(alpha=0.8), emb.torus_e3(), torus_vfield, 12),
    (mdl.SyntheticGradK(beta=0.6), emb.surface_s2xs2(), windowed_vfield, 24),
    # DNG's geometry order is set by action_order + 1 = 3, not jet_order 2
    (mdl.DNG(mu=1.3), emb.torus_e3(), torus_vfield, 12),
], ids=["torus-quadratic-k", "s2xs2-synthetic-gradk", "torus-dng"])
def test_action_variation_builds_its_field_once(model, E, vfield, n):
    grid = emb.make_grid(E, n)
    orders = []

    def counted(geom):
        orders.append(geom.order)
        return vfield(geom)

    rep = mdl.action_variation_check(model, E, grid, counted)
    assert orders == [model.action_order + 1]
    # the whole report equals, bit for bit, the one from two geometries:
    # one of order jet_order for E, and one of order action_order + 1 for
    # the field and the finite difference
    geom = E.geometry(grid.mesh, model.jet_order)
    geom_fd = E.geometry(grid.mesh, model.action_order + 1)
    V = vfield(geom_fd)
    phi = dfm.normal_components(geom, V.truncated(0))
    dens = geom.sqrt_abs_det(0) * jet_einsum(
        "i...,i...->...", mdl.eom_density(model, geom), phi)
    integrand = np.asarray(dens.value, float)
    np.testing.assert_array_equal(rep.integrand, integrand)
    assert rep.assembled == float(emb.integrate(integrand, grid))

    def action_of(g):
        dens = g.sqrt_abs_det(0) * model.lagrangian(g)
        return np.asarray(emb.integrate(np.asarray(dens.value, float), grid))

    res = dfm.finite_difference_delta(geom_fd, V, action_of)
    assert (rep.numeric, rep.eps) == (float(res.estimate), tuple(res.eps))
    assert rep.gap == abs(rep.numeric - rep.assembled)


def test_variation_requires_interior_support(monkeypatch):
    E = emb.ellipsoid()

    def leaky(geom):
        phi = dfm.normal_field(geom, lambda t, p: 1.0 + 0.0 * t)
        return dfm.deformation_vector(geom, phi)

    # fail fast: the leaky field triggers no re-embedding
    calls = _counting(monkeypatch, dfm, "deformed_geometry")
    with pytest.raises(PreconditionError):
        mdl.action_variation_check(mdl.DNG(mu=1.0), E,
                                   emb.make_grid(E, 12), leaky)
    assert calls == []


# -- guards -------------------------------------------------------------------

@pytest.mark.parametrize("model, bad", [
    (model, bad) for model in ALL_MODELS for bad in ("x", None, 0.0)
] + [(mdl.DNG(), -1.0)], ids=lambda v: getattr(v, "name", repr(v)))
def test_couplings_are_checked_at_construction(model, bad):
    # one check on the base class: DNG's tension is positive, every other
    # coupling is nonzero, and each is a finite number
    with pytest.raises(ParameterError, match="coupling"):
        type(model)(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("make", [
    lambda x: mdl.DNG(mu=x), lambda x: mdl.QuadraticK(alpha=x),
    lambda x: mdl.EinsteinHilbert(sigma1=x),
    lambda x: mdl.SyntheticGradK(beta=x),
], ids=["dng", "quadratic-k", "einstein-hilbert", "synthetic-gradk"])
def test_non_finite_couplings_are_rejected(make, bad):
    with pytest.raises(ParameterError):
        make(bad)


@pytest.mark.parametrize("model, orders", zip(ALL_MODELS, [
    (2, 2), (4, 2), (4, 2), (6, 3)]), ids=[m.name for m in ALL_MODELS])
def test_model_orders_follow_from_the_density(model, orders):
    # d = 0 (no term), 2 (K), 2 (K) and 3 (grad K): jet_order max(2, 2d)
    # and action_order max(2, d), which a model cannot be given
    assert (model.jet_order, model.action_order) == orders
    with pytest.raises(AttributeError):
        model.jet_order = 8


def test_order_guard():
    g = small_geometry(emb.torus_e3(), 2)
    with pytest.raises(PreconditionError):
        mdl.eom_residual(mdl.QuadraticK(alpha=1.0), g)


def test_einstein_hilbert_rejects_curved_background():
    g = small_geometry(emb.surface_s2xs2(), 4,
                       pts=(np.array([0.2]), np.array([0.1])))
    with pytest.raises(UnsupportedConfigurationError):
        mdl.eom_residual(mdl.EinsteinHilbert(sigma1=1.0), g)


def _counting(monkeypatch, owner, name, keep=lambda *args: True):
    calls = []
    original = getattr(owner, name)

    def wrapped(*args, **kwargs):
        if keep(*args):
            calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapped)
    return calls


S2XS2_PTS = (np.array([0.2, -0.3]), np.array([0.1, 0.4]))


def test_dng_field_equations_skip_ambient_curvature(monkeypatch):
    E = emb.surface_s2xs2()
    calls = _counting(monkeypatch, BackgroundMetric, "riemann_tensor")
    mdl.eom_density(mdl.DNG(mu=1.0), small_geometry(E, 2, S2XS2_PTS))
    assert calls == []
    # the curvature couplings still see the ambient curvature, built once
    # per curved factor
    mdl.eom_density(mdl.QuadraticK(alpha=1.0), small_geometry(E, 4, S2XS2_PTS))
    assert len(calls) == 2


def test_gradk_field_equations_differentiate_mean_curvature_once(monkeypatch):
    def on_mean(geom, fld, *rest):
        return fld is geom.__dict__.get("mean_curvature")

    calls = _counting(monkeypatch, emb.Geometry, "covariant_grad", on_mean)
    mdl.eom_density(mdl.SyntheticGradK(beta=0.6),
                    small_geometry(emb.surface_s2xs2(), 6, S2XS2_PTS))
    assert len(calls) == 1


def test_gradk_field_equations_raise_mean_gradient_once(monkeypatch):
    geom = small_geometry(emb.surface_s2xs2(), 6, S2XS2_PTS)

    def raises_grad_mean(spec, a, b):
        # a prefix of the held inverse shares its value array
        gi = geom._held.get("inverse_induced_metric")
        return (gi is not None and getattr(a, "c", [None])[0] is gi.c[0]
                and b is geom.__dict__.get("grad_mean"))

    counts = [_counting(monkeypatch, owner, "jet_einsum", raises_grad_mean)
              for owner in (emb, mdl, sym)]
    model = mdl.SyntheticGradK(beta=0.6)
    mdl.eom_density(model, geom)
    assert sum(map(len, counts)) == 1
    # the boundary kernel reuses the cached grad^a K^i
    sym.symplectic_potential(model, geom, lambda g: g.normals[0])
    assert sum(map(len, counts)) == 1


def test_hg_tables_contract_hg_with_mixed_curvature_once(monkeypatch):
    geom = small_geometry(emb.surface_s2xs2(), 6, S2XS2_PTS)
    made = []
    h_gradk = mdl.SyntheticGradK.h_gradk

    def recording_h_gradk(self, g):
        made.append(h_gradk(self, g))
        return made[-1]

    monkeypatch.setattr(mdl.SyntheticGradK, "h_gradk", recording_h_gradk)

    orders = []

    def hg_with_k_mixed(spec, a, b):
        # HG itself or a truncation of it, which shares its coefficients
        held = geom._held.get("k_mixed")
        if held and all(x is y for x, y in zip(b.c, held.c)) and any(
                all(x is y for x, y in zip(a.c, hg.c)) for hg in made):
            orders.append(a.order)
            return True
        return False

    counts = [_counting(monkeypatch, owner, "jet_einsum", hg_with_k_mixed)
              for owner in (emb, mdl, sym)]
    model = mdl.SyntheticGradK(beta=0.6)
    mdl.eom_density(model, geom)
    # one W, at one above E's order (0 on an order-6 geometry): one
    # divergence follows it
    assert sum(map(len, counts)) == 1 and orders == [1]
    sym.symplectic_potential(model, geom, lambda g: g.normals[0])
    # the boundary kernel's W at the order of its delta K term (T03-T05)
    assert sum(map(len, counts)) == 2 and orders == [1, 1]
