import numpy as np
import pytest

from branelab import deformation as dfm
from branelab import embeddings as emb
from branelab import jets
from branelab import models as mdl
from branelab import symplectic as sym
from branelab.cli import WAVE_PAIRS, tangential_string_field
from branelab.errors import (
    DegenerateGeometryError,
    DomainError,
    ParameterError,
    PreconditionError,
    UnsupportedConfigurationError,
)
from branelab.jets import jet_einsum


def torus_geometry(order, n=16):
    E = emb.torus_e3(2.0, 0.5)
    grid = emb.make_grid(E, n)
    return E.geometry(grid.mesh, order), grid


GENERIC_E3 = sym.chart_field(lambda u, v: (
    0.2 * jets.sin(v) + 0.1 * jets.cos(u),
    0.3 * jets.cos(u) - 0.1,
    0.15 + 0.2 * jets.sin(u) * jets.cos(v),
))

GENERIC_E4 = sym.chart_field(lambda u, v: (
    0.2 * jets.sin(u),
    0.1 * jets.cos(v) - 0.2,
    0.25 * jets.cos(u) * jets.sin(v),
    0.1 + 0.3 * jets.sin(v),
))


# -- potential kernels against closed forms ------------------------------------

def test_minimal_model_flux_is_tangential():
    """With a constant Lagrangian the only boundary term is L t^a."""
    E = emb.static_string(1.4)
    grid = emb.make_grid(E, (10, 16))
    geom = E.geometry(grid.mesh, 3)
    model = mdl.DNG(mu=1.3)
    V = GENERIC_E4(geom)
    field = sym.symplectic_potential(model, geom, V)
    t = geom.chart_components(V)
    dens = np.asarray(geom.sqrt_abs_det(0).value, float)
    expected = -1.3 * dens * np.asarray(t.value, float)
    np.testing.assert_allclose(field.value, expected, atol=1e-13)


def test_quadratic_potential_matches_closed_form():
    # for L = alpha K.K the kernel table collapses to
    #   Psi^a / sqrt(g) = alpha K.K t^a + 2 alpha (phi.grad^a K - K.grad^a phi)
    geom, _ = torus_geometry(4, n=12)
    alpha = 0.8
    model = mdl.QuadraticK(alpha=alpha)
    rng = np.random.default_rng(7)
    for _ in range(4):
        a, b, c = rng.uniform(-0.5, 0.5, size=3)

        def fn(u, v, a=a, b=b, c=c):
            return (a * jets.sin(u), b + c * jets.cos(v), a * b + 0.0 * u)

        V = sym.chart_field(fn)(geom)
        field = sym.symplectic_potential(model, geom, V)
        t, phi = geom.chart_components(V), dfm.normal_components(geom, V)
        ginv = geom.inverse_induced_metric
        K = geom.mean_curvature
        gradk_up = jet_einsum("ab...,bi...->ai...", ginv,
                              geom.covariant_grad(K, 0, 1))
        gphi_up = jet_einsum("ab...,bi...->ai...", ginv,
                             geom.covariant_grad(phi, 0, 1))
        ksq = jet_einsum("i...,i...->...", K, K)
        tang = jet_einsum("...,a...->a...", ksq, t)
        cross = jet_einsum("i...,ai...->a...", phi, gradk_up) \
            - jet_einsum("i...,ai...->a...", K, gphi_up)
        kernel = alpha * tang + (2.0 * alpha) * cross
        expected = np.asarray(
            jet_einsum("...,a...->a...", geom.sqrt_abs_det(0), kernel).value,
            float)
        np.testing.assert_allclose(field.value, expected, atol=5e-12)


def test_flat_sheet_normal_deformation_has_no_flux():
    # every kernel term carries at least one curvature factor
    E = emb.plane()
    grid = emb.make_grid(E, 8)
    geom = E.geometry(grid.mesh, 4)

    def normal(geom):
        phi = dfm.normal_field(
            geom, lambda u, v: jets.sin(u) * jets.cos(v) + 0.2 * u)
        return dfm.deformation_vector(geom, phi)

    field = sym.symplectic_potential(mdl.QuadraticK(alpha=0.8), geom, normal)
    np.testing.assert_allclose(field.value, 0.0, atol=1e-13)


def test_potential_linear_in_deformation():
    geom, _ = torus_geometry(7, n=10)
    model = mdl.SyntheticGradK(beta=0.6)
    w1 = GENERIC_E3(geom)
    w2 = sym.chart_field(
        lambda u, v: (0.1 * jets.cos(u + v), 0.3 * u, 0.2 * jets.sin(v)))(geom)
    lhs = sym.symplectic_potential(model, geom, 1.3 * w1 + 0.7 * w2).value
    p1 = sym.symplectic_potential(model, geom, w1).value
    p2 = sym.symplectic_potential(model, geom, w2).value
    np.testing.assert_allclose(lhs, 1.3 * p1 + 0.7 * p2, atol=1e-11)


# -- pointwise first-variation identity ---------------------------------------

IDENT_CASES = [
    (emb.torus_e3(2.0, 0.5), mdl.DNG(mu=1.3), GENERIC_E3, 16),
    (emb.torus_e3(2.0, 0.5), mdl.QuadraticK(alpha=0.8), GENERIC_E3, 16),
    (emb.torus_e3(2.0, 0.5), mdl.EinsteinHilbert(sigma1=1.1), GENERIC_E3, 16),
    (emb.torus_e3(2.0, 0.5), mdl.SyntheticGradK(beta=0.6), GENERIC_E3, 12),
    (emb.surface_s2xs2(), mdl.QuadraticK(alpha=0.8), GENERIC_E4, 12),
    (emb.surface_s2xs2(), mdl.SyntheticGradK(beta=0.6), GENERIC_E4, 10),
]


def coordinate_divergence(psi):
    """Plain coordinate divergence d_a Psi^a of a vector-density jet
    (exact jet partials)."""
    return sum(np.asarray(psi[a].partial(a).value, float)
               for a in range(psi.value.shape[0]))


def variation_identity_residual(model, geom, vfield):
    """Pointwise residual of delta(sqrt(g)L) = sqrt(g)E.phi + div Psi.

    The left side is a re-embedding finite difference; the right side uses
    the assembled bulk density and exact jet partials of Psi.  The max-abs
    residual over the grid checks every kernel entry at once.
    """
    V = vfield(geom)
    pot = sym.symplectic_potential(model, geom, V)
    phi = dfm.normal_components(geom, V)
    E = mdl.eom_density(model, geom)
    bulk = jet_einsum("...,i...->i...", geom.sqrt_abs_det(0), E)
    bulk = np.asarray(jet_einsum("i...,i...->...", bulk, phi).value, float)
    assembled = bulk + coordinate_divergence(pot)

    def dens(g2):
        return np.asarray((g2.sqrt_abs_det(0) * model.lagrangian(g2)).value,
                          float)

    numeric = np.asarray(dfm.finite_difference_delta(geom, V, dens).estimate,
                         float)
    return numeric - assembled, numeric


@pytest.mark.parametrize("E, model, vfield, n", IDENT_CASES,
                         ids=lambda c: getattr(c, "name", None))
def test_variation_identity_pointwise(E, model, vfield, n):
    """delta(density) must equal sqrt(g) E.phi + div(Psi) at every node."""
    grid = emb.make_grid(E, n)
    geom = E.geometry(grid.mesh, model.jet_order + 1)
    res, num = variation_identity_residual(model, geom, vfield)
    scale = np.max(np.abs(num))
    assert scale > 1e-3
    assert np.max(np.abs(res)) / scale < 1e-9


# -- the current and its slice integrals --------------------------------------

# the CLI's probe fields
(_, FZ1, FZ2), (_, FRAD1, FRAD2), (_, FZ3, _) = WAVE_PAIRS


def test_current_antisymmetry():
    E = emb.static_string(1.0)
    grid = emb.make_grid(E, (6, 12))
    geom = E.geometry(grid.mesh, 3)
    model = mdl.DNG(mu=1.0)
    j12 = sym.symplectic_current(model, geom, FZ1, FRAD1)
    j21 = sym.symplectic_current(model, geom, FRAD1, FZ1)
    np.testing.assert_allclose(j12, -j21, atol=1e-15)
    jself = sym.symplectic_current(model, geom, FZ1, FZ1)
    np.testing.assert_allclose(jself, 0.0, atol=1e-15)


def test_static_string_current_time_component():
    """Transverse waves reproduce the Klein-Gordon style current density."""
    E = emb.static_string(1.0)
    grid = emb.make_grid(E, (10, 24))
    geom = E.geometry(grid.mesh, 3)
    J = sym.symplectic_current(mdl.DNG(mu=1.0), geom, FZ1, FZ2)
    tmesh, smesh = grid.mesh
    # phi1 d_t phi2 - phi2 d_t phi1 with the unit radius collapses to sin^2
    np.testing.assert_allclose(J[0], np.sin(smesh) ** 2, atol=1e-12)


def test_form_constant_on_slices():
    E = emb.static_string(1.0)
    model = mdl.DNG(mu=1.0)
    vals = [sym.symplectic_form(model, E, sym.CauchySlice("tau", tv, 256),
                                FZ1, FZ2)
            for tv in (0.3, 1.1, 2.0)]
    for v in vals:
        assert abs(v - np.pi) < 1e-9
    assert max(vals) - min(vals) < 1e-12


def test_form_antisymmetric_and_homogeneous():
    E = emb.static_string(1.0)
    model = mdl.DNG(mu=1.0)
    slc = sym.CauchySlice("tau", 0.7, 96)
    w12 = sym.symplectic_form(model, E, slc, FZ1, FRAD2)
    w21 = sym.symplectic_form(model, E, slc, FRAD2, FZ1)
    assert abs(w12 + w21) < 1e-14
    assert sym.symplectic_form(model, E, slc, FZ1, FZ1) == 0.0
    half = sym.symplectic_form(
        model, E, slc, lambda g: 0.5 * FZ1(g), FRAD2)
    np.testing.assert_allclose(half, 0.5 * w12, rtol=1e-8)


def test_traveling_wave_form_conserved():
    # differences of nearby left-movers solve the linearized equations
    # exactly, so the slice integral cannot depend on the slice
    E = emb.traveling_wave(0.3)
    model = mdl.DNG(mu=1.0)
    g1 = sym.chart_field(
        lambda t, s: (0.0 * t, 0.0 * t, 0.2 * jets.cos(s - t)))
    g2 = sym.chart_field(
        lambda t, s: (0.0 * t, 0.0 * t, 0.2 * jets.sin(s - t)))
    vals = [sym.symplectic_form(model, E, sym.CauchySlice("tau", tv, 128),
                                g1, g2)
            for tv in (0.3, 1.1, 2.0)]
    assert abs(vals[0]) > 1e-3
    assert max(vals) - min(vals) < 1e-8


# -- canonical variables -------------------------------------------------------

TRANSVERSE_PAIRS = [
    ("z-waves", FZ1, FZ2),
    ("radial", FRAD1, FRAD2),
    ("z-then-radial", FZ1, FRAD2),
    ("radial-then-z", FRAD1, FZ2),
    ("second-harmonic", FZ3, FZ1),
]


@pytest.mark.parametrize("label, f1, f2", TRANSVERSE_PAIRS,
                         ids=[p[0] for p in TRANSVERSE_PAIRS])
def test_form_equals_canonical_pairing(label, f1, f2):
    E = emb.static_string(1.0)
    slc = sym.CauchySlice("tau", 0.9, 160)
    w = sym.symplectic_form(mdl.DNG(mu=1.0), E, slc, f1, f2)
    p = sym.dng_canonical_pairing(E, slc, f1, f2, sigma0=1.0)
    assert abs(w - p) < 1e-9


def test_tangential_deformations_drop_out():
    E = emb.static_string(1.0)
    slc = sym.CauchySlice("tau", 0.9, 96)
    w = sym.symplectic_form(mdl.DNG(mu=1.0), E, slc,
                            tangential_string_field, FZ1)
    p = sym.dng_canonical_pairing(E, slc, tangential_string_field, FZ1,
                                  sigma0=1.0)
    assert abs(w) < 1e-10
    assert abs(p) < 1e-10


def test_canonical_pair_on_static_string():
    r, sig = 1.4, 2.0
    n = 32
    pair = sym.dng_canonical_pair(emb.static_string(r),
                                  sym.CauchySlice("tau", 0.7, n), sig)
    s = 2 * np.pi * np.arange(n) / n
    np.testing.assert_allclose(pair.position[0], 0.7, atol=1e-14)
    np.testing.assert_allclose(pair.position[1], r * np.cos(s), atol=1e-13)
    np.testing.assert_allclose(pair.position[2], r * np.sin(s), atol=1e-13)
    # momentum density sigma0 sqrt(-g) tau_alpha = sigma0 r (-1, 0, 0, 0)
    np.testing.assert_allclose(pair.momentum[0], -sig * r, atol=1e-13)
    np.testing.assert_allclose(pair.momentum[1:], 0.0, atol=1e-13)


def test_mass_shell_residuals():
    slc = sym.CauchySlice("tau", 0.9, 64)
    res = sym.mass_shell_check(emb.static_string(1.0), slc, sigma0=2.0)
    np.testing.assert_allclose(res, 0.0, atol=1e-14)
    res = sym.mass_shell_check(emb.traveling_wave(0.3), slc, sigma0=1.7)
    assert np.max(np.abs(res)) < 1e-10
    res = sym.mass_shell_check(emb.static_string(1.0), slc, sigma0=0.0)
    np.testing.assert_allclose(res, 0.0, atol=0.0)


@pytest.mark.parametrize("sigma0", [np.nan, np.inf, -np.inf])
def test_mass_shell_rejects_a_non_finite_coupling(sigma0):
    with pytest.raises(ParameterError, match="finite"):
        sym.mass_shell_check(emb.static_string(1.0),
                             sym.CauchySlice("tau", 0.9, 16), sigma0)


def test_mass_shell_rejects_spacelike_slicing():
    sideways = emb.Embedding(
        name="sideways-sheet",
        background=emb.minkowski(3),
        axes=(emb.ParamAxis("tau", 0.0, 2.5),
              emb.ParamAxis("sigma", 0.0, 2 * np.pi, periodic=True)),
        map_fn=lambda u, v: (v, u, 0.0 * u),
    )
    with pytest.raises(DegenerateGeometryError):
        sym.mass_shell_check(sideways, sym.CauchySlice("tau", 0.9, 16), 1.0)


def test_slice_validation():
    E = emb.static_string(1.0)
    with pytest.raises(DomainError):
        sym.symplectic_form(mdl.DNG(mu=1.0), E,
                            sym.CauchySlice("tau", 3.0, 16), FZ1, FZ2)
    with pytest.raises(ParameterError):
        sym.CauchySlice("lambda", 0.5, 16).axis_index(E)
    # the value is checked before it is compared with the axis ends
    for value in ("0.5", None, True, np.nan, np.inf):
        with pytest.raises(ParameterError, match="slice tau"):
            sym.CauchySlice("tau", value, 8).grid(E)
    with pytest.raises(UnsupportedConfigurationError):
        sym.mass_shell_check(emb.s3_curve(), sym.CauchySlice("xi", 0.5, 16),
                             1.0)


# -- exact variations against the re-embedding oracle ---------------------------

def fd_pair(geom, vf1, vf2, extract):
    """(D_{V1} extract(., V2), D_{V2} extract(., V1)) by finite differences,
    both fields resolved on ``geom`` and held fixed."""
    V1, V2 = vf1(geom), vf2(geom)
    d1 = dfm.finite_difference_delta(geom, V1, lambda g2: extract(g2, V2))
    d2 = dfm.finite_difference_delta(geom, V2, lambda g2: extract(g2, V1))
    return V1, V2, d1.estimate, d2.estimate


CURRENT_CASES = [
    (emb.static_string(1.0), mdl.DNG(mu=1.3), FZ1, FZ2, (6, 12)),
    (emb.torus_e3(2.0, 0.5), mdl.QuadraticK(alpha=0.8), GENERIC_E3,
     sym.chart_field(lambda u, v: (0.1 * jets.cos(u + v), 0.3 * jets.sin(u),
                                   0.2 * jets.sin(v))), (8, 8)),
    (emb.surface_s2xs2(), mdl.SyntheticGradK(beta=0.6), GENERIC_E4,
     sym.chart_field(lambda u, v: (0.1 * u * v, 0.2 * jets.cos(v),
                                   0.1 * jets.sin(u), 0.05 + 0.0 * u)), (5, 5)),
]


@pytest.mark.parametrize("E, model, vf1, vf2, shape", CURRENT_CASES,
                         ids=[c[1].name for c in CURRENT_CASES])
def test_current_matches_finite_difference(E, model, vf1, vf2, shape):
    geom = E.geometry(emb.make_grid(E, shape).mesh, model.jet_order)
    exact = sym.symplectic_current(model, geom, vf1, vf2)
    _V1, _V2, d1, d2 = fd_pair(
        geom, vf1, vf2,
        lambda g2, V: sym.symplectic_potential(model, g2, V).value)
    scale = np.max(np.abs(d2 - d1))
    assert scale > 1e-3
    np.testing.assert_allclose(exact, d2 - d1, atol=1e-9 * scale)


@pytest.mark.parametrize("label, f1, f2", TRANSVERSE_PAIRS[:3],
                         ids=[p[0] for p in TRANSVERSE_PAIRS[:3]])
def test_pairing_matches_finite_difference(label, f1, f2):
    E = emb.static_string(1.0)
    slc = sym.CauchySlice("tau", 0.9, 96)
    grid, _k = slc.grid(E)
    geom = E.geometry(grid.mesh, 3)
    V1, V2, d1, d2 = fd_pair(
        geom, f1, f2, lambda g2, _V: np.asarray(
            sym.dng_momentum_density(g2, 1.0).value, float))
    dens = np.einsum("m...,m...->...", np.asarray(V1.value, float), d2) \
        - np.einsum("m...,m...->...", np.asarray(V2.value, float), d1)
    oracle = float(emb.integrate(dens, grid))
    assert abs(sym.dng_canonical_pairing(E, slc, f1, f2, 1.0) - oracle) < 1e-9


def _one_order_up(monkeypatch, *modules):
    """Build every slice geometry of ``modules`` one jet order higher."""
    original = sym._slice_geometry
    for mod in modules:
        monkeypatch.setattr(
            mod, "_slice_geometry",
            lambda embedding, slc, order: original(embedding, slc, order + 1))


def test_slice_orders_are_the_lowest_that_hold_a_variation(monkeypatch):
    E = emb.static_string(1.0)
    slc = sym.CauchySlice("tau", 0.9, 64)
    calls = [
        lambda: sym.symplectic_form(mdl.DNG(mu=1.0), E, slc, FZ1, FRAD2),
        lambda: sym.symplectic_form(mdl.QuadraticK(alpha=0.8), E, slc,
                                    FRAD1, FRAD2),
        lambda: sym.symplectic_form(mdl.DNG(mu=1.0), E, slc,
                                    tangential_string_field, FZ1),
        lambda: sym.dng_canonical_pairing(E, slc, FRAD1, FZ2, 1.0),
        lambda: sym.dng_canonical_pairing(E, slc, tangential_string_field,
                                          FZ1, 1.0),
    ]
    low = [call() for call in calls]
    _one_order_up(monkeypatch, sym)
    high = [call() for call in calls]
    np.testing.assert_allclose(low, high, rtol=0.0, atol=1e-14)


def test_slice_form_builds_two_geometries(monkeypatch):
    builds = []
    original = emb.Geometry.__init__

    def counting(self, *args, **kwargs):
        builds.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(emb.Geometry, "__init__", counting)
    E = emb.static_string(1.0)
    slc = sym.CauchySlice("tau", 0.9, 32)
    sym.symplectic_form(mdl.DNG(mu=1.0), E, slc, FZ1, FZ2)
    assert len(builds) == 2
    builds.clear()
    sym.dng_canonical_pairing(E, slc, FZ1, FZ2, 1.0)
    assert len(builds) == 2


@pytest.mark.parametrize("model, reads_phi", [
    (mdl.DNG(mu=1.0), False),
    (mdl.QuadraticK(alpha=0.7), True),
    (mdl.SyntheticGradK(beta=0.6), True),
], ids=["dng", "quadratic-k", "synthetic-gradk"])
def test_potential_builds_normals_only_for_hk_and_hg_models(monkeypatch, model,
                                                            reads_phi):
    # DNG's kernel table is T00 alone, which reads the tangential part t^a
    builds = []
    original = emb.Geometry.__init__

    def counting(self, *args, **kwargs):
        builds.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(emb.Geometry, "__init__", counting)
    sym.symplectic_form(model, emb.static_string(1.0),
                        sym.CauchySlice("tau", 0.9, 32), FZ1, FZ2)
    base, varied = builds
    assert "normal_frame" not in base._held
    assert ("normal_frame" in varied._held) == reads_phi


def test_potential_needs_one_order_below_the_field_equations():
    geom, _ = torus_geometry(4, n=6)
    with pytest.raises(PreconditionError, match="synthetic-gradk potential "
                                                "needs jet order >= 5"):
        sym.symplectic_potential(mdl.SyntheticGradK(beta=0.6), geom,
                                 GENERIC_E3)
    assert sym.symplectic_potential(mdl.QuadraticK(alpha=0.7), geom,
                                    GENERIC_E3).order == 1


def _hg_potential_at_full_order(model, geom, V):
    """The HG model's kernel table with each piece at the order its inputs
    allow and grad phi built twice (once inside `delta_extrinsic`)."""
    gV = jet_einsum("mn...,n...->m...", geom.ambient_metric, V)
    psi = model.lagrangian(geom) * geom._chart_of_lowered(gV)          # T00
    HG = model.h_gradk(geom)
    phi = jet_einsum("im...,m...->i...", geom.normal_frame(gV.order), gV)
    gphi = geom.covariant_grad(phi, 0, 1)
    lam = dfm.delta_extrinsic(geom, phi)
    div1, wsum, _m, anti = mdl.hg_contractions(geom, HG, lam.order)
    psi = psi + jet_einsum("abci...,bci...->a...", HG, lam)            # T03-T05
    psi = psi + jet_einsum("aci...,ci...->a...", div1, gphi)           # T06
    psi = psi - jet_einsum("ai...,i...->a...", geom.divergence(div1, 2, 1),
                           phi)                                        # T07
    w8 = jet_einsum("abe...,bej...->aj...", wsum, geom.extrinsic_curvature)
    psi = psi - 2.0 * jet_einsum("aj...,j...->a...", w8, phi)          # T08-T10
    psi = psi - jet_einsum("aj...,j...->a...", anti, phi)              # T11+T12
    return geom.sqrt_abs_det(psi.order) * psi


def test_hg_potential_builds_each_piece_at_the_order_it_keeps(monkeypatch):
    # on an order-6 geometry the potential is of order 1: the lowering of V
    # and phi are built at 3, grad phi once at 2 and T00's chart components
    # and T06 at 1, with every coefficient as in the full-order assembly
    E = emb.surface_s2xs2()
    mesh = emb.make_grid(E, (4, 5)).mesh
    model = mdl.SyntheticGradK(beta=0.6)
    geom = E.geometry(mesh, 6)
    u, v = geom.params
    V = jets.jet_stack([0.2 * jets.sin(u + m * v) + 0.1 * m
                        for m in range(geom.ambient_dim)], template=geom.X)
    # the geometry's own tensors first, so the record holds the potential's
    geom.normal_frame(geom.order - 1)
    geom.twist(geom.order - 2)
    geom.jacobi(geom.order - 3)
    model.lagrangian(geom)
    made = {}

    def recording(spec, a, b):
        out = jets.jet_einsum(spec, a, b)
        made.setdefault(spec, []).append(out.order)
        return out

    for module in (sym, dfm, emb, mdl):
        monkeypatch.setattr(module, "jet_einsum", recording)
    got = sym.symplectic_potential(model, geom, V)
    monkeypatch.undo()
    assert got.order == 1
    assert made["mn...,n...->m..."] == [3]          # the lowering of V
    assert made["im...,m...->i..."] == [3]          # phi
    assert made["yaz...,z...->ya..."] == [2]        # grad phi, once
    assert made["zya...,zb...->yab..."] == [1]      # grad grad phi
    assert made["bm...,m...->b..."] == [1]          # T00's chart components
    assert made["aci...,ci...->a..."] == [1]        # T06
    want = _hg_potential_at_full_order(model, E.geometry(mesh, 6), V)
    assert (got.order, len(got.c)) == (want.order, len(want.c))
    for x, y in zip(got.c, want.c):
        assert x.tobytes() == y.tobytes()
