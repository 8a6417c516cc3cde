import numpy as np
import pytest

from branelab import deformation as dfm
from branelab import embeddings as emb
from branelab import jets
from branelab import models as mdl
from branelab import strings_gb as sgb
from branelab import symplectic as sym
from branelab.cli import (
    EMBEDDINGS,
    EULER_NUMBERS,
    RADIAL_WAVE,
    SCENARIOS,
    WAVE_PAIRS,
    gauge_angle,
)
from branelab.errors import (
    DegenerateGeometryError,
    ParameterError,
    PreconditionError,
    UnsupportedConfigurationError,
)


def string_geometry(n=(8, 20), order=4, radius=1.0):
    E = emb.static_string(radius)
    grid = emb.make_grid(E, n)
    return E.geometry(grid.mesh, order), grid


def frame_dots(geom, frame):
    g = np.asarray(geom.ambient_metric(geom.order).value, float)
    i0 = np.asarray(frame.iota0.value, float)
    i1 = np.asarray(frame.iota1.value, float)
    d00 = np.einsum("mn...,m...,n...->...", g, i0, i0)
    d11 = np.einsum("mn...,m...,n...->...", g, i1, i1)
    d01 = np.einsum("mn...,m...,n...->...", g, i0, i1)
    return d00, d11, d01


def bivector(frame):
    """eps^{mu nu} = iota0^mu iota1^nu - iota1^mu iota0^nu, grid values."""
    i0, i1 = (np.asarray(leg.value, float) for leg in (frame.iota0, frame.iota1))
    return np.einsum("m...,n...->mn...", i0, i1) \
        - np.einsum("m...,n...->mn...", i1, i0)


# RADIAL_WAVE, the z-wave FZ1 and gauge_angle are the CLI's probe fields
(_, FZ1, _) = WAVE_PAIRS[0]

TIMEMODE = sym.chart_field(lambda t, s: (
    0.2 * jets.sin(2 * s) * jets.cos(t), 0.0 * t, 0.0 * t, 0.0 * t))

MATCHED_RADIAL = sym.chart_field(lambda t, s: (
    0.0 * t,
    0.2 * jets.sin(2 * s) * jets.sin(t) * jets.cos(s),
    0.2 * jets.sin(2 * s) * jets.sin(t) * jets.sin(s),
    0.0 * t,
))


# -- tangent frames ------------------------------------------------------------

@pytest.mark.parametrize("builder, theta", [
    (emb.static_string, None),
    (emb.static_string, 0.7),
    (emb.traveling_wave, None),
    (emb.traveling_wave, gauge_angle),
])
def test_frame_orthonormal(builder, theta):
    E = builder()
    geom = E.geometry(emb.make_grid(E, (8, 20)).mesh, 3)
    fr = sgb.tangent_frame(geom, theta)
    d00, d11, d01 = frame_dots(geom, fr)
    np.testing.assert_allclose(d00, -1.0, atol=1e-10)
    np.testing.assert_allclose(d11, 1.0, atol=1e-10)
    np.testing.assert_allclose(d01, 0.0, atol=1e-10)
    eps = bivector(fr)
    np.testing.assert_allclose(eps, -np.swapaxes(eps, 0, 1), atol=1e-15)


def test_static_frame_components():
    geom, grid = string_geometry()
    fr = sgb.tangent_frame(geom)
    _t, s = grid.mesh
    i0 = np.asarray(fr.iota0.value, float)
    i1 = np.asarray(fr.iota1.value, float)
    np.testing.assert_allclose(i0[0], 1.0, atol=1e-14)
    np.testing.assert_allclose(i0[1:], 0.0, atol=1e-14)
    np.testing.assert_allclose(i1[1], -np.sin(s), atol=1e-14)
    np.testing.assert_allclose(i1[2], np.cos(s), atol=1e-14)


def test_boost_mixes_legs_but_fixes_epsilon():
    geom, _ = string_geometry()
    fr = sgb.tangent_frame(geom)
    frb = sgb.tangent_frame(geom, 0.7)
    i0 = np.asarray(fr.iota0.value, float)
    i0b = np.asarray(frb.iota0.value, float)
    assert np.max(np.abs(i0b - i0)) > 0.1
    np.testing.assert_allclose(bivector(frb), bivector(fr), atol=1e-14)


def test_riemannian_surrogate_rotation():
    E = emb.sphere_polar(1.0)
    geom = E.geometry(emb.make_grid(E, 16).mesh, 3)
    fr = sgb.tangent_frame(geom, 0.5)
    d00, d11, d01 = frame_dots(geom, fr)
    np.testing.assert_allclose(d00, 1.0, atol=1e-12)
    np.testing.assert_allclose(d11, 1.0, atol=1e-12)
    np.testing.assert_allclose(d01, 0.0, atol=1e-12)
    np.testing.assert_allclose(bivector(fr),
                               bivector(sgb.tangent_frame(geom)), atol=1e-14)


@pytest.mark.parametrize("builder", [emb.static_string, emb.sphere_polar])
def test_array_gauge_angle_matches_scalar(builder):
    # a boost on the string, a rotation on the sphere
    E = builder()
    geom = E.geometry(emb.make_grid(E, (8, 12)).mesh, 3)
    arr = np.full(geom.grid_shape, 0.6)
    fr, fr_arr = sgb.tangent_frame(geom, 0.6), sgb.tangent_frame(geom, arr)
    for leg, leg_arr in ((fr.iota0, fr_arr.iota0), (fr.iota1, fr_arr.iota1)):
        np.testing.assert_allclose(np.asarray(leg_arr.value, float),
                                   np.asarray(leg.value, float),
                                   rtol=1e-15, atol=1e-15)
    np.testing.assert_allclose(sgb.rotation_connection(geom, arr)[0].value,
                               sgb.rotation_connection(geom, 0.6)[0].value,
                               rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("theta", [np.inf, "x", lambda t, s: s + np.nan],
                         ids=["inf", "str", "callable-nan"])
def test_gauge_angle_must_be_finite_numbers(theta):
    geom, _ = string_geometry()
    with pytest.raises(ParameterError, match="gauge angle"):
        sgb.tangent_frame(geom, theta)


def test_frame_rejects_spacelike_seed():
    sideways = emb.Embedding(
        name="sideways-sheet",
        background=emb.minkowski(3),
        axes=(emb.ParamAxis("tau", 0.0, 2.5),
              emb.ParamAxis("sigma", 0.0, 2 * np.pi, periodic=True)),
        map_fn=lambda u, v: (v, u, 0.0 * u),
    )
    geom = sideways.geometry(emb.make_grid(sideways, (6, 8)).mesh, 3)
    with pytest.raises(DegenerateGeometryError):
        sgb.tangent_frame(geom)


def test_frame_needs_two_axes():
    E = emb.s3_curve()
    geom = E.geometry(emb.make_grid(E, 12).mesh, 3)
    with pytest.raises(UnsupportedConfigurationError):
        sgb.tangent_frame(geom)


def test_frame_functions_take_a_geometry():
    E = emb.static_string(1.0)
    calls = [
        lambda: sgb.tangent_frame(E),
        lambda: sgb.rotation_connection(E),
        lambda: sgb.rotation_connection_delta(E, RADIAL_WAVE),
        lambda: sgb.gb_potential(E, None, np.zeros((2, 8, 20)), 0.9),
        lambda: sgb.dnggb_potential(E, RADIAL_WAVE, sigma0=1.2, sigma1=0.9),
    ]
    for call in calls:
        with pytest.raises(ParameterError, match="Geometry"):
            call()


def test_canonical_pairs_build_one_frame(monkeypatch):
    built = []
    original = sgb.tangent_frame

    def counting(geom, theta=None):
        built.append(geom)
        return original(geom, theta)

    monkeypatch.setattr(sgb, "tangent_frame", counting)
    E = emb.static_string(1.0)
    slc = sym.CauchySlice("tau", 0.9, 16)
    sgb.dnggb_canonical(E, slc, sigma0=1.2, sigma1=0.9)
    assert len(built) == 1


# -- rotation connection -------------------------------------------------------

def test_connection_vanishes_on_static_string():
    geom, _ = string_geometry()
    rho, _frame = sgb.rotation_connection(geom)
    np.testing.assert_allclose(rho.value, 0.0, atol=1e-15)


def test_gauge_angle_shifts_connection_by_gradient():
    geom, grid = string_geometry()
    tm, sm = grid.mesh
    rho0, _frame = sgb.rotation_connection(geom)
    rho1, _frame = sgb.rotation_connection(
        geom, lambda t, s: 0.3 * jets.sin(s) + 0.1 * jets.cos(t))
    shift = rho1.value - rho0.value
    np.testing.assert_allclose(shift[0], 0.1 * np.sin(tm), atol=1e-13)
    np.testing.assert_allclose(shift[1], -0.3 * np.cos(sm), atol=1e-13)


def test_connection_curl_is_curvature_density():
    # the sign anchor: d rho equals sqrt(g) R / 2 pointwise
    E = emb.sphere_polar(1.0)
    grid = emb.make_grid(E, 48)
    geom = E.geometry(grid.mesh, 3)
    rho, _frame = sgb.rotation_connection(geom)
    # antisymmetrized plain derivative d_0 rho_1 - d_1 rho_0
    curl = np.asarray((rho[1].partial(0) - rho[0].partial(1)).value, float)
    half_density = np.asarray(
        (geom.sqrt_abs_det(0) * geom.intrinsic_scalar_curvature).value,
        float) / 2.0
    np.testing.assert_allclose(curl, half_density, atol=1e-12)
    assert abs(emb.integrate(curl, grid) - 4 * np.pi) < 5e-3


def test_connection_response_sectors():
    geom, _ = string_geometry()
    dr_rad = sgb.rotation_connection_delta(geom, RADIAL_WAVE)
    assert np.max(np.abs(dr_rad)) > 1e-2
    # zero-curvature normal direction and pure reparameterizations leave
    # the induced geometry unchanged at first order
    dr_z = sgb.rotation_connection_delta(geom, FZ1)
    np.testing.assert_allclose(dr_z, 0.0, atol=1e-12)
    dr_t = sgb.rotation_connection_delta(geom, TIMEMODE)
    np.testing.assert_allclose(dr_t, 0.0, atol=1e-12)


def test_connection_response_gauge_invariant():
    geom, _ = string_geometry()
    dr = sgb.rotation_connection_delta(geom, RADIAL_WAVE)
    dr_g = sgb.rotation_connection_delta(geom, RADIAL_WAVE, theta=gauge_angle)
    np.testing.assert_allclose(dr, dr_g, atol=1e-10)


# -- curvature flux ------------------------------------------------------------

def test_gb_potential_zero_response():
    geom, _ = string_geometry()
    drho = np.zeros((2,) + geom.grid_shape)
    np.testing.assert_allclose(
        sgb.gb_potential(geom, None, drho, 0.9), 0.0, atol=0.0)


def test_gb_potential_nonzero_and_gauge_invariant():
    geom, _ = string_geometry()
    drho = sgb.rotation_connection_delta(geom, RADIAL_WAVE)
    psi = sgb.gb_potential(geom, None, drho, sigma1=0.9)
    assert np.max(np.abs(psi)) > 1e-2
    drho_g = sgb.rotation_connection_delta(geom, RADIAL_WAVE, theta=gauge_angle)
    psi_g = sgb.gb_potential(geom, gauge_angle, drho_g, sigma1=0.9)
    np.testing.assert_allclose(psi, psi_g, atol=1e-10)


def test_gb_form_needs_time_sector():
    # chart components of the flux use the bare permutation symbol, so
    # commuting second variations cancel; only frame-leg variations with
    # an ambient time component survive
    E = emb.static_string(1.0)
    slc = sym.CauchySlice("tau", 0.9, 48)
    w_spatial = sgb.gb_symplectic_form(E, slc, RADIAL_WAVE, MATCHED_RADIAL, 0.9)
    assert abs(w_spatial) < 1e-10
    w = sgb.gb_symplectic_form(E, slc, TIMEMODE, MATCHED_RADIAL, 0.9)
    assert abs(w) > 1e-3
    w_g = sgb.gb_symplectic_form(E, slc, TIMEMODE, MATCHED_RADIAL, 0.9,
                                 theta=gauge_angle)
    assert abs(w - w_g) < 1e-10


# -- combined system -----------------------------------------------------------

def test_combined_eom_is_mean_curvature():
    E = emb.traveling_wave(0.3)
    res = sgb.dnggb_eom_residual(E, emb.make_grid(E, 48))
    assert np.max(np.abs(res)) < 1e-8
    S = emb.sphere_polar(0.5)
    res = sgb.dnggb_eom_residual(S, emb.make_grid(S, 24))
    norms = np.sqrt(np.einsum("m...,m...->...", res, res))
    np.testing.assert_allclose(norms, 4.0, atol=1e-10)
    P = emb.plane()
    res = sgb.dnggb_eom_residual(P, emb.make_grid(P, 8))
    np.testing.assert_allclose(res, 0.0, atol=1e-14)


@pytest.mark.parametrize("vfield", [FZ1, RADIAL_WAVE, TIMEMODE],
                         ids=["z-mode", "radial", "time"])
def test_combined_potential_decomposes(vfield):
    geom, _ = string_geometry()
    V = vfield(geom)
    total = sgb.dnggb_potential(geom, V, sigma0=1.2, sigma1=0.9)
    sheet = sym.symplectic_potential(mdl.DNG(mu=1.2), geom, V)
    push = np.einsum("am...,a...->m...",
                     np.asarray(geom.tangents.value, float), sheet.value)
    drho = sgb.rotation_connection_delta(geom, V)
    gb = sgb.gb_potential(geom, None, drho, 0.9)
    np.testing.assert_allclose(total, push + gb, atol=1e-12)


def test_combined_pair_reduces_to_minimal_pair():
    E = emb.static_string(1.0)
    slc = sym.CauchySlice("tau", 0.9, 48)
    red = sgb.dnggb_canonical(E, slc, sigma0=1.2, sigma1=0.0)
    ref = sym.dng_canonical_pair(E, slc, 1.2)
    np.testing.assert_allclose(red.position, ref.position, atol=1e-12)
    np.testing.assert_allclose(red.momentum, ref.momentum, atol=1e-12)


def test_combined_pair_gauge_response():
    E = emb.static_string(1.0)
    slc = sym.CauchySlice("tau", 0.9, 48)
    base = sgb.dnggb_canonical(E, slc, sigma0=1.2, sigma1=0.9)
    np.testing.assert_allclose(base.position,
                               sym.dng_canonical_pair(E, slc, 1.2).position,
                               atol=1e-14)
    shifted = sgb.dnggb_canonical(E, slc, sigma0=1.2, sigma1=0.9,
                                  theta=lambda t, s: 0.3 * jets.sin(s))
    s = 2 * np.pi * np.arange(48) / 48
    dq = shifted.position - base.position
    # rho = -d theta, and eps contracts it onto the timelike leg
    np.testing.assert_allclose(dq[0], (0.9 / 1.2) * 0.3 * np.cos(s),
                               atol=1e-12)
    np.testing.assert_allclose(dq[1:], 0.0, atol=1e-12)
    np.testing.assert_allclose(shifted.momentum, base.momentum, atol=1e-14)


def test_combined_pair_needs_tension():
    E = emb.static_string(1.0)
    slc = sym.CauchySlice("tau", 0.9, 16)
    with pytest.raises(ParameterError):
        sgb.dnggb_canonical(E, slc, sigma0=0.0, sigma1=0.9)
    with pytest.raises(ParameterError):
        sgb.dnggb_symplectic_form(E, slc, RADIAL_WAVE, MATCHED_RADIAL,
                                  sigma0=0.0, sigma1=0.9)


(_, _, FZ2), (_, FRAD1, FRAD2), (_, FZ3, _) = WAVE_PAIRS


@pytest.mark.parametrize("f1, f2", [
    (FZ1, FZ2), (FZ1, FZ3), (FZ3, FZ2), (FRAD1, FRAD2), (FRAD1, FZ1)],
    ids=["z1-z2", "z1-z3", "z3-z2", "rad1-rad2", "rad1-z1"])
def test_combined_form_at_zero_curvature_is_the_minimal_pairing(f1, f2):
    # both are the one Darboux integral; a lower jet order is a
    # bit-identical prefix, so sigma1 = 0 gives the pairing exactly
    E = emb.static_string(1.0)
    slc = sym.CauchySlice("tau", 0.9, 48)
    assert sgb.dnggb_symplectic_form(E, slc, f1, f2, sigma0=1.2, sigma1=0.0) \
        == sym.dng_canonical_pairing(E, slc, f1, f2, sigma0=1.2)


def test_combined_form_reduction_and_split():
    E = emb.static_string(1.0)
    slc = sym.CauchySlice("tau", 0.9, 48)
    w_red = sgb.dnggb_symplectic_form(E, slc, RADIAL_WAVE, MATCHED_RADIAL,
                                      sigma0=1.2, sigma1=0.0)
    w_dng = sym.symplectic_form(mdl.DNG(mu=1.2), E, slc,
                                RADIAL_WAVE, MATCHED_RADIAL)
    assert abs(w_red - w_dng) < 1e-9
    # the curvature contribution matches the stand-alone flux form
    w_full = sgb.dnggb_symplectic_form(E, slc, TIMEMODE, MATCHED_RADIAL,
                                       sigma0=1.2, sigma1=0.9)
    w_zero = sgb.dnggb_symplectic_form(E, slc, TIMEMODE, MATCHED_RADIAL,
                                       sigma0=1.2, sigma1=0.0)
    w_gb = sgb.gb_symplectic_form(E, slc, TIMEMODE, MATCHED_RADIAL, 0.9)
    assert abs((w_full - w_zero) - w_gb) < 1e-9
    w_gauge = sgb.dnggb_symplectic_form(E, slc, TIMEMODE, MATCHED_RADIAL,
                                        sigma0=1.2, sigma1=0.9,
                                        theta=gauge_angle)
    assert abs(w_full - w_gauge) < 1e-10


# -- topology and the 2d identity ----------------------------------------------

def test_euler_characteristic_values():
    assert abs(sgb.euler_characteristic(emb.sphere_polar(1.0), 128) - 2.0) \
        < 1e-12
    assert abs(sgb.euler_characteristic(emb.perturbed_sphere(), 128) - 2.0) \
        < 1e-12
    assert abs(sgb.euler_characteristic(emb.flat_torus_e4(), 64)) < 1e-12
    assert abs(sgb.euler_characteristic(emb.bumpy_torus_e4(), 96)) < 1e-12


@pytest.mark.parametrize("name", EULER_NUMBERS)
def test_euler_characteristic_at_the_default_nodes(name):
    chi = sgb.euler_characteristic(EMBEDDINGS[name][0]())
    assert abs(chi - EULER_NUMBERS[name]) <= SCENARIOS["gauss-bonnet"].tol


@pytest.mark.parametrize("sigma0, sigma1", [
    (np.nan, 0.9), (np.inf, 0.9), (1.2, np.nan), (1.2, -np.inf)])
def test_canonical_pairs_reject_non_finite_couplings(sigma0, sigma1):
    E, slc = emb.static_string(1.0), sym.CauchySlice("tau", 0.9, 16)
    with pytest.raises(ParameterError, match="finite"):
        sgb.dnggb_canonical(E, slc, sigma0=sigma0, sigma1=sigma1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("call", [
    lambda E, slc, x: sym.dng_canonical_pair(E, slc, x),
    lambda E, slc, x: sym.dng_canonical_pairing(E, slc, FZ1, RADIAL_WAVE, x),
    lambda E, slc, x: sgb.gb_potential(
        E.geometry(slc.grid(E)[0].mesh, 2), None, np.zeros((2, 16)), x),
    lambda E, slc, x: sgb.gb_symplectic_form(E, slc, TIMEMODE,
                                             MATCHED_RADIAL, x),
    lambda E, slc, x: sgb.dnggb_symplectic_form(E, slc, TIMEMODE,
                                                MATCHED_RADIAL, 1.2, x),
    lambda E, slc, x: sgb.dnggb_symplectic_form(E, slc, TIMEMODE,
                                                MATCHED_RADIAL, x, 0.9),
    lambda E, slc, x: sgb.dnggb_potential(
        E.geometry(slc.grid(E)[0].mesh, 3), RADIAL_WAVE, x, 0.9),
    lambda E, slc, x: sgb.dnggb_potential(
        E.geometry(slc.grid(E)[0].mesh, 3), RADIAL_WAVE, 1.2, x),
], ids=["dng_canonical_pair", "dng_canonical_pairing", "gb_potential",
        "gb_symplectic_form", "dnggb_symplectic_form-sigma1",
        "dnggb_symplectic_form-sigma0", "dnggb_potential-sigma0",
        "dnggb_potential-sigma1"])
def test_phase_space_functions_reject_non_finite_couplings(call, bad):
    # each coupling is checked where it enters, so a NaN or infinite one
    # raises instead of reaching a NaN result
    E, slc = emb.static_string(1.0), sym.CauchySlice("tau", 0.9, 16)
    with pytest.raises(ParameterError, match="finite"):
        call(E, slc, bad)


def test_euler_characteristic_rejects_open_surfaces():
    with pytest.raises(PreconditionError):
        sgb.euler_characteristic(emb.plane(), 16)
    with pytest.raises(PreconditionError):
        sgb.euler_characteristic(emb.static_string(1.0), 16)
    with pytest.raises(UnsupportedConfigurationError):
        sgb.euler_characteristic(emb.s3_curve(), 16)


@pytest.mark.parametrize("builder, n", [
    (emb.traveling_wave, 128),
    (emb.sphere_polar, 64),
    (emb.surface_s2xs2, 32),
])
def test_two_d_einstein_identity(builder, n):
    E = builder()
    res = sgb.two_d_einstein_identity(E, emb.make_grid(E, n))
    assert res < 1e-6


def test_two_d_einstein_identity_flat_plane():
    E = emb.plane()
    assert sgb.two_d_einstein_identity(E, emb.make_grid(E, 8)) < 1e-15


# -- exact variations against the re-embedding oracle ---------------------------

def fd_delta(geom, V, extract):
    return dfm.finite_difference_delta(geom, V, extract).estimate


@pytest.mark.parametrize("field, theta", [(RADIAL_WAVE, None),
                                          (RADIAL_WAVE, gauge_angle),
                                          (TIMEMODE, None)],
                         ids=["radial", "radial-gauge", "time"])
def test_connection_response_matches_finite_difference(field, theta):
    geom, _ = string_geometry()
    th = None if theta is None else theta(*geom.params)
    oracle = fd_delta(geom, field(geom),
                      lambda g2: sgb.rotation_connection(g2, th)[0].value)
    exact = sgb.rotation_connection_delta(geom, field, theta)
    np.testing.assert_allclose(exact, oracle, atol=1e-10)


def nested_fd_gb_form(E, slc, vf1, vf2, sigma1, theta=None):
    """`gb_symplectic_form` by nested finite differences: the outer one
    varies the flux of one deformation, whose connection response is the
    inner one, along the other deformation."""
    grid, k = slc.grid(E)
    geom = E.geometry(grid.mesh, 5)
    th = None if theta is None else theta(*geom.params)
    low = jets.jet_einsum("am...,mn...->an...", geom.tangents,
                          geom.ambient_metric(geom.order))
    dual = jets.jet_einsum("ab...,bn...->an...",
                           geom.inverse_induced_metric(geom.order), low)
    conormal = np.asarray(dual.value, float)[k]
    V1, V2 = vf1(geom), vf2(geom)

    def flux(g2, V_inner):
        dr = fd_delta(g2, V_inner,
                      lambda g3: sgb.rotation_connection(g3, th)[0].value)
        return sgb.gb_potential(g2, th, dr, sigma1)

    d1 = fd_delta(geom, V1, lambda g2: flux(g2, V2))
    d2 = fd_delta(geom, V2, lambda g2: flux(g2, V1))
    dens = np.einsum("m...,m...->...", conormal, d2 - d1)
    return float(emb.integrate(dens, grid))


@pytest.mark.parametrize("theta", [None, gauge_angle],
                         ids=["no-gauge", "gauge"])
def test_gb_form_matches_nested_finite_difference(theta):
    E = emb.static_string(1.0)
    slc = sym.CauchySlice("tau", 0.9, 24)
    exact = sgb.gb_symplectic_form(E, slc, TIMEMODE, MATCHED_RADIAL, 0.9,
                                   theta=theta)
    oracle = nested_fd_gb_form(E, slc, TIMEMODE, MATCHED_RADIAL, 0.9, theta)
    assert abs(exact) > 1e-3
    assert abs(exact - oracle) < 1e-9


@pytest.mark.parametrize("sigma1", [0.0, 0.9])
def test_dnggb_form_matches_finite_difference(sigma1):
    E = emb.static_string(1.0)
    slc = sym.CauchySlice("tau", 0.9, 48)
    grid, _k = slc.grid(E)
    geom = E.geometry(grid.mesh, 4)

    def qp(g2):
        return np.stack([np.asarray(j.value, float) for j in
                         sgb._dnggb_pair(g2, 1.2, sigma1, None)])

    d1 = fd_delta(geom, TIMEMODE(geom), qp)
    d2 = fd_delta(geom, MATCHED_RADIAL(geom), qp)
    dens = np.einsum("m...,m...->...", d1[0], d2[1]) \
        - np.einsum("m...,m...->...", d2[0], d1[1])
    oracle = float(emb.integrate(dens, grid))
    exact = sgb.dnggb_symplectic_form(E, slc, TIMEMODE, MATCHED_RADIAL,
                                      sigma0=1.2, sigma1=sigma1)
    assert abs(exact - oracle) < 1e-9


def test_gb_slice_orders_are_the_lowest_that_hold_a_variation(monkeypatch):
    E = emb.static_string(1.0)
    slc = sym.CauchySlice("tau", 0.9, 32)
    calls = [
        lambda: sgb.gb_symplectic_form(E, slc, TIMEMODE, MATCHED_RADIAL, 0.9,
                                       theta=gauge_angle),
        lambda: sgb.dnggb_symplectic_form(E, slc, TIMEMODE, MATCHED_RADIAL,
                                          sigma0=1.2, sigma1=0.9,
                                          theta=gauge_angle),
    ]
    low = [call() for call in calls]
    original = sym._slice_geometry
    monkeypatch.setattr(
        sgb, "_slice_geometry",
        lambda embedding, slc, order: original(embedding, slc, order + 1))
    high = [call() for call in calls]
    np.testing.assert_allclose(low, high, rtol=0.0, atol=1e-14)


def test_gb_form_builds_two_geometries(monkeypatch):
    builds = []
    original = emb.Geometry.__init__

    def counting(self, *args, **kwargs):
        builds.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(emb.Geometry, "__init__", counting)
    E = emb.static_string(1.0)
    slc = sym.CauchySlice("tau", 0.9, 16)
    sgb.gb_symplectic_form(E, slc, TIMEMODE, MATCHED_RADIAL, 0.9)
    assert len(builds) == 2
    builds.clear()
    sgb.dnggb_symplectic_form(E, slc, TIMEMODE, MATCHED_RADIAL, sigma0=1.2,
                              sigma1=0.9)
    assert len(builds) == 2


def test_gb_form_projects_each_frame_leg_once(monkeypatch):
    # fluxes contracts one frame twice (j = 0, 1); its two chart legs are
    # projected on the first contraction and reused by the second
    legs = []
    original = emb.Geometry.chart_components

    def counting(self, W):
        legs.append(W)
        return original(self, W)

    monkeypatch.setattr(emb.Geometry, "chart_components", counting)
    sgb.gb_symplectic_form(emb.static_string(1.0),
                           sym.CauchySlice("tau", 0.9, 16), TIMEMODE,
                           MATCHED_RADIAL, 0.9)
    assert len(legs) == len({id(leg) for leg in legs}) == 2
