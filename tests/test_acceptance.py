"""Acceptance gate: nine pinned criteria, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS/FAIL lines; each criterion is also a hard assert, so the suite is red
whenever a criterion is.
"""

import numpy as np

from branelab import cli
from branelab import deformation as dfm
from branelab import embeddings as emb
from branelab import jets
from branelab import models as mdl
from branelab import strings_gb as sgb
from branelab import symplectic as sym
from branelab.cli import (
    RADIAL_WAVE,
    WAVE_PAIRS,
    gauge_angle,
    tangential_string_field,
)


def verdict(num, label, ok, detail=""):
    line = f"criterion {num} [{label}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line = f"{line} ({detail})"
    print(line)
    assert ok, line


# -- shared probe fields: the CLI's ----------------------------------------------

(_, FZ1, FZ2), (_, FRAD1, FRAD2), (_, FZ3, _) = WAVE_PAIRS


# -- 1: geometry sanity ----------------------------------------------------------

def test_criterion_1_geometry_sanity():
    worst_k, worst_gauss = 0.0, 0.0
    cases = [
        (emb.plane(), 0.0),
        (emb.cylinder(0.8, 1.0), 1.0 / 0.8),
        (emb.sphere_polar(1.25), 2.0 / 1.25),
    ]
    for E, want in cases:
        geom = E.geometry(emb.make_grid(E, 64).mesh, 3)
        kmag = np.sqrt(np.abs(
            np.asarray(geom.k_squared_scalar.value, float)))
        worst_k = max(worst_k, float(np.max(np.abs(kmag - want))))
        res = np.asarray(geom.gauss_scalar_residual().value, float)
        worst_gauss = max(worst_gauss, float(np.max(np.abs(res))))
    ok = worst_k < 1e-8 and worst_gauss < 1e-6
    verdict(1, "geometry-sanity", ok,
            f"max |K| error {worst_k:.1e}, gauss residual {worst_gauss:.1e}")


# -- 2: deformation-formula oracle -----------------------------------------------

def interior_points(E, rng, trials):
    pts = []
    for ax in E.axes:
        span = ax.hi - ax.lo
        lo = ax.lo if ax.periodic else ax.lo + 0.12 * span
        hi = ax.hi if ax.periodic else ax.hi - 0.12 * span
        pts.append(rng.uniform(lo, hi, trials))
    return pts


def random_phi(geom, rng, trials):
    coefs = rng.uniform(-0.6, 0.6, size=(geom.codim, 4, trials))

    def maker(row):
        a, b, c, d = row

        def fn(*ps):
            out = a + b * jets.sin(ps[0] + c)
            if len(ps) > 1:
                out = out + d * jets.cos(ps[1] - c)
            return out
        return fn

    return dfm.normal_field(geom, *[maker(r) for r in coefs])


def test_criterion_2_deformation_oracles():
    rng = np.random.default_rng(11)
    trials = 10
    tol = max(1e-6, 10.0 * min(dfm.EPS_SCHEDULE) ** 2)
    worst, ratios_ok = 0.0, True
    for E in (emb.sphere_polar(), emb.cylinder(1.0, 1.0), emb.ellipsoid(),
              emb.s3_curve()):
        for name, order in (("k_squared", 3), ("k_dot_k", 3),
                            ("gradk_full", 4)):
            geom = E.geometry(interior_points(E, rng, trials), order + 1)
            phi = random_phi(geom, rng, trials)
            V = dfm.deformation_vector(geom, phi)
            pred = dfm.predicted_delta_scalar(geom, phi, name)
            got = dfm.finite_difference_delta(
                geom, V,
                lambda g2: np.asarray(
                    dfm.scalar_invariant(g2, name).value, float))
            worst = max(worst, float(np.max(np.abs(got.estimate - pred))))
            med = float(np.nanmedian(got.convergence_ratio(floor=1e-10)))
            ratios_ok = ratios_ok and 3.0 < med < 5.5
    ok = worst <= tol and ratios_ok
    verdict(2, "deformation-oracle", ok,
            f"max gap {worst:.1e} vs tol {tol:.0e}, "
            f"ratio window ok={ratios_ok}")


# -- 3: first-variation assembly ---------------------------------------------------

PROFILES_P = (
    lambda u, v: 0.3 + 0.2 * jets.sin(u) + 0.1 * jets.cos(v),
    lambda u, v: -0.1 + 0.2 * jets.cos(u) + 0.15 * jets.sin(v),
)
PROFILES_B = (
    lambda u, v: 0.4 + 0.3 * jets.sin(u) + 0.2 * v,
    lambda u, v: 0.1 - 0.2 * u + 0.3 * jets.cos(v),
)


def periodic_field(geom):
    phi = dfm.normal_field(geom, *PROFILES_P[: geom.codim])
    return dfm.deformation_vector(geom, phi)


def biplanar_field(geom):
    # explicit ambient components: the pointwise-orthonormalized normal
    # frame of a doubly periodic codim-2 surface need not be continuous
    # around the loops, so integrated checks use a chart-aligned field
    u, v = geom.params
    f = 0.3 + 0.2 * jets.sin(u) + 0.1 * jets.cos(v)
    g = -0.1 + 0.2 * jets.cos(u) + 0.15 * jets.sin(v)
    comps = [f * jets.cos(u), f * jets.sin(u),
             g * jets.cos(v), g * jets.sin(v)]
    return jets.jet_stack(comps, template=geom.X)


def polar_windowed_field(geom):
    t, _p = geom.params
    win = dfm.poly_window((t - np.pi / 2) * (2.0 / np.pi))
    phi = dfm.normal_field(
        geom, lambda t, p: 0.4 + 0.3 * jets.sin(t) + 0.2 * jets.cos(p))
    return dfm.deformation_vector(geom, win * phi)


def box_windowed_field(geom):
    u, v = geom.params
    win = dfm.poly_window(u) * dfm.poly_window(v)
    phi = dfm.normal_field(geom, *PROFILES_B[: geom.codim])
    return dfm.deformation_vector(geom, win * phi)


def test_criterion_3_action_variation():
    cases = [
        (mdl.DNG(mu=1.0), emb.torus_e3(), 24, periodic_field),
        (mdl.DNG(mu=1.0), emb.ellipsoid(), 24, polar_windowed_field),
        (mdl.QuadraticK(alpha=0.8), emb.torus_e3(), 24, periodic_field),
        (mdl.QuadraticK(alpha=0.8), emb.surface_s2xs2(), 32,
         box_windowed_field),
        (mdl.EinsteinHilbert(sigma1=1.1), emb.plane(), 24,
         box_windowed_field),
        (mdl.EinsteinHilbert(sigma1=1.1), emb.flat_torus_e4(), 24,
         biplanar_field),
        (mdl.SyntheticGradK(beta=0.6), emb.torus_e3(), 24, periodic_field),
        (mdl.SyntheticGradK(beta=0.6), emb.surface_s2xs2(), 32,
         box_windowed_field),
    ]
    worst, bad = 0.0, []
    for model, E, n, vfield in cases:
        rep = mdl.action_variation_check(model, E, emb.make_grid(E, n),
                                         vfield)
        gap_ok = rep.gap < max(1e-5, 10.0 * min(rep.eps) ** 2)
        worst = max(worst, float(rep.gap))
        if not gap_ok:
            bad.append(f"{model.name}/{E.name}")
    ok = not bad
    verdict(3, "action-variation", ok,
            f"worst gap {worst:.1e} over {len(cases)} model/embedding runs"
            + (f"; failing: {bad}" if bad else ""))


# -- 4: known solutions ------------------------------------------------------------

def test_criterion_4_known_solutions():
    E = emb.traveling_wave(0.3)
    dng = float(np.max(np.abs(mdl.eom_residual(mdl.DNG(mu=1.0), E,
                                               emb.make_grid(E, 48)))))
    S = emb.sphere_polar(1.0)
    quad_sphere = float(np.max(np.abs(mdl.eom_residual(
        mdl.QuadraticK(alpha=0.8), S, emb.make_grid(S, 48)))))
    r = 1.1
    C = emb.cylinder(r, 1.0)
    quad_cyl = float(np.max(np.abs(mdl.eom_residual(
        mdl.QuadraticK(alpha=0.8), C, emb.make_grid(C, 48)))))
    cyl_err = abs(quad_cyl - 1.0 / (2.0 * r ** 3))
    ok = dng < 1e-8 and quad_sphere < 1e-8 and cyl_err < 1e-6
    verdict(4, "known-solutions", ok,
            f"wave {dng:.1e}, sphere {quad_sphere:.1e}, "
            f"cylinder offset {cyl_err:.1e}")


# -- 5: conservation of the slice form ----------------------------------------------

def test_criterion_5_symplectic_conservation():
    E = emb.static_string(1.0)
    model = mdl.DNG(mu=1.0)
    vals = [sym.symplectic_form(model, E, sym.CauchySlice("tau", tv, 256),
                                FZ1, FZ2)
            for tv in (0.3, 1.1, 2.0)]
    spread = max(vals) - min(vals)
    err = max(abs(v - np.pi) for v in vals)
    ok = spread < 1e-6 and err < 1e-6
    verdict(5, "symplectic-conservation", ok,
            f"slice spread {spread:.1e}, |w - pi| {err:.1e}")


# -- 6: canonical pairing ------------------------------------------------------------

def test_criterion_6_canonical_pairing():
    E = emb.static_string(1.0)
    slc = sym.CauchySlice("tau", 0.9, 160)
    model = mdl.DNG(mu=1.0)
    pairs = [(FZ1, FZ2), (FZ1, FZ3), (FZ3, FZ2), (FRAD1, FRAD2),
             (FRAD1, FZ1)]
    worst = 0.0
    for f1, f2 in pairs:
        w = sym.symplectic_form(model, E, slc, f1, f2)
        p = sym.dng_canonical_pairing(E, slc, f1, f2, sigma0=1.0)
        worst = max(worst, abs(w - p))
    tan = max(
        abs(sym.symplectic_form(model, E, slc, tangential_string_field, FZ1)),
        abs(sym.symplectic_form(model, E, slc, FZ1, tangential_string_field)),
    )
    ok = worst < 1e-6 and tan < 1e-6
    verdict(6, "canonical-pairing", ok,
            f"max |form - pairing| {worst:.1e} over {len(pairs)} pairs, "
            f"tangential {tan:.1e}")


# -- 7: curvature-flux sector ---------------------------------------------------------

def test_criterion_7_gb_sector():
    E = emb.static_string(1.0)
    geom = E.geometry(emb.make_grid(E, (8, 24)).mesh, 4)
    dr = sgb.rotation_connection_delta(geom, RADIAL_WAVE)
    psi = sgb.gb_potential(geom, None, dr, 0.9)
    dr_g = sgb.rotation_connection_delta(geom, RADIAL_WAVE, theta=gauge_angle)
    psi_g = sgb.gb_potential(geom, gauge_angle, dr_g, 0.9)
    mag = float(np.max(np.abs(psi)))
    shift = float(np.max(np.abs(psi - psi_g)))

    def total_curvature(E2, n):
        grid = emb.make_grid(E2, n)
        g = E2.geometry(grid.mesh, 3)
        dens = (g.sqrt_abs_det(0) * g.intrinsic_scalar_curvature).value
        return float(emb.integrate(np.asarray(dens, float), grid))

    sph = total_curvature(emb.sphere_polar(1.0), 128)
    tor = total_curvature(emb.flat_torus_e4(), 64)
    ok = (mag > 1e-2 and shift < 1e-10
          and abs(sph - 8 * np.pi) < 1e-12 * 8 * np.pi and abs(tor) < 1e-12)
    verdict(7, "gb-sector", ok,
            f"flux magnitude {mag:.2f}, gauge shift {shift:.1e}, "
            f"sphere {sph:.6f} vs {8 * np.pi:.6f}, torus {tor:.1e}")


# -- 8: combined system ----------------------------------------------------------------

def test_criterion_8_combined_system():
    E = emb.static_string(1.0)
    geom = E.geometry(emb.make_grid(E, (8, 20)).mesh, 4)
    worst_dec = 0.0
    for vfield in (FZ1, RADIAL_WAVE):
        V = vfield(geom)
        total = sgb.dnggb_potential(geom, V, sigma0=1.2, sigma1=0.9)
        sheet = sym.symplectic_potential(mdl.DNG(mu=1.2), geom, V)
        push = np.einsum("am...,a...->m...",
                         np.asarray(geom.tangents.value, float),
                         sheet.value)
        gb = sgb.gb_potential(
            geom, None, sgb.rotation_connection_delta(geom, V), 0.9)
        worst_dec = max(worst_dec,
                        float(np.max(np.abs(total - (push + gb)))))

    slc = sym.CauchySlice("tau", 0.9, 64)
    red = sgb.dnggb_canonical(E, slc, sigma0=1.2, sigma1=0.0)
    ref = sym.dng_canonical_pair(E, slc, 1.2)
    red_gap = max(float(np.max(np.abs(red.position - ref.position))),
                  float(np.max(np.abs(red.momentum - ref.momentum))))

    shell = max(
        float(np.max(np.abs(sym.mass_shell_check(E, slc, 2.0)))),
        float(np.max(np.abs(sym.mass_shell_check(
            emb.traveling_wave(0.3), slc, 2.0)))),
    )

    einstein = max(
        sgb.two_d_einstein_identity(
            emb.traveling_wave(0.3),
            emb.make_grid(emb.traveling_wave(0.3), 128)),
        sgb.two_d_einstein_identity(
            emb.sphere_polar(1.0), emb.make_grid(emb.sphere_polar(1.0), 64)),
    )
    ok = (worst_dec < 1e-12 and red_gap < 1e-12 and shell < 1e-10
          and einstein < 1e-6)
    verdict(8, "combined-system", ok,
            f"decomposition {worst_dec:.1e}, reduction {red_gap:.1e}, "
            f"mass shell {shell:.1e}, einstein {einstein:.1e}")


# -- 9: report determinism ---------------------------------------------------------------

def test_criterion_9_report_determinism(tmp_path, capsys):
    def body(path):
        return "\n".join(ln for ln in path.read_text().splitlines()
                         if not ln.startswith("duration-s:"))

    bad = []
    for name in cli.SCENARIOS:
        a, b = tmp_path / f"{name}-a.txt", tmp_path / f"{name}-b.txt"
        code_a = cli.main(["--scenario", name, "--out", str(a)])
        code_b = cli.main(["--scenario", name, "--out", str(b)])
        capsys.readouterr()
        if code_a != 0 or code_b != 0 or body(a) != body(b):
            bad.append(name)
    with capsys.disabled():
        verdict(9, "report-determinism", not bad,
                "all nine scenarios byte-identical" if not bad
                else f"failing: {bad}")