import numpy as np
import pytest

from branelab import backgrounds, jets
from branelab.backgrounds import (
    BackgroundMetric,
    euclidean,
    minkowski,
    round_sphere_background,
)
from branelab.errors import ParameterError, PreconditionError


def strip_closed_forms(bg):
    """``bg`` as a curved background given only its metric, which
    construction rejects."""
    return BackgroundMetric(
        name=bg.name + "-raw",
        dim=bg.dim,
        metric_fn=bg.metric_fn,
        flat=False,
    )


def fd_christoffel_at(bg, point, step=1e-5):
    """Central-difference connection from metric_at: an oracle for the
    closed forms."""
    point = np.asarray(point, float)
    ginv = np.linalg.inv(bg.metric_at(point))
    dg = _central_grad(lambda p: bg.metric_at(p), point, step)
    low = 0.5 * (
        np.einsum("mrn->rmn", dg)
        + np.einsum("nrm->rmn", dg)
        - np.einsum("rmn->rmn", dg)
    )
    return np.einsum("rl,lmn->rmn", ginv, low)


def fd_riemann_at(bg, point, step=1e-5):
    """All-lower curvature from central differences of fd_christoffel_at."""
    point = np.asarray(point, float)
    dG = _central_grad(lambda p: fd_christoffel_at(bg, p, step), point, step)
    G = fd_christoffel_at(bg, point, step)
    upper = (
        np.einsum("mrns->rsmn", dG)
        - np.einsum("nrms->rsmn", dG)
        + np.einsum("rml,lns->rsmn", G, G)
        - np.einsum("rnl,lms->rsmn", G, G)
    )
    return np.einsum("rk,ksmn->rsmn", bg.metric_at(point), upper)


def jet_extracted_at(bg, point):
    """Connection and all-lower curvature at ``point`` from an order-2 jet
    of the metric alone, through christoffel_from_metric and
    riemann_from_metric: the path the induced metric of a brane takes."""
    coords = jets.variables(list(np.asarray(point, float)), order=2)
    g = bg.metric_tensor(coords)
    ginv = jets.jet_matinv(g)
    partials = lambda j: jets.jet_stack([j.partial(d) for d in range(bg.dim)])  # noqa: E731
    dg = partials(g)
    ddg = partials(dg)
    gamma = backgrounds.christoffel_from_metric(ginv, dg)
    riemann = backgrounds.riemann_from_metric(g, ginv, dg, ddg)
    return (np.asarray(gamma.value, float), np.asarray(riemann.value, float))


def _central_grad(fn, point, step):
    out = []
    for a in range(point.size):
        h = step * (1.0 + abs(point[a]))
        pp, pm = point.copy(), point.copy()
        pp[a] += h
        pm[a] -= h
        out.append((fn(pp) - fn(pm)) / (2 * h))
    return np.stack(out)


def test_flat_backgrounds():
    mink = minkowski(4)
    np.testing.assert_allclose(mink.metric_at([0.3, 1.0, -2.0, 0.7]),
                               np.diag([-1.0, 1, 1, 1]))
    np.testing.assert_allclose(mink.christoffel_at([0.1, 0.2, 0.3, 0.4]), 0.0)
    np.testing.assert_allclose(mink.riemann_at([0.1, 0.2, 0.3, 0.4]), 0.0)
    eu = euclidean(3)
    np.testing.assert_allclose(eu.metric_at([1.0, 2.0, 3.0]), np.eye(3))
    # numpy integers are integers; the smallest flat space has one axis
    assert minkowski(np.int64(3)).name == "minkowski3"
    np.testing.assert_array_equal(minkowski(1).metric_at([0.4]), [[-1.0]])


def test_sphere2_christoffel_closed_form():
    bg = round_sphere_background(2, radius=1.0)
    theta = np.pi / 4
    G = bg.christoffel_at([theta, 0.3])
    # angular chart: G^0_{11} = -sin t cos t, G^1_{01} = cot t
    assert G[0, 1, 1] == pytest.approx(-0.5)
    assert G[1, 0, 1] == pytest.approx(1.0)
    assert G[1, 1, 0] == pytest.approx(1.0)
    assert G[0, 0, 0] == 0.0


def test_sphere_scalar_curvature():
    # unit 2-sphere has scalar curvature +2 in this sign convention
    bg = round_sphere_background(2, radius=1.0)
    pt = [0.9, 1.3]
    R = bg.riemann_at(pt)
    g = bg.metric_at(pt)
    ginv = np.linalg.inv(g)
    ricci = np.einsum("rm,rsmn->sn", ginv, R)
    scal = np.einsum("sn,sn->", ginv, ricci)
    assert scal == pytest.approx(2.0, abs=1e-12)


def test_sphere_radius_scaling():
    rho = 1.7
    bg = round_sphere_background(3, radius=rho)
    pt = [1.1, 0.8, 2.0]
    g = bg.metric_at(pt)
    ginv = np.linalg.inv(g)
    R = bg.riemann_at(pt)
    scal = np.einsum("rm,sn,rsmn->", ginv, ginv, R)
    assert scal == pytest.approx(3 * 2 / rho**2, rel=1e-12)  # n(n-1)/rho^2


S2XS2 = backgrounds.product_spheres_background(1.0, 1.3)
S2XS3 = backgrounds.product_background(round_sphere_background(2, 0.9),
                                       round_sphere_background(3, 1.4))
CURVED = [round_sphere_background(2, radius=1.3),
          round_sphere_background(3, radius=1.3), S2XS2, S2XS3]
CURVED_IDS = ["sphere2", "sphere3", "s2xs2", "s2xs3"]


@pytest.mark.parametrize("bg", CURVED, ids=CURVED_IDS)
def test_closed_forms_match_central_differences(bg):
    rng = np.random.default_rng(5)
    for _ in range(3):
        pt = rng.uniform(0.5, 2.0, size=bg.dim)
        np.testing.assert_allclose(fd_christoffel_at(bg, pt),
                                   bg.christoffel_at(pt), atol=1e-7)
        np.testing.assert_allclose(fd_riemann_at(bg, pt), bg.riemann_at(pt),
                                   atol=1e-4)


@pytest.mark.parametrize("dim", [2, 3])
def test_jet_extraction_matches_closed_forms(dim):
    bg = round_sphere_background(dim, radius=1.3)
    rng = np.random.default_rng(5)
    for _ in range(4):
        pt = rng.uniform(0.4, 2.2, size=dim)
        gamma, riemann = jet_extracted_at(bg, pt)
        np.testing.assert_allclose(gamma, bg.christoffel_at(pt), atol=1e-12)
        np.testing.assert_allclose(riemann, bg.riemann_at(pt), atol=1e-11)


def test_fd_mode_cross_checks_jet_mode():
    bg = round_sphere_background(2, radius=1.0)
    pt = np.array([0.8, 0.5])
    gamma, riemann = jet_extracted_at(bg, pt)
    for ref_gamma, ref_riemann in ((gamma, riemann),  # jet extraction
                                   (bg.christoffel_at(pt), bg.riemann_at(pt))):
        np.testing.assert_allclose(fd_christoffel_at(bg, pt), ref_gamma,
                                   atol=1e-7)
        np.testing.assert_allclose(fd_riemann_at(bg, pt), ref_riemann,
                                   atol=1e-4)


def test_extracted_riemann_symmetries_and_bianchi():
    # the closed-form curvature, which is all a background has
    rng = np.random.default_rng(17)
    for bg in (round_sphere_background(3, radius=0.9), S2XS3):
        for _ in range(3):
            pt = rng.uniform(0.5, 2.0, size=bg.dim)
            R = bg.riemann_at(pt)
            np.testing.assert_allclose(R, -np.einsum("abmn->bamn", R),
                                       atol=1e-10)
            np.testing.assert_allclose(R, -np.einsum("abmn->abnm", R),
                                       atol=1e-10)
            np.testing.assert_allclose(R, np.einsum("abmn->mnab", R),
                                       atol=1e-10)
            cyc = (R
                   + np.einsum("amnb->abmn", R)
                   + np.einsum("anbm->abmn", R))
            np.testing.assert_allclose(cyc, 0.0, atol=1e-10)


def test_metric_tensor_accepts_jet_coords():
    bg = round_sphere_background(2, radius=2.0)
    theta, phi = jets.variables([0.7, 0.2], order=2)
    g = bg.metric_tensor([theta, phi])
    # d g_{phi phi} / d theta = 2 r^2 sin t cos t
    dg = g.partial(0).value
    assert dg[1, 1] == pytest.approx(2 * 4.0 * np.sin(0.7) * np.cos(0.7))


def test_grid_coords_vectorize():
    bg = round_sphere_background(2, radius=1.0)
    thetas = np.linspace(0.3, 2.8, 11)
    phis = np.zeros(11)
    t, p = jets.variables([thetas, phis], order=1)
    G = bg.christoffel_tensor([t, p])
    vals = np.asarray(G.value)
    assert vals.shape == (2, 2, 2, 11)
    np.testing.assert_allclose(vals[0, 1, 1], -np.sin(thetas) * np.cos(thetas),
                               atol=1e-12)


def test_validation_errors():
    with pytest.raises(ParameterError):
        round_sphere_background(1)
    with pytest.raises(ParameterError):
        round_sphere_background(2, radius=-1.0)
    with pytest.raises(ParameterError):
        minkowski(0)
    bg = round_sphere_background(2)
    a = jets.Jet.variable(0, 0.5, nvars=1, order=2)
    b = jets.Jet.variable(0, 0.5, nvars=2, order=2)
    with pytest.raises(PreconditionError):
        bg.metric_tensor([a, b])


@pytest.mark.parametrize("build", [
    lambda: round_sphere_background(2, np.nan),
    lambda: round_sphere_background(2, np.inf),
    lambda: round_sphere_background(2.5),
    lambda: euclidean(2.5),
    lambda: minkowski(3.0),
    lambda: euclidean("3"),
    lambda: round_sphere_background(2, "1"),
    lambda: BackgroundMetric("x", 2.5, lambda *c: [[1.0, 0.0], [0.0, 1.0]]),
    lambda: BackgroundMetric("x", 2, round_sphere_background(2).metric_fn),
    lambda: BackgroundMetric("x", 2, round_sphere_background(2).metric_fn,
                             christoffel_fn=round_sphere_background(2)
                             .christoffel_fn),
    lambda: backgrounds.product_background(
        euclidean(1), strip_closed_forms(round_sphere_background(2))),
], ids=["sphere-nan-radius", "sphere-inf-radius", "sphere-dim-2.5",
        "euclidean-dim-2.5", "minkowski-dim-3.0", "euclidean-dim-str",
        "sphere-str-radius", "metric-dim-2.5", "curved-metric-only",
        "curved-no-riemann", "product-of-stripped-factor"])
def test_catalog_rejects_non_integer_dims_and_non_finite_radii(build):
    with pytest.raises(ParameterError):
        build()


def _jet_coords(dim, order):
    """Chart coordinates as jets in two parameters over five points."""
    rng = np.random.default_rng(dim + order)
    u, v = jets.variables([rng.uniform(-1, 1, 5), rng.uniform(-1, 1, 5)],
                          order)
    return [0.8 + 0.1 * k + 0.2 * jets.sin(u + k * v) + 0.1 * v
            for k in range(dim)]


@pytest.mark.parametrize("bg, factors", [
    (S2XS2, [round_sphere_background(2, 1.0),
             round_sphere_background(2, 1.3)]),
    (S2XS3, [round_sphere_background(2, 0.9),
             round_sphere_background(3, 1.4)]),
], ids=["s2xs2", "s2xs3"])
def test_product_closed_forms_are_factor_blocks(bg, factors):
    # each diagonal block is its factor's closed form, coefficient by
    # coefficient; every entry off the blocks is exactly 0
    for order in (0, 2, 3):
        coords = _jet_coords(bg.dim, order)
        for tensor, rank in (("christoffel_tensor", 3), ("riemann_tensor", 4)):
            closed = getattr(bg, tensor)(coords)
            assert closed.order == order
            off = np.ones((bg.dim,) * rank, bool)
            o = 0
            for f in factors:
                block = (slice(o, o + f.dim),) * rank
                want = getattr(f, tensor)(coords[o:o + f.dim])
                assert want.order == order
                for got, w in zip(closed.c, want.c):
                    np.testing.assert_array_equal(got[block], w)
                off[block] = False
                o += f.dim
            for got in closed.c:
                np.testing.assert_array_equal(got[off], 0.0)


def test_product_background_blocks_and_names():
    s2 = round_sphere_background(2, 1.3)
    assert backgrounds.product_spheres_background(1.0, 1.3).name \
        == "s2xs2(r1=1.0,r2=1.3)"
    flat = backgrounds.product_background(euclidean(1), minkowski(2))
    assert flat.flat and flat.dim == 3
    mixed = backgrounds.product_background(euclidean(2), s2)
    pt = [0.3, -0.2, 0.9, 0.4]
    R = mixed.riemann_at(pt)
    np.testing.assert_array_equal(R[:2], 0.0)
    np.testing.assert_array_equal(R[2:, 2:, 2:, 2:], s2.riemann_at(pt[2:]))
    np.testing.assert_array_equal(mixed.christoffel_at(pt)[2:, 2:, 2:],
                                  s2.christoffel_at(pt[2:]))
    # a curved factor without closed forms cannot be built, so no product
    # has one
    with pytest.raises(ParameterError, match="closed-form"):
        backgrounds.product_background(euclidean(1), strip_closed_forms(s2))
    with pytest.raises(ParameterError):
        backgrounds.product_background()
    with pytest.raises(ParameterError):
        backgrounds.product_spheres_background(1.0, -1.0)
