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
    return BackgroundMetric(
        name=bg.name + "-raw",
        dim=bg.dim,
        metric_fn=bg.metric_fn,
        flat=False,
    )


def fd_christoffel_at(bg, point, step=1e-5):
    """Central-difference connection from metric_at: an oracle for the jet
    extraction."""
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


@pytest.mark.parametrize("dim", [2, 3])
def test_jet_extraction_matches_closed_forms(dim):
    bg = round_sphere_background(dim, radius=1.3)
    raw = strip_closed_forms(bg)
    rng = np.random.default_rng(5)
    for _ in range(4):
        pt = rng.uniform(0.4, 2.2, size=dim)
        np.testing.assert_allclose(raw.christoffel_at(pt), bg.christoffel_at(pt),
                                   atol=1e-12)
        np.testing.assert_allclose(raw.riemann_at(pt), bg.riemann_at(pt),
                                   atol=1e-11)


def test_extracted_riemann_symmetries_and_bianchi():
    bg = strip_closed_forms(round_sphere_background(3, radius=0.9))
    rng = np.random.default_rng(17)
    for _ in range(3):
        pt = rng.uniform(0.5, 2.0, size=3)
        R = bg.riemann_at(pt)
        np.testing.assert_allclose(R, -np.einsum("abmn->bamn", R), atol=1e-10)
        np.testing.assert_allclose(R, -np.einsum("abmn->abnm", R), atol=1e-10)
        np.testing.assert_allclose(R, np.einsum("abmn->mnab", R), atol=1e-10)
        cyc = (R
               + np.einsum("amnb->abmn", R)
               + np.einsum("anbm->abmn", R))
        np.testing.assert_allclose(cyc, 0.0, atol=1e-10)


def test_fd_mode_cross_checks_jet_mode():
    bg = round_sphere_background(2, radius=1.0)
    raw = strip_closed_forms(bg)
    pt = np.array([0.8, 0.5])
    for ref in (raw, bg):  # jet extraction, then closed forms
        np.testing.assert_allclose(fd_christoffel_at(raw, pt),
                                   ref.christoffel_at(pt), atol=1e-7)
        np.testing.assert_allclose(fd_riemann_at(raw, pt), ref.riemann_at(pt),
                                   atol=1e-4)


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
    bg = round_sphere_background(2)
    a = jets.Jet.variable(0, 0.5, nvars=1, order=2)
    b = jets.Jet.variable(0, 0.5, nvars=2, order=2)
    with pytest.raises(PreconditionError):
        bg.metric_tensor([a, b])
