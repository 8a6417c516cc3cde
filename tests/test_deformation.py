import numpy as np
import pytest

from branelab import deformation as dfm
from branelab import embeddings as emb
from branelab import jets
from branelab.errors import ParameterError, PreconditionError

TOL = 1e-6  # max(1e-6, 10 eps^2) at the eps schedule used


def oracle_vs_prediction(geom, phi, name, tol=TOL):
    V = dfm.deformation_vector(geom, phi)
    res = dfm.finite_difference_delta(
        geom, V, lambda g: np.asarray(dfm.scalar_invariant(g, name).value, float)
    )
    pred = dfm.predicted_delta_scalar(geom, phi, name)
    scale = max(1.0, np.max(np.abs(pred)))
    err = np.max(np.abs(res.estimate - pred)) / scale
    assert err < tol, f"{name}: oracle mismatch {err:.3e}"
    return res


def test_sphere_metric_variation_closed_form():
    c = 0.3
    g = emb.sphere_polar(1.0).geometry([0.9, 1.2], order=3)
    phi = dfm.normal_field(g, lambda t, p: c + 0.0 * t)
    V = dfm.deformation_vector(g, phi)
    res = dfm.finite_difference_delta(
        g, V, lambda gg: np.asarray(gg.induced_metric.value, float)
    )
    pred = np.asarray(dfm.delta_induced_metric(g, phi).value, float)
    gamma = np.asarray(g.induced_metric.value, float)
    np.testing.assert_allclose(pred, 2 * c * gamma, atol=1e-12)
    np.testing.assert_allclose(res.estimate, pred, atol=1e-7)


def test_sphere_scalar_closed_forms():
    # unit sphere, constant outward motion c: K.K -> 2/r^2, K^2 -> 4/r^2
    c = 0.41
    g = emb.sphere_polar(1.0).geometry([1.1, 0.3], order=3)
    phi = dfm.normal_field(g, lambda t, p: c + 0.0 * t)
    dkk = dfm.predicted_delta_scalar(g, phi, "k_dot_k")
    dk2 = dfm.predicted_delta_scalar(g, phi, "k_squared")
    np.testing.assert_allclose(dkk, -4.0 * c, atol=1e-10)
    np.testing.assert_allclose(dk2, -8.0 * c, atol=1e-10)
    oracle_vs_prediction(g, phi, "k_dot_k")
    oracle_vs_prediction(g, phi, "k_squared")


def test_sphere_nonconstant_deformation():
    g = emb.sphere_polar(1.3).geometry([0.8, 2.1], order=4)
    phi = dfm.normal_field(
        g, lambda t, p: 0.2 + 0.3 * jets.sin(t) * jets.cos(p)
    )
    oracle_vs_prediction(g, phi, "k_dot_k")
    oracle_vs_prediction(g, phi, "k_squared")
    oracle_vs_prediction(g, phi, "sqrt_det")
    oracle_vs_prediction(g, phi, "det_metric")


def test_latitude_circle_curvature_response():
    # closed form: moving a latitude circle by c along its normal changes
    # its curvature scalar invariants through cos(2 theta)
    theta0, c = 0.8, 0.27
    g = emb.s2_latitude(theta0).geometry([1.7], order=3)
    phi = dfm.normal_field(g, lambda x: c + 0.0 * x)
    lam = np.asarray(dfm.delta_extrinsic(g, phi).value, float)[0, 0, 0]
    assert lam == pytest.approx(c * np.cos(2 * theta0), abs=1e-12)
    V = dfm.deformation_vector(g, phi)
    res = dfm.finite_difference_delta(
        g, V,
        lambda gg: np.asarray(gg.extrinsic_curvature.value, float),
    )
    np.testing.assert_allclose(res.estimate[0, 0, 0], lam, atol=1e-8)


def test_sphere_tensor_level_k_variation():
    # codimension 1: the normal choice is eps-stable, so K_ab itself can be
    # differenced against the covariant prediction
    g = emb.sphere_polar(1.0).geometry([0.7, 0.9], order=3)
    phi = dfm.normal_field(g, lambda t, p: 0.2 + 0.1 * jets.sin(p) * jets.sin(t))
    V = dfm.deformation_vector(g, phi)
    res = dfm.finite_difference_delta(
        g, V, lambda gg: np.asarray(gg.extrinsic_curvature.value, float)
    )
    pred = np.asarray(dfm.delta_extrinsic(g, phi).value, float)
    np.testing.assert_allclose(res.estimate, pred, atol=1e-7)


def test_delta_extrinsic_symmetric_codim2():
    g = emb.graph_surface_e4().geometry([0.3, -0.4], order=4)
    phi = dfm.normal_field(
        g,
        lambda u, v: 0.3 + 0.2 * u * v,
        lambda u, v: -0.1 + 0.25 * jets.sin(u + v),
    )
    lam = np.asarray(dfm.delta_extrinsic(g, phi).value, float)
    np.testing.assert_allclose(lam, np.swapaxes(lam, 0, 1), atol=1e-10)


def test_unknown_names_and_component_counts_are_rejected():
    g = emb.graph_surface_e4().geometry([0.3, -0.4], order=3)
    with pytest.raises(ParameterError, match="need 2 normal components, got 1"):
        dfm.normal_field(g, lambda u, v: 0.1 + 0.0 * u)
    phi = dfm.normal_field(g, lambda u, v: 0.1 + 0.0 * u,
                           lambda u, v: 0.2 + 0.0 * v)
    with pytest.raises(ParameterError, match="unknown scalar invariant 'warp'"):
        dfm.scalar_invariant(g, "warp")
    with pytest.raises(ParameterError, match="no predicted variation for 'warp'"):
        dfm.predicted_delta_scalar(g, phi, "warp")


@pytest.mark.parametrize("E", [emb.torus_e3(), emb.graph_surface_e4(),
                               emb.ellipsoid()],
                         ids=["torus", "graph4", "ellipsoid"])
def test_flat_delta_extrinsic_equals_the_three_term_form(E):
    # -grad grad phi + (K K) phi + R phi, each term contracted on its own:
    # on a flat background J's zero curvature term changes no bit
    g = E.geometry(emb.make_grid(E, (3, 4)).mesh, 4)
    phi = dfm.normal_field(g, *[
        lambda u, v, k=k: 0.2 + 0.1 * jets.sin(u + (k + 1) * v) * u
        for k in range(g.codim)])
    ddphi = g.covariant_grad(g.covariant_grad(phi, 0, 1), 1, 1)
    kk = jets.jet_einsum("bdi...,dcj...->bcij...", g.extrinsic_curvature,
                         g.k_mixed(g.order))
    kk_term = jets.jet_einsum("bcij...,j...->bci...", kk, phi)
    r_term = jets.jet_einsum("jbci...,j...->bci...", g.rblock("nttn", 1), phi)
    want = -1.0 * ddphi + kk_term + r_term
    got = dfm.delta_extrinsic(g, phi)
    assert (got.order, len(got.c)) == (want.order, len(want.c)) == (1, 3)
    for a, b in zip(got.c, want.c):
        assert a.tobytes() == b.tobytes()


def test_graph_surface_scalar_oracles():
    g = emb.graph_surface_e4().geometry([0.25, -0.35], order=4)
    phi = dfm.normal_field(
        g,
        lambda u, v: 0.3 + 0.2 * u + 0.15 * v * v,
        lambda u, v: -0.2 + 0.3 * jets.sin(u) + 0.1 * v,
    )
    oracle_vs_prediction(g, phi, "k_dot_k")
    oracle_vs_prediction(g, phi, "k_squared")
    res = oracle_vs_prediction(g, phi, "gradk_full")
    oracle_vs_prediction(g, phi, "gradk_mean")
    # quadratic convergence of the central differences
    ratio = res.convergence_ratio(floor=1e-10)
    good = np.isfinite(ratio)
    if np.any(good):
        assert np.all((ratio[good] > 3.0) & (ratio[good] < 5.5))


def test_s3_curve_scalar_oracles():
    g = emb.s3_curve().geometry([1.3], order=4)
    phi = dfm.normal_field(
        g,
        lambda x: 0.3 + 0.2 * jets.sin(x),
        lambda x: -0.15 + 0.1 * jets.cos(x),
    )
    oracle_vs_prediction(g, phi, "k_dot_k")
    oracle_vs_prediction(g, phi, "k_squared")
    oracle_vs_prediction(g, phi, "gradk_full")
    oracle_vs_prediction(g, phi, "gradk_mean")


def test_product_background_scalar_oracles():
    # S^2 x S^2 is the one catalog background whose tangent/normal^3
    # Riemann block is nonzero, so this pins the curvature coupling in the
    # normal-connection variation that flat and single-sphere cases skip
    g = emb.surface_s2xs2().geometry([0.2, -0.3], order=4)
    d = g.dim
    blk = np.asarray(g.rblock("tnnn", 1).value)
    assert np.max(np.abs(blk)) > 1e-2
    phi = dfm.normal_field(
        g,
        lambda u, v: 0.25 + 0.2 * u - 0.1 * v,
        lambda u, v: -0.15 + 0.1 * jets.sin(u) + 0.2 * v,
    )
    oracle_vs_prediction(g, phi, "k_dot_k")
    oracle_vs_prediction(g, phi, "gradk_full")
    oracle_vs_prediction(g, phi, "gradk_mean")


def test_torus_oracles_on_grid():
    e = emb.torus_e3(2.0, 0.6)
    grid = emb.make_grid(e, (4, 4))
    g = e.geometry(grid.mesh, order=4)
    phi = dfm.normal_field(
        g, lambda u, v: 0.2 + 0.1 * jets.cos(u) * jets.sin(v)
    )
    oracle_vs_prediction(g, phi, "k_dot_k")
    oracle_vs_prediction(g, phi, "gradk_full")


def test_decompose_roundtrip():
    g = emb.graph_surface_e4().geometry([0.2, 0.4], order=3)
    rng = np.random.default_rng(3)
    comp = rng.normal(size=4)
    V = jets.Jet.constant(comp, 2, 3)
    t, phi = g.chart_components(V), dfm.normal_components(g, V)
    rebuilt = (jets.jet_einsum("a...,am...->m...", t, g.tangents)
               + jets.jet_einsum("i...,im...->m...", phi, g.normals))
    np.testing.assert_allclose(np.asarray(rebuilt.value, float), comp, atol=1e-12)


DECOMPOSE_CASES = [(emb.graph_surface_e4(), (3, 4)), (emb.surface_s2xs2(), (4, 3)),
                   (emb.torus_e3(), (3, 3))]


def ambient_field(g):
    u, v = g.params
    return jets.jet_stack([0.3 * jets.sin(u + m * v) + 0.1 * m
                           for m in range(g.ambient_dim)], template=g.X)


@pytest.mark.parametrize("E, shape", DECOMPOSE_CASES,
                         ids=["graph-surface", "s2xs2", "torus"])
def test_decompose_vector_equals_the_written_out_formula(E, shape):
    # t^a = gamma^{ab} <V, e_b> and phi^i = <V, n^i>
    g = E.geometry(emb.make_grid(E, shape).mesh, 4)
    V = ambient_field(g)
    t, phi = g.chart_components(V), dfm.normal_components(g, V)
    gV = jets.jet_einsum("mn...,n...->m...", g.ambient_metric, V)
    low = jets.jet_einsum("bm...,m...->b...", g.tangents, gV)
    for got, want in ((t, jets.jet_einsum("ab...,b...->a...",
                                          g.inverse_induced_metric, low)),
                      (phi, jets.jet_einsum("im...,m...->i...", g.normals, gV))):
        assert (got.order, len(got.c)) == (want.order, len(want.c))
        for a, b in zip(got.c, want.c):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("E, shape", DECOMPOSE_CASES,
                         ids=["graph-surface", "s2xs2", "torus"])
def test_decompose_vector_lowers_once(E, shape, monkeypatch):
    g = E.geometry(emb.make_grid(E, shape).mesh, 4)
    V = ambient_field(g)
    g.normals, g.inverse_induced_metric
    specs = []

    def counted(spec, a, b):
        specs.append(spec)
        return jets.jet_einsum(spec, a, b)

    for module in (dfm, emb):
        monkeypatch.setattr(module, "jet_einsum", counted)
    dfm.normal_components(g, V)
    assert specs.count("mn...,n...->m...") == 1


@pytest.mark.parametrize("E, shape", [
    (emb.graph_surface_e4(), (12, 10)),
    (emb.flat_torus_e4(), (12, 10)),
    (emb.surface_s2xs2(), (12, 10)),
], ids=["graph-surface", "flat-torus", "s2xs2"])
def test_normal_part_of_an_ambient_field_does_not_depend_on_the_frame(
        E, shape, rotated_normals_copy):
    # in codimension 2 the normal frame is picked point by point and jumps
    # between nodes; W = t^a e_a + phi^i n_i still holds at every node, and
    # the normal part phi^i n_i is the same in a frame turned node by node
    g = E.geometry(emb.make_grid(E, shape).mesh, 4)
    u, v = g.params
    W = jets.jet_stack([0.4 + 0.3 * jets.sin(u), 0.2 * jets.cos(v) - 0.1,
                        0.3 * jets.sin(u + v), 0.5 + 0.2 * jets.cos(u)],
                       template=g.X)
    t, phi = g.chart_components(W), dfm.normal_components(g, W)
    normal = dfm.deformation_vector(g, phi)
    rebuilt = jets.jet_einsum("a...,am...->m...", t, g.tangents) + normal
    for got, want in zip(rebuilt.c, W.truncated(rebuilt.order).c):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    theta = np.random.default_rng(5).uniform(-np.pi, np.pi, shape)
    turned = rotated_normals_copy(g, theta)
    turned_normal = dfm.deformation_vector(
        turned, dfm.normal_components(turned, W))
    for got, want in zip(turned_normal.c, normal.c):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    # the components themselves do depend on the frame
    turned_phi = dfm.normal_components(turned, W)
    assert np.max(np.abs(np.asarray(turned_phi.value)
                         - np.asarray(phi.value))) > 1e-2


@pytest.mark.parametrize("eps", [
    (1e-3, 5e-4),                  # too short
    (1e-3, 1e-4, 1e-5),            # not halving
    (1e-3, -5e-4, 2.5e-4),         # not positive
    (1e-3, float("nan"), 2.5e-4),  # not finite
])
def test_eps_schedule_validated(eps):
    g = emb.graph_surface_e4().geometry([0.25, -0.35], order=3)
    V = jets.Jet.constant(np.ones(4), 2, 3)
    with pytest.raises(ParameterError):
        dfm.finite_difference_delta(g, V, lambda g2: g2.X.value, eps)


def test_eps_schedule_whose_tolerance_overflows_is_rejected(monkeypatch):
    # the checks' tolerance 10 min(eps)**2 must be a finite float; the
    # schedule is refused before any re-embedding
    dfm.validate_eps_schedule((1e154, 5e153, 2.5e153))
    calls = []
    monkeypatch.setattr(dfm, "deformed_geometry",
                        lambda *a: calls.append(a))
    g = emb.graph_surface_e4().geometry([0.25, -0.35], order=3)
    V = jets.Jet.constant(np.ones(4), 2, 3)
    for eps in ((1e300, 5e299, 2.5e299), (1e155, 5e154, 2.5e154)):
        with pytest.raises(ParameterError, match="overflows its tolerance"):
            dfm.finite_difference_delta(g, V, lambda g2: g2.X.value, eps)
    assert calls == []


def test_eps_tolerance_is_its_floor_or_ten_eps_squared():
    # one formula for the CLI oracle's checks (floor 1e-6) and the action
    # check (floor 1e-5), at the smallest step of the schedule
    assert dfm.eps_tolerance((1e-3, 5e-4, 2.5e-4), 1e-6) == 1e-6
    assert dfm.eps_tolerance((0.1, 0.025, 0.05), 1e-5) == 10.0 * 0.025 ** 2
    with pytest.raises(OverflowError):
        dfm.eps_tolerance((1e300,), 0.0)    # validate_eps_schedule refuses it


def test_longer_eps_schedule_uses_last_three_steps():
    g = emb.graph_surface_e4().geometry([0.25, -0.35], order=3)
    phi = dfm.normal_field(g, lambda u, v: 0.3 + 0.2 * u,
                           lambda u, v: -0.2 + 0.1 * v)
    V = dfm.deformation_vector(g, phi)

    def extract(g2):
        return np.asarray(dfm.scalar_invariant(g2, "k_dot_k").value, float)

    short = dfm.finite_difference_delta(g, V, extract, (5e-4, 2.5e-4, 1.25e-4))
    long = dfm.finite_difference_delta(g, V, extract,
                                       (1e-3, 5e-4, 2.5e-4, 1.25e-4))
    np.testing.assert_array_equal(long.estimate, short.estimate)
    np.testing.assert_array_equal(long.convergence_ratio(),
                                  short.convergence_ratio())


def test_static_string_deformation():
    e = emb.static_string(1.0)
    g = e.geometry([0.9, 2.0], order=4)
    phi = dfm.normal_field(
        g,
        lambda t, s: 0.2 * jets.sin(s) * jets.cos(t),
        lambda t, s: 0.1 * jets.cos(s),
    )
    oracle_vs_prediction(g, phi, "k_dot_k")
    oracle_vs_prediction(g, phi, "gradk_full")


def test_fd_evaluates_only_the_steps_it_reads(monkeypatch):
    g = emb.graph_surface_e4().geometry([0.25, -0.35], order=3)
    phi = dfm.normal_field(g, lambda u, v: 0.3 + 0.2 * u,
                           lambda u, v: -0.2 + 0.1 * v)
    V = dfm.deformation_vector(g, phi)
    built = []
    original = dfm.deformed_geometry

    def counted(geom, V, eps):
        built.append(eps)
        return original(geom, V, eps)

    monkeypatch.setattr(dfm, "deformed_geometry", counted)

    def extract(g2):
        return np.asarray(dfm.scalar_invariant(g2, "k_dot_k").value, float)

    res = dfm.finite_difference_delta(g, V, extract)
    assert len(built) == 4
    ratio = res.convergence_ratio()
    assert len(built) == 6
    res.convergence_ratio(floor=1e-10)
    assert len(built) == 6
    # the estimate is the one the eager evaluation of every step gave
    diffs = [(extract(original(g, V, e)) - extract(original(g, V, -e)))
             / (2.0 * e) for e in dfm.EPS_SCHEDULE]
    np.testing.assert_array_equal(res.estimate,
                                  (4.0 * diffs[2] - diffs[1]) / 3.0)
    np.testing.assert_array_equal(
        ratio, (diffs[0] - diffs[1]) / (diffs[1] - diffs[2]))


# -- exact variations on a varied geometry --------------------------------------

VARIED_CASES = [
    (emb.static_string(1.0), (6, 8), lambda t, s: (
        0.1 * jets.sin(s) * jets.cos(t), 0.2 * jets.cos(s), 0.0 * t,
        0.3 * jets.sin(t + s))),
    (emb.surface_s2xs2(), (5, 6), lambda u, v: (
        0.1 * jets.sin(v), 0.2 * u * v, 0.1 * jets.cos(u), 0.05 + 0.0 * u)),
    (emb.torus_e3(2.0, 0.5), (6, 6), lambda u, v: (
        0.2 * jets.sin(v), 0.1 * jets.cos(u + v), 0.15 + 0.0 * u)),
    (emb.s3_curve(), (9,), lambda x: (
        0.1 * jets.sin(x), 0.2 * jets.cos(x), 0.05 + 0.0 * x)),
]


@pytest.mark.parametrize("E, shape, fn", VARIED_CASES,
                         ids=[c[0].name for c in VARIED_CASES])
def test_varied_geometry_keeps_base_coefficients_bit_for_bit(E, shape, fn):
    geom = E.geometry(emb.make_grid(E, shape).mesh, 4)
    V = jets.jet_stack(list(fn(*geom.params)), template=geom.X)
    W = dfm.deformation_vector(geom, dfm.normal_field(
        geom, *[lambda *ps: 0.1 + 0.0 * ps[0]] * geom.codim))
    vg = dfm.varied_geometry(geom, V, W)
    assert ((vg.dim, vg.order, vg.X.nvars, vg.X.eps)
            == (geom.dim, 3, geom.dim + 2, 2))
    readers = {"normals": lambda g: g.normals,
               "extrinsic_curvature": lambda g: g.extrinsic_curvature,
               "sqrt_abs_det": lambda g: g.sqrt_abs_det(g.order),
               "inverse_induced_metric": lambda g: g.inverse_induced_metric,
               "twist": lambda g: g.twist(g.order - 2)}
    for name, read in readers.items():
        base, varied = read(geom), read(vg)
        # each tensor sits as far below the map as on ``geom``
        assert varied.order == base.order - 1
        for alpha in jets._tables(geom.dim, varied.order)[0]:
            np.testing.assert_array_equal(
                varied.coefficient(alpha + (0, 0)),
                base.coefficient(alpha), err_msg=f"{name} {alpha}")


def _eps_seeded_by_hand(X, fields):
    """X + sum_k eps_k V_k, each coefficient of X placed by multi-index at
    alpha and each of V_k at alpha + e_k up to X's order (the reference
    for `Jet.lift` with slopes); every other slot of the order and of eps
    degree at most 1 is zero."""
    nv, order = X.nvars, X.order
    n = nv + len(fields)
    position = jets._tables(n, order, len(fields))[1]
    c = [np.zeros_like(X.c[0])] * len(position)
    for k, V in enumerate([X] + list(fields)):
        pad = tuple(int(m == k - 1) for m in range(len(fields)))
        for alpha, coef in zip(jets._tables(nv, V.order)[0], V.c):
            if sum(alpha) <= order:
                c[position[alpha + pad]] = coef
    return c


@pytest.mark.parametrize("E, shape, fn", VARIED_CASES,
                         ids=[c[0].name for c in VARIED_CASES])
def test_lift_with_slopes_matches_placement_by_hand(E, shape, fn):
    geom = E.geometry(emb.make_grid(E, shape).mesh, 3)
    V = jets.jet_stack(list(fn(*geom.params)), template=geom.X)
    W = dfm.deformation_vector(geom, dfm.normal_field(
        geom, *[lambda *ps: 0.1 + 0.0 * ps[0]] * geom.codim))
    n = geom.dim + 2
    for got, want in (
            (geom.X.truncated(1).lift(n, V, W).c,
             _eps_seeded_by_hand(geom.X.truncated(1), [V, W])),
            (dfm.varied_geometry(geom, V, W).X.c,
             _eps_seeded_by_hand(geom.X.truncated(2), [V, W]))):
        assert len(got) == len(want)
        for x, y in zip(got, want):
            assert x is y or np.array_equal(x, y)


INVARIANT_NAMES = ["sqrt_det", "det_metric", "k_squared", "k_dot_k",
                   "gradk_full", "gradk_mean"]
# (id prefix, embedding, points, normal components of phi); the S^2 x S^2
# patch has codimension 2 and the ambient curvature that rpair carries
EXACT_CASES = [
    ("", emb.ellipsoid(), [np.array([0.7, 1.9]), np.array([0.4, 2.5])],
     [lambda t, p: 0.3 + 0.2 * jets.sin(t + p)]),
    ("s2xs2-", emb.surface_s2xs2(),
     [np.array([0.2, -0.1]), np.array([-0.3, 0.25])],
     [lambda u, v: 0.25 + 0.2 * u - 0.1 * v,
      lambda u, v: -0.15 + 0.1 * jets.sin(u) + 0.2 * v]),
]


@pytest.mark.parametrize("E, pts, fns, name", [
    pytest.param(E, pts, fns, name, id=prefix + name)
    for prefix, E, pts, fns in EXACT_CASES for name in INVARIANT_NAMES])
def test_exact_variation_matches_chain_rule(E, pts, fns, name):
    geom = E.geometry(pts, 5)
    phi = dfm.normal_field(geom, *fns)
    vg = dfm.varied_geometry(geom, dfm.deformation_vector(geom, phi))
    exact = dfm.variation(vg, dfm.scalar_invariant(vg, name))
    pred = dfm.predicted_delta_scalar(geom, phi, name)
    np.testing.assert_allclose(exact, pred, rtol=1e-12, atol=1e-12)


def test_invariants_match_geometry_scalars():
    # K^iK_i and K.K are the same contractions on cached partners: bit-equal
    geom = emb.surface_s2xs2().geometry(EXACT_CASES[1][2], 4)
    for name, scalar in (("k_squared", "k_squared_scalar"),
                         ("k_dot_k", "k_dot_k_scalar")):
        np.testing.assert_array_equal(dfm.scalar_invariant(geom, name).value,
                                      getattr(geom, scalar).value,
                                      err_msg=name)
    np.testing.assert_allclose(dfm.scalar_invariant(geom, "gradk_mean").value,
                               geom.gradk_squared_scalar.value,
                               rtol=1e-12, atol=1e-12)


def test_variation_preconditions():
    geom = emb.sphere_polar(1.0).geometry([0.9, 1.2], order=2)
    V = dfm.deformation_vector(geom, dfm.normal_field(
        geom, lambda t, p: 0.2 + 0.0 * t))
    vg = dfm.varied_geometry(geom, V)
    # at order 2 the area element keeps its eps slot, K (order 0) has none
    assert abs(dfm.variation(vg, vg.sqrt_abs_det(vg.order))) > 0.1
    with pytest.raises(PreconditionError):
        dfm.variation(vg, vg.extrinsic_curvature)
    # a re-embedded geometry keeps the chart and its parameter jets
    moved = dfm.deformed_geometry(geom, V, 1e-3)
    assert moved.params is geom.params and moved.embedding is geom.embedding
    low = emb.sphere_polar(1.0).geometry([0.9, 1.2], order=3)
    with pytest.raises(PreconditionError):
        dfm.varied_geometry(low, V)


@pytest.mark.parametrize("prefix, E, pts, fns", EXACT_CASES,
                         ids=[case[0] or "ellipsoid" for case in EXACT_CASES])
def test_predicted_delta_scalar_reuses_a_given_delta_extrinsic(prefix, E, pts,
                                                               fns):
    geom = E.geometry(pts, 5)
    phi = dfm.normal_field(geom, *fns)
    lam = dfm.delta_extrinsic(geom, phi)
    for name in INVARIANT_NAMES:
        np.testing.assert_array_equal(
            dfm.predicted_delta_scalar(geom, phi, name, lam),
            dfm.predicted_delta_scalar(geom, phi, name), err_msg=name)
