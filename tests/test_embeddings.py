import inspect
from functools import cached_property

import numpy as np
import pytest

from branelab import backgrounds
from branelab import cli
from branelab import deformation as dfm
from branelab import embeddings as emb
from branelab import jets
from branelab import models as mdl
from branelab import strings_gb as sgb
from branelab import symplectic as sym
from branelab.backgrounds import BackgroundMetric
from branelab.errors import (
    BranelabError,
    DegenerateGeometryError,
    DomainError,
    ParameterError,
    PreconditionError,
)
from conftest import dense


def geom_of(e, params, order=3):
    return e.geometry(params, order)


def small_grid(e, shape):
    return emb.make_grid(e, shape)


LEGS = [a + b + c + e for a in "tn" for b in "tn" for c in "tn" for e in "tn"]


def combined_frame(g, order):
    """Tangent rows then normal rows, stacked: (A, mu), at order
    min(``order``, the tangents' order)."""
    e, n = g.tangents, g.normal_frame(order)
    return jets.jet_stack([e[a] for a in range(g.dim)]
                          + [n[i] for i in range(g.codim)])


def leg_slices(g, legs):
    """The slots of ``legs`` on the combined frame's (A, B, C, E) axes."""
    cut = {"t": slice(None, g.dim), "n": slice(g.dim, None)}
    return tuple(cut[leg] for leg in legs)


def frame_orthonormality_residual(g):
    F = combined_frame(g, g.order)
    gf = jets.jet_einsum("mn...,Bn...->Bm...", g.ambient_metric(g.order), F)
    gram = jets.jet_einsum("Am...,Bm...->AB...", F, gf).value
    d, D = g.dim, g.ambient_dim
    target = np.zeros_like(np.asarray(gram))
    gamma = np.asarray(g.induced_metric(g.order).value)
    target[:d, :d] = gamma
    for i in range(d, D):
        target[i, i] = 1.0
    return np.max(np.abs(np.asarray(gram) - target))


def test_plane_is_flat():
    e = emb.plane()
    grid = small_grid(e, (4, 4))
    g = geom_of(e, grid.mesh, order=3)
    np.testing.assert_allclose(np.asarray(g.extrinsic_curvature.value), 0.0,
                               atol=1e-14)
    np.testing.assert_allclose(
        np.asarray(g.induced_metric(g.order).value)[0, 0], 1.0)
    np.testing.assert_allclose(np.asarray(g.intrinsic_scalar_curvature.value), 0.0,
                               atol=1e-12)


def test_sphere_curvature_values():
    r = 1.7
    e = emb.sphere_polar(r)
    grid = small_grid(e, (6, 8))
    g = geom_of(e, grid.mesh, order=3)
    # K_ab = gamma_ab / r with the outward normal
    K = np.asarray(g.extrinsic_curvature.value)[..., 0, :, :]
    gamma = np.asarray(g.induced_metric(g.order).value)
    np.testing.assert_allclose(K, gamma / r, atol=1e-10)
    mean = np.asarray(g.mean_curvature.value)[0]
    np.testing.assert_allclose(mean, 2.0 / r, atol=1e-10)
    # intrinsic scalar curvature 2/r^2
    np.testing.assert_allclose(np.asarray(g.intrinsic_scalar_curvature.value),
                               2.0 / r**2, atol=1e-9)


def test_sphere_outward_normal():
    e = emb.sphere_polar(1.0)
    g = geom_of(e, [np.pi / 2, 0.0], order=2)
    n = np.asarray(g.normals.value)[0]
    np.testing.assert_allclose(n, [1.0, 0.0, 0.0], atol=1e-12)


def test_cylinder_mean_curvature():
    r = 0.8
    e = emb.cylinder(r)
    grid = small_grid(e, (8, 4))
    g = geom_of(e, grid.mesh, order=3)
    mean = np.asarray(g.mean_curvature.value)[0]
    np.testing.assert_allclose(mean, 1.0 / r, atol=1e-10)
    np.testing.assert_allclose(np.asarray(g.k_dot_k_scalar.value), 1.0 / r**2,
                               atol=1e-10)


def test_frame_orthonormal_many_embeddings():
    cases = [
        (emb.sphere_polar(1.3), (5, 6)),
        (emb.cylinder(0.9), (6, 4)),
        (emb.torus_e3(2.0, 0.5), (5, 5)),
        (emb.flat_torus_e4(1.0, 1.2), (5, 5)),
        (emb.bumpy_torus_e4(1.0, 1.1, 0.3), (5, 5)),
        (emb.graph_surface_e4(), (4, 4)),
        (emb.static_string(1.0), (4, 6)),
        (emb.traveling_wave(0.3), (4, 6)),
        (emb.s3_curve(), (7,)),
        (emb.s2_latitude(0.8), (7,)),
    ]
    for e, shape in cases:
        grid = small_grid(e, shape)
        g = geom_of(e, grid.mesh, order=3)
        res = frame_orthonormality_residual(g)
        assert res < 1e-10, f"{e.name}: frame residual {res}"


def test_extrinsic_curvature_symmetric():
    for e, shape in [
        (emb.torus_e3(), (5, 5)),
        (emb.graph_surface_e4(), (4, 4)),
        (emb.traveling_wave(0.4), (4, 6)),
    ]:
        grid = small_grid(e, shape)
        g = geom_of(e, grid.mesh, order=3)
        K = np.asarray(g.extrinsic_curvature.value)
        np.testing.assert_allclose(K, np.swapaxes(K, 0, 1), atol=1e-8)


def test_twist_antisymmetric():
    e = emb.graph_surface_e4()
    grid = small_grid(e, (4, 4))
    g = geom_of(e, grid.mesh, order=3)
    w = np.asarray(g.twist(0).value)
    np.testing.assert_allclose(w, -np.swapaxes(w, 1, 2), atol=1e-10)
    assert np.max(np.abs(w)) > 1e-3  # genuinely twisted frame


def test_codazzi_residual_flat_background():
    for e, shape, order in [
        (emb.graph_surface_e4(), (4, 4), 4),
        (emb.torus_e3(), (5, 5), 4),
        (emb.traveling_wave(0.3), (4, 6), 4),
    ]:
        grid = small_grid(e, shape)
        g = geom_of(e, grid.mesh, order=order)
        res = np.asarray(g.codazzi_residual().value)
        assert np.max(np.abs(res)) < 1e-8, e.name


def test_codazzi_residual_curved_background():
    g = emb.s3_curve().geometry([np.linspace(0, 2 * np.pi, 9, endpoint=False)], 4)
    res = np.asarray(g.codazzi_residual().value)
    assert np.max(np.abs(res)) < 1e-8


def test_codazzi_residual_product_background():
    # on S^2 x S^2 the curvature projection in the identity is nonzero,
    # so this checks the full statement, not just the symmetric part
    g = emb.surface_s2xs2().geometry([0.2, -0.3], order=4)
    rproj = np.asarray(g.rblock("nttt", 1).value)
    assert np.max(np.abs(rproj)) > 1e-3
    res = np.asarray(g.codazzi_residual().value)
    assert np.max(np.abs(res)) < 1e-10


def test_metric_compatibility():
    e = emb.bumpy_torus_e4()
    grid = small_grid(e, (5, 5))
    g = geom_of(e, grid.mesh, order=4)
    res = np.asarray(g.covariant_grad(g.induced_metric(g.order), 2, 0).value)
    assert np.max(np.abs(res)) < 1e-10


def test_static_string_induced_metric():
    e = emb.static_string(1.0)
    grid = small_grid(e, (4, 8))
    g = geom_of(e, grid.mesh, order=3)
    gamma = np.asarray(g.induced_metric(g.order).value)
    np.testing.assert_allclose(gamma[0, 0], -1.0, atol=1e-12)
    np.testing.assert_allclose(gamma[0, 1], 0.0, atol=1e-12)
    np.testing.assert_allclose(gamma[1, 1], 1.0, atol=1e-12)
    np.testing.assert_allclose(np.asarray(g.metric_sign), -1.0)


def test_traveling_wave_det_is_minus_one():
    e = emb.traveling_wave(0.45)
    grid = small_grid(e, (5, 9))
    g = geom_of(e, grid.mesh, order=3)
    det = np.asarray(g.det_induced_metric(0).value)
    np.testing.assert_allclose(det, -1.0, atol=1e-12)


def test_normal_rotation_shifts_twist(rotated_normals_copy):
    e = emb.graph_surface_e4()
    grid = small_grid(e, (4, 4))
    g = geom_of(e, grid.mesh, order=3)
    theta = 0.3 * g.params[0] + 0.7 * g.params[1] * g.params[1]
    g2 = rotated_normals_copy(g, theta)
    w1 = np.asarray(g.twist(0).value)
    w2 = np.asarray(g2.twist(0).value)
    dtheta = np.stack([np.asarray(theta.partial(a).value)
                       * np.ones(g.grid_shape) for a in range(2)])
    # rotating (n0, n1) by theta shifts w_a^{01} by +d_a theta
    np.testing.assert_allclose(w2[:, 0, 1], w1[:, 0, 1] + dtheta, atol=1e-10)


def test_rotation_preserves_gauge_invariants(rotated_normals_copy):
    e = emb.graph_surface_e4()
    grid = small_grid(e, (3, 3))
    g = geom_of(e, grid.mesh, order=4)
    theta = 0.4 * g.params[0] - 0.2 * g.params[1]
    g2 = rotated_normals_copy(g, theta)
    np.testing.assert_allclose(np.asarray(g.k_dot_k_scalar.value),
                               np.asarray(g2.k_dot_k_scalar.value), atol=1e-10)
    np.testing.assert_allclose(np.asarray(g.gradk_squared_scalar.value),
                               np.asarray(g2.gradk_squared_scalar.value),
                               atol=1e-9)


def test_sphere_area_quadrature():
    e = emb.sphere_polar(1.0)
    grid = emb.make_grid(e, (128, 128))
    g = e.geometry(grid.mesh, 1)
    area = emb.integrate(np.asarray(g.sqrt_abs_det(0).value), grid)
    assert abs(area - 4 * np.pi) / (4 * np.pi) < 1e-12


def test_line_grid_slices():
    e = emb.static_string(1.0)
    lg = emb.line_grid(e, axis=1, n=16, fixed={"tau": 0.7})
    assert lg.mesh[0].shape == (16,)
    np.testing.assert_allclose(lg.mesh[0], 0.7)
    total = emb.integrate(np.ones(16), lg)
    np.testing.assert_allclose(total, 2 * np.pi)


# -- the quadrature rule: Gauss-Legendre on bounded axes, uniform on periodic

def _interval(lo, hi):
    return emb.Embedding(name="interval", background=emb.euclidean(2),
                         axes=(emb.ParamAxis("u", lo, hi),),
                         map_fn=lambda u: (u, 0.0 * u))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_bounded_axis_integrates_polynomials_to_degree_2n_minus_1(n):
    lo, hi = -0.4, 1.7
    grid = emb.make_grid(_interval(lo, hi), n)
    u = grid.mesh[0]

    def error(k):
        exact = (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
        return abs(emb.integrate(u ** k, grid) - exact) / abs(exact)

    assert max(error(k) for k in range(2 * n)) < 1e-13
    assert error(2 * n) > 1e-9  # the rule is Gauss, of degree exactly 2n-1


def test_two_axis_weight_is_the_outer_product_of_the_axis_rules():
    E = emb.sphere_polar(1.0)  # Gauss in theta, uniform in phi
    grid = emb.make_grid(E, (5, 7))
    w_theta = np.polynomial.legendre.leggauss(5)[1] * (np.pi / 2)
    np.testing.assert_array_equal(grid.weight,
                                  np.multiply.outer(w_theta,
                                                    np.full(7, 2 * np.pi / 7)))
    grid = emb.make_grid(E, (12, 7))
    theta, phi = grid.mesh
    total = emb.integrate(np.sin(theta) * (1 + np.cos(phi) ** 2), grid)
    assert abs(total - 6 * np.pi) < 1e-12


def test_gauss_legendre_rule_is_computed_once_per_n_and_read_only():
    E = emb.sphere_polar(1.0)  # Gauss in theta
    emb._leggauss.cache_clear()
    first, second = emb.make_grid(E, 17), emb.make_grid(E, 17)
    info = emb._leggauss.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    for a, b in zip(first.mesh + (first.weight,),
                    second.mesh + (second.weight,)):
        assert a is not b
        np.testing.assert_array_equal(a, b)
    for arr in emb._leggauss(17):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("n", [1, 2, 7, 64, 1023, cli.MAX_GRID])
def test_bounded_nodes_lie_inside_and_weights_sum_to_the_length(n):
    lo, hi = 0.0, np.pi  # the polar chart's theta: poles stay off the grid
    grid = emb.make_grid(_interval(lo, hi), n)
    u = grid.mesh[0]
    assert lo < u.min() and u.max() < hi
    assert np.all(np.diff(u) > 0)
    assert abs(grid.weight.sum() - (hi - lo)) < 1e-13


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (24, 24), (7, 64)])
def test_periodic_nodes_and_weights_match_the_uniform_rule_bit_for_bit(shape):
    E = emb.torus_e3()
    grid = emb.make_grid(E, shape)
    pts, h = [], []
    for ax, n in zip(E.axes, shape):  # the rule as written before
        h.append((ax.hi - ax.lo) / n)
        pts.append(ax.lo + h[-1] * np.arange(n))
    for got, want in zip(grid.mesh, np.meshgrid(*pts, indexing="ij")):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(grid.weight, np.ones(shape) * h[0] * h[1])


def test_line_grid_on_a_bounded_axis_uses_gauss_weights():
    E = emb.static_string(1.0)
    lg = emb.line_grid(E, axis=0, n=6, fixed={"sigma": 0.3})
    x, w = np.polynomial.legendre.leggauss(6)
    np.testing.assert_array_equal(lg.mesh[0], 1.25 + 1.25 * x)
    np.testing.assert_array_equal(lg.weight, 1.25 * w)
    np.testing.assert_array_equal(lg.mesh[1], 0.3)
    assert lg.axes == E.axes


@pytest.mark.parametrize("value", [np.nan, np.inf, "x"])
def test_line_grid_rejects_a_fixed_value_that_is_not_finite(value):
    E = emb.static_string(1.0)
    with pytest.raises(ParameterError, match="sigma"):
        emb.line_grid(E, axis=0, n=5, fixed={"sigma": value})


@pytest.mark.parametrize("order", [2.5, "3", -1, None])
def test_geometry_rejects_an_order_that_is_not_a_whole_number(order):
    E = emb.sphere_polar(1.0)
    with pytest.raises(ParameterError, match="order"):
        E.geometry(emb.make_grid(E, 4).mesh, order)


def test_grid_geometry_rejects_a_grid_of_another_chart():
    sphere, string = emb.sphere_polar(1.0), emb.static_string(1.0)
    with pytest.raises(ParameterError, match="theta"):
        sphere.grid_geometry(emb.make_grid(string, 4), 2)
    # a grid of the same chart serves any embedding on it
    ellipsoid = emb.ellipsoid(1.0, 1.2, 0.8)
    g = ellipsoid.grid_geometry(emb.make_grid(sphere, 4), 1)
    assert g.grid_shape == (4, 4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", cli.EMBEDDINGS)
def test_non_finite_chart_parameters_are_rejected(name, bad):
    # a periodic axis has no range to fail, and NaN fails no comparison
    E = cli.EMBEDDINGS[name][0]()
    mid = [np.array([0.5 * (ax.lo + ax.hi)]) for ax in E.axes]
    for k in range(E.dim):
        params = mid[:k] + [np.array([bad])] + mid[k + 1:]
        with pytest.raises(DomainError, match="finite"):
            E.geometry(params, 2)


NUMBER_TAKERS = {**cli.MODELS, **cli.EMBEDDINGS}


@pytest.mark.parametrize("bad", ["1.5", b"1.5", True, np.bool_(True)],
                         ids=["str", "bytes", "bool", "numpy-bool"])
@pytest.mark.parametrize("name", NUMBER_TAKERS)
def test_strings_and_bools_are_not_numbers(name, bad):
    # float() would take each of them: "1.5" -> 1.5, True -> 1.0
    make, keys = NUMBER_TAKERS[name]
    defaults = inspect.signature(make).parameters
    for key in keys:
        with pytest.raises(ParameterError, match="numbers"):
            make(**{key: bad})
        # numpy floats and ints are numbers
        value = defaults[key].default
        make(**{key: np.float64(value)})
        if float(value).is_integer():
            make(**{key: int(value)})


def test_domain_and_rank_validation():
    e = emb.sphere_polar(1.0)
    with pytest.raises(DomainError):
        e.geometry([3.5, 0.0], 2)  # theta beyond the chart
    with pytest.raises(ParameterError):
        e.geometry([0.5], 2)
    with pytest.raises(DegenerateGeometryError):
        # null worldline: tangent (1,1,0) in minkowski, no spacelike complement
        bad = emb.Embedding(
            name="null-line",
            background=emb.minkowski(3),
            axes=(emb.ParamAxis("t", 0.0, 1.0),),
            map_fn=lambda t: (t, t, 0.0 * t),
        )
        bad.geometry([0.3], 2).normals
    # the intrinsic connection and curvature read the checked inverse
    null = bad.geometry([0.3], 3)
    for read in (lambda: null.wv_christoffel(1),
                 lambda: null.intrinsic_riemann):
        with pytest.raises(DegenerateGeometryError):
            read()


@pytest.mark.parametrize("naxes", [0, 4])
def test_embedding_needs_one_to_three_axes(naxes):
    axes = tuple(emb.ParamAxis(f"u{a}", 0.0, 1.0) for a in range(naxes))
    with pytest.raises(ParameterError, match="1 to 3 axes"):
        emb.Embedding(name="bad", background=emb.euclidean(5), axes=axes,
                      map_fn=lambda *us: us)


def test_map_with_the_wrong_component_count_is_rejected():
    short = emb.Embedding(name="short", background=emb.euclidean(3),
                          axes=(emb.ParamAxis("u", 0.0, 1.0),
                                emb.ParamAxis("v", 0.0, 1.0)),
                          map_fn=lambda u, v: (u, v))
    with pytest.raises(PreconditionError,
                       match="map returned 2 components, background has "
                             "dimension 3"):
        short.geometry([0.3, 0.4], 2)


def test_line_grid_needs_every_other_axis_fixed():
    with pytest.raises(ParameterError, match="missing fixed value for phi"):
        emb.line_grid(emb.sphere_polar(), 0, 8, {})


def test_twist_rejects_a_negative_order():
    g = emb.torus_e3().geometry([0.3, 0.4], 3)
    with pytest.raises(PreconditionError, match="twist needs an order >= 0"):
        g.twist(-1)


def test_singular_metric_names_grid_indices():
    pinched = emb.Embedding(
        name="pinched",
        background=emb.euclidean(3),
        axes=(emb.ParamAxis("u", -1.0, 1.0), emb.ParamAxis("v", -1.0, 1.0)),
        map_fn=lambda u, v: (u * u * u, v, 0.0 * u),
    )
    geom = pinched.geometry(emb.make_grid(pinched, (5, 4)).mesh, 2)
    with pytest.raises(DegenerateGeometryError, match=r"grid indices \[\[2, 0\]"):
        geom.inverse_induced_metric(geom.order)


def test_rframe_constant_curvature_form():
    g = emb.s3_curve(radius=1.4).geometry(
        [np.linspace(0, 2 * np.pi, 5, endpoint=False)], 2
    )
    # projected on an orthonormal-ish frame: R_ABCE = (h_AC h_BE - h_AE h_BC)/r^2
    F = combined_frame(g, 1)
    gf = jets.jet_einsum("mn...,Bn...->Bm...", g.ambient_metric(g.order), F)
    h = np.asarray(jets.jet_einsum("Am...,Bm...->AB...", F, gf).value)
    expect = (np.einsum("AC...,BE...->ABCE...", h, h)
              - np.einsum("AE...,BC...->ABCE...", h, h)) / 1.4**2
    for legs in LEGS:
        np.testing.assert_allclose(g.rblock(legs, 1).value,
                                   expect[leg_slices(g, legs)], atol=1e-9)


def test_low_order_geometry_names_missing_order():
    E = emb.sphere_polar(1.0)
    g = E.geometry(small_grid(E, (6, 8)).mesh, 2)
    with pytest.raises(PreconditionError, match="order-0 jet.*higher jet order"):
        g.grad_extrinsic


@pytest.mark.parametrize("E", [emb.surface_s2xs2(), emb.graph_surface_e4(),
                               emb.static_string()],
                         ids=["s2xs2", "graph4", "string"])
def test_combined_frame_positively_oriented_in_codim_2(E):
    g = E.geometry(small_grid(E, (7, 9)).mesh, 2)
    assert g.codim == 2
    F = np.asarray(combined_frame(g, 0).value)      # (A, mu, grid...)
    det = np.linalg.det(np.moveaxis(F, (0, 1), (-1, -2)))
    assert det.shape == (7, 9)
    assert np.all(det > 0)


def test_rblock_slices_tangent_and_normal_slots():
    g = emb.surface_s2xs2().geometry(small_grid(emb.surface_s2xs2(), (3, 4)).mesh, 2)
    full = full_order_rframe(g).truncated(1)
    for legs in ("nttn", "tnnn"):
        np.testing.assert_array_equal(g.rblock(legs, 1).value,
                                      full.value[leg_slices(g, legs)])
    for legs in ("ntt", "nttx"):
        with pytest.raises(ParameterError, match="legs"):
            g.rblock(legs, 1)


JACOBI_CASES = [(emb.torus_e3(), (3, 4)), (emb.surface_s2xs2(), (3, 4)),
                (emb.s3_curve(), (5,))]
JACOBI_IDS = ["torus", "s2xs2", "s3curve"]


@pytest.mark.parametrize("E,shape", JACOBI_CASES, ids=JACOBI_IDS)
def test_jacobi_is_k_k_plus_the_normal_tangent_curvature_block(E, shape):
    # J[b, c, i, j] = K_bd^i K^d_c_j + R(n_j, e_b, e_c, n^i), entry by
    # entry through jet products and sums, not through an einsum spec
    g = E.geometry(small_grid(E, shape).mesh, 4)
    K, Kmix = g.extrinsic_curvature, g.k_mixed(g.order)
    for m in (0, 1):
        J, R = g.jacobi(m), g.rblock("nttn", m)
        assert J.order == m
        for b, c, i, j in np.ndindex(g.dim, g.dim, g.codim, g.codim):
            want = R[j, b, c, i]
            for d in range(g.dim):
                want = want + K[b, d, i] * Kmix[d, c, j]
            got = J[b, c, i, j]
            assert got.order == want.order == m
            assert_coeffs_close(got, want, len(want.c))
    assert g.jacobi(5).order == 1            # the curvature's cap
    low = E.geometry(small_grid(E, shape).mesh, 2)
    assert low.jacobi(1).order == 0          # K's order


@pytest.mark.parametrize("make", [
    pytest.param(lambda E=E, s=s: E.geometry(small_grid(E, s).mesh, 4), id=name)
    for (E, s), name in zip(JACOBI_CASES, JACOBI_IDS)
] + [pytest.param(lambda: _varied_s2xs2(), id="varied-s2xs2")])
def test_jacobi_at_order_0_is_the_prefix_of_order_1(make):
    # on fresh geometries, and on one geometry that builds order 0 first
    one = make().jacobi(1)
    assert one.order == 1
    assert_jets_identical(make().jacobi(0), one.truncated(0))
    g = make()
    zero = g.jacobi(0)
    assert_jets_identical(g.jacobi(1), one)
    assert_jets_identical(zero, one.truncated(0))


def test_lower_undoes_raised_extrinsic_curvature():
    E = emb.ellipsoid()
    g = E.geometry(small_grid(E, (5, 6)).mesh, 3)
    K = np.asarray(g.extrinsic_curvature.value)
    gam = np.asarray(g.induced_metric(g.order).value)
    low2 = np.einsum("ac...,bd...,cdi...->abi...", gam, gam,
                     np.asarray(g.k_raised(0).value))
    low1 = np.einsum("ac...,cbi...->abi...", gam, np.asarray(g.k_mixed(0).value))
    np.testing.assert_allclose(low2, K, atol=1e-13)
    np.testing.assert_allclose(low1, K, atol=1e-13)
    mean = np.einsum("aai...->i...", np.asarray(g.k_mixed(0).value))
    np.testing.assert_allclose(mean, g.mean_curvature.value, atol=1e-13)


def reference_divergence(g, T, n_up, n_nor):
    """grad_a T^{a...} the long way: lower every worldvolume slot with
    gamma_ab, take the full covariant gradient, trace the new index with
    the first slot through gamma^{ab}, and raise the other slots again."""
    idx = "abcdefgh"[:n_up + n_nor]
    gam, gi = g.induced_metric(g.order), g.inverse_induced_metric(g.order)
    for p in range(n_up):
        spec = f"{idx[p]}z...,{idx[:p]}z{idx[p + 1:]}...->{idx}..."
        T = jets.jet_einsum(spec, gam, T)
    grad = g.covariant_grad(T, n_up, n_nor)
    rest = idx[1:]
    out = jets.jet_einsum(f"ya...,y{idx}...->{rest}...", gi, grad)
    for p in range(n_up - 1):
        spec = f"{rest[p]}z...,{rest[:p]}z{rest[p + 1:]}...->{rest}..."
        out = jets.jet_einsum(spec, gi, out)
    return out


def upper_test_tensors(g):
    """One upper-index tensor per (n_up, n_nor), built from g's own jets
    and with no symmetry between its worldvolume slots."""
    gi = g.inverse_induced_metric(g.order)
    u = jets.jet_einsum("ab...,b...->a...", gi,
                        g.partials(g.k_squared_scalar))
    G, Kr = g.grad_mean_up, g.k_raised(g.order)
    return {
        (1, 0): u,
        (1, 1): G,
        (2, 1): Kr + jets.jet_einsum("a...,bi...->abi...", u, G),
        (3, 0): jets.jet_einsum("abi...,ci...->abc...", Kr, G),
        (3, 1): jets.jet_einsum("abi...,c...->abci...", Kr, u)
        + jets.jet_einsum("a...,bci...->abci...", u, Kr),
    }


@pytest.mark.parametrize("name", ["s2xs2", "ellipsoid"])
def test_divergence_matches_lowered_gradient_trace(name):
    E = emb.surface_s2xs2() if name == "s2xs2" else emb.ellipsoid()
    g = E.geometry(small_grid(E, (4, 5)).mesh, 5)
    if name == "s2xs2":
        assert g.codim == 2 and not g.background.flat
        assert np.max(np.abs(np.asarray(g.twist(0).value))) > 1e-2
    for (n_up, n_nor), T in upper_test_tensors(g).items():
        got = g.divergence(T, n_up, n_nor)
        ref = reference_divergence(g, T, n_up, n_nor)
        order = min(got.order, ref.order)
        assert order >= 1
        for a, b in zip(got.truncated(order).c, ref.truncated(order).c):
            a, b = np.asarray(a), np.asarray(b)
            assert a.shape == b.shape
            scale = max(np.max(np.abs(b)), 1e-300)
            assert np.max(np.abs(a - b)) <= 1e-12 * scale, (n_up, n_nor)


def loop_normals(g):
    """Reference normal frame built one ambient basis vector at a time."""
    D, grid = g.ambient_dim, g.grid_shape
    e, ginv = g.tangents, g.inverse_induced_metric(g.order)
    normals = []
    for _ in range(g.codim):
        residuals, norms = [], []
        for mu in range(D):
            seed = np.zeros((D,) + (1,) * len(grid))
            seed[mu] = 1.0
            u = jets.Jet.constant(np.broadcast_to(seed, (D,) + grid).copy(),
                                  g.X.nvars, g.X.order)
            t = jets.jet_einsum("mn...,n...->m...",
                                g.ambient_metric(g.order), u)
            t = jets.jet_einsum("am...,m...->a...", e, t)
            proj = jets.jet_einsum("ab...,b...->a...", ginv, t)
            r = u - jets.jet_einsum("a...,am...->m...", proj, e)
            for n_prev in normals:
                r = r - g._dot(n_prev, r) * n_prev
            residuals.append(r)
            norms.append(np.asarray(g._dot(r, r).value, float))
        sel = np.argmax(np.stack(norms), axis=0)
        blended = None
        for mu in range(D):
            mask = (sel == mu).astype(float)
            if mask.any():
                piece = residuals[mu] * mask
                blended = piece if blended is None else blended + piece
        normals.append(blended / g._dot(blended, blended).sqrt())
    return normals


@pytest.mark.parametrize("E, order", [
    pytest.param(emb.torus_e3(), 3, id="torus"),
    pytest.param(emb.graph_surface_e4(), 3, id="graph4"),
    pytest.param(emb.static_string(), 3, id="string"),
    pytest.param(emb.s3_curve(), 3, id="s3curve"),
    pytest.param(emb.surface_s2xs2(), 3, id="s2xs2"),
    pytest.param(emb.graph_surface_e4(), 4, id="graph4-order4"),
    pytest.param(emb.graph_surface_e4(), 6, id="graph4-order6"),
    pytest.param(emb.surface_s2xs2(), 4, id="s2xs2-order4"),
    pytest.param(emb.surface_s2xs2(), 6, id="s2xs2-order6"),
])
def test_batched_normals_equal_basis_vector_loop(E, order):
    g = E.geometry(small_grid(E, (5, 6)[:E.dim]).mesh, order)
    ref = loop_normals(g)
    for i, n in enumerate(ref[:-1]):
        for got, want in zip(dense(g.normals[i]), dense(n)):
            np.testing.assert_array_equal(got, want)
    # the last normal differs from the loop's by the orientation sign only
    sign = np.sign(np.einsum("m...,m...->...", g.normals[-1].value,
                             ref[-1].value))
    for got, want in zip(dense(g.normals[-1]), dense(ref[-1])):
        np.testing.assert_array_equal(got, want * sign)


@pytest.mark.parametrize("order", [3, 4])
@pytest.mark.parametrize("E", [emb.torus_e3(), emb.graph_surface_e4(),
                               emb.s3_curve(), emb.surface_s2xs2()],
                         ids=["torus", "graph4", "s3curve", "s2xs2"])
def test_normals_at_a_lower_order_are_a_prefix(E, order):
    mesh = small_grid(E, (7, 9)[:E.dim]).mesh
    low = E.geometry(mesh, order).normals
    high = E.geometry(mesh, order + 2).normals
    assert len(low.c) < len(high.c)
    for got, want in zip(low.c, high.c):
        np.testing.assert_array_equal(got, want)


def _geometry_maker(E, shape, varied):
    """order -> a fresh geometry of E on a small grid, of jet order
    ``order``; if ``varied``, the varied geometry (eps caps) of one of
    order + 1 along two ambient fields."""
    def make(order):
        g = E.geometry(small_grid(E, shape).mesh, order + varied)
        if not varied:
            return g
        u, v = g.params
        V, W = (jets.jet_stack([0.2 * jets.sin(u + m * v) + 0.1 * (m + k)
                                for m in range(g.ambient_dim)], template=g.X)
                for k in (0, 1))
        return dfm.varied_geometry(g, V, W)
    return make


def _varied_s2xs2():
    return _geometry_maker(emb.surface_s2xs2(), (3, 4), True)(4)


def _catalog_geometry(factory):
    E = factory()
    return E.geometry(small_grid(E, (3, 4)[:E.dim]).mesh, 4)


PREFIX_CASES = [pytest.param(lambda f=f: _catalog_geometry(f), id=name)
                for name, (f, _keys) in cli.EMBEDDINGS.items()]
PREFIX_CASES += [pytest.param(lambda: _catalog_geometry(emb.s2_latitude),
                              id="s2-latitude"),
                 pytest.param(_varied_s2xs2, id="varied-s2xs2")]


@pytest.mark.parametrize("make", PREFIX_CASES)
def test_frame_and_twist_built_low_are_prefixes_of_the_full_build(make):
    # each lower order is built on a fresh geometry, not read as a prefix
    full = make()
    top = full.tangents.order
    frame, twist = full.normal_frame(top), full.twist(top - 1)
    assert (frame.order, twist.order) == (top, top - 1)
    for k in range(top):
        assert_jets_identical(make().normal_frame(k), frame.truncated(k))
        assert_jets_identical(make().twist(k), twist.truncated(k))
    assert make().normal_frame(top + 3).order == top


# the ordered accessors besides the frame and the twist, read at order m
ORDERED = {
    "ambient_metric": lambda g, m: g.ambient_metric(m),
    "induced_metric": lambda g, m: g.induced_metric(m),
    "inverse_induced_metric": lambda g, m: g.inverse_induced_metric(m),
    "det_induced_metric": lambda g, m: g.det_induced_metric(m),
    "sqrt_abs_det": lambda g, m: g.sqrt_abs_det(m),
    "k_mixed": lambda g, m: g.k_mixed(m),
    "k_raised": lambda g, m: g.k_raised(m),
    "wv_christoffel": lambda g, m: g.wv_christoffel(m),
    "jacobi": lambda g, m: g.jacobi(m),
    **{f"rblock[{legs}]": lambda g, m, legs=legs: g.rblock(legs, m)
       for legs in LEGS},
}


def assert_same_bits(got, want):
    """Equal jets: the same order and slots, each present coefficient with
    the same bytes (so the same signs of zero)."""
    assert (got.order, got.eps, len(got.c)) == (want.order, want.eps,
                                                 len(want.c))
    for a, b in zip(got.c, want.c):
        assert (a is None) == (b is None)
        if a is not None:
            a, b = np.asarray(a, float), np.asarray(b, float)
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("make", PREFIX_CASES)
def test_ordered_tensors_built_low_are_prefixes_of_the_full_build(make):
    # each lower order is read on a fresh geometry, which builds every
    # tensor at that order; a request above the cap reads the cap
    full = make()
    want = {name: read(full, full.order + 3) for name, read in ORDERED.items()}
    for m in range(max(w.order for w in want.values())):
        low = make()
        for name, read in ORDERED.items():
            if m < want[name].order:
                assert_same_bits(read(low, m), want[name].truncated(m))
    caps = {name: w.order for name, w in want.items()}
    metric = full.induced_metric(full.order).order
    assert caps["det_induced_metric"] == caps["sqrt_abs_det"] == metric
    assert caps["ambient_metric"] == caps["inverse_induced_metric"] == metric
    assert caps["wv_christoffel"] == metric - 1
    assert caps["k_mixed"] == caps["k_raised"] == full.order - 2
    assert caps["jacobi"] == caps["rblock[nttn]"] == 1


@pytest.mark.parametrize("read", [
    pytest.param(lambda g, m: g.normal_frame(m), id="normal_frame"),
    pytest.param(lambda g, m: g._lowered_normals(m), id="_lowered_normals"),
    pytest.param(lambda g, m: g.twist(m), id="twist"),
] + [pytest.param(read, id=name) for name, read in ORDERED.items()
     if not name.startswith("rblock") or name == "rblock[tnnn]"])
@pytest.mark.parametrize("order", [1.5, 2.0, True, np.float64(1.0), "1",
                                   None, -1])
def test_ordered_accessors_reject_an_order_that_is_not_a_whole_number(read,
                                                                      order):
    g = emb.surface_s2xs2().geometry([0.2, -0.3], 4)
    with pytest.raises(PreconditionError, match=r"needs an order >= 0"):
        read(g, order)


@pytest.mark.parametrize("make", PREFIX_CASES)
def test_metric_family_is_built_once_at_no_less_than_k_order(make):
    # a read below K's order builds at K's order, and a later read up to
    # it is a prefix of that build
    top = make().tangents.order
    names = ("ambient_metric", "induced_metric", "inverse_induced_metric")
    for m in range(top + 1):
        g = make()
        g.inverse_induced_metric(m)
        held = {name: g._held[name] for name in names}
        assert {h.order for h in held.values()} == {max(m, top - 1)}
        for k in range(max(m, top - 1) + 1):
            for name in names:
                assert_same_bits(ORDERED[name](g, k), held[name].truncated(k))
                assert g._held[name] is held[name]


def _spy_rebuilds(monkeypatch):
    """Every (geometry order, name) that `Geometry._at_order` builds again
    on a geometry that already holds it."""
    rebuilt, original = [], emb.Geometry._at_order

    def spied(geom, name, *args):
        held = geom._held.get(name)
        out = original(geom, name, *args)
        if held is not None and geom._held[name] is not held:
            rebuilt.append((geom.order, name))
        return out

    monkeypatch.setattr(emb.Geometry, "_at_order", spied)
    return rebuilt


def _windowed_field(geom):
    u, v = geom.params
    phi = dfm.normal_field(geom, lambda u, v: 0.4 + 0.3 * jets.sin(u),
                           lambda u, v: 0.1 + 0.3 * jets.cos(v))
    win = dfm.poly_window(u) * dfm.poly_window(v)
    return dfm.deformation_vector(geom, win * phi)


def test_no_tensor_is_built_twice_in_an_order_6_action_check(monkeypatch):
    rebuilt = _spy_rebuilds(monkeypatch)
    E = emb.surface_s2xs2()
    mdl.action_variation_check(mdl.SyntheticGradK(beta=0.6), E,
                               small_grid(E, 8), _windowed_field)
    assert rebuilt == []


def test_no_tensor_is_built_twice_in_a_deformation_oracle_run(monkeypatch,
                                                              capsys):
    rebuilt = _spy_rebuilds(monkeypatch)
    assert cli.main(["--scenario", "deformation-oracle"]) == 0
    assert rebuilt == []


def test_no_tensor_is_built_twice_in_a_dnggb_form(monkeypatch):
    rebuilt = _spy_rebuilds(monkeypatch)
    E = emb.static_string(1.0)
    slc = sym.CauchySlice("tau", 0.9, 16)
    fields = [sym.chart_field(lambda t, s: (0.2 * jets.sin(2 * s) * jets.cos(t),
                                            0.0, 0.0, 0.0)),
              sym.chart_field(lambda t, s: (0.0, 0.2 * jets.sin(t) * jets.cos(s),
                                            0.2 * jets.sin(t) * jets.sin(s),
                                            0.0))]
    sgb.dnggb_symplectic_form(E, slc, *fields, sigma0=1.2, sigma1=0.9,
                              theta=cli.gauge_angle)
    assert rebuilt == []
    # the GB form's fluxes and a curvature density read gamma at the
    # tangents' order after the sheet's signature
    sgb.gb_symplectic_form(E, slc, *fields, 0.9, theta=cli.gauge_angle)
    sgb.curvature_density(emb.sphere_polar(1.0), 8)
    assert rebuilt == []


# -- order-on-demand ambient tensors ----------------------------------------

def full_order_rframe(g):
    """Reference: the dense ambient curvature at the map's own jet order,
    projected on the untruncated combined frame, (A, B, C, E)."""
    R = g.background.riemann_tensor([g.X[mu] for mu in range(g.ambient_dim)])
    F = combined_frame(g, g.order)
    R = jets.jet_einsum("abmn...,Aa...->Abmn...", R, F)
    R = jets.jet_einsum("Abmn...,Bb...->ABmn...", R, F)
    R = jets.jet_einsum("ABmn...,Cm...->ABCn...", R, F)
    return jets.jet_einsum("ABCn...,En...->ABCE...", R, F)


def full_order_covariant(g, W):
    """Reference: D_a W^mu with the connection at the map's own jet order;
    W has axes (k, mu)."""
    G = g.background.christoffel_tensor([g.X[mu] for mu in range(g.ambient_dim)])
    Ge = jets.jet_einsum("mrs...,ar...->mas...", G, g.tangents)
    corr = jets.jet_einsum("mas...,ks...->akm...", Ge, W)
    return jets.jet_stack([W.partial(d) for d in range(W.nvars)]) + corr


def assert_coeffs_close(got, want, count, rtol=1e-14):
    """The first ``count`` coefficients agree to ``rtol`` of the largest."""
    assert len(got.c) >= count and len(want.c) >= count
    scale = max(float(np.max(np.abs(c))) for c in want.c[:count])
    for a, b in zip(got.c[:count], want.c[:count]):
        np.testing.assert_allclose(a, b, rtol=rtol, atol=rtol * scale)


ORDER_CASES = [(emb.surface_s2xs2(), (3, 4)), (emb.s3_curve(), (7,)),
               (emb.s2_latitude(), (7,))]


@pytest.mark.parametrize("E,shape", ORDER_CASES,
                         ids=["s2xs2", "s3curve", "s2latitude"])
def test_low_order_ambient_tensors_match_full_order_reference(E, shape):
    g = E.geometry(small_grid(E, shape).mesh, 6)
    full = full_order_rframe(g)
    for legs in LEGS:
        assert g.rblock(legs, 1).order == 1
        # value and first derivatives: all that T05 and delta_extrinsic read
        idx = leg_slices(g, legs)
        assert_coeffs_close(g.rblock(legs, 1),
                            full.map_coeffs(lambda x: x[idx]), 1 + g.dim)
    sf = full_order_covariant(g, g.tangents)
    assert g.second_fundamental.order == sf.order == 4
    assert_coeffs_close(g.second_fundamental, sf, len(sf.c))
    Dn = full_order_covariant(g, g.normals)
    gn = jets.jet_einsum("mn...,in...->im...", g.ambient_metric(g.order),
                         g.normals)
    twist = jets.jet_einsum("ajm...,im...->aij...", Dn, gn)
    assert_coeffs_close(g.twist(g.order - 2), twist, len(twist.c))


def test_ambient_tensors_built_at_the_order_their_consumers_read(monkeypatch):
    orders = {"riemann_tensor": [], "christoffel_tensor": []}
    for name, seen in orders.items():
        original = getattr(BackgroundMetric, name)

        def wrapped(self, coords, original=original, seen=seen):
            seen.append(coords[0].order)
            return original(self, coords)

        monkeypatch.setattr(BackgroundMetric, name, wrapped)
    E = emb.surface_s2xs2()
    g = E.geometry(small_grid(E, (2, 3)).mesh, 6)
    mdl.eom_density(mdl.SyntheticGradK(beta=0.6), g)
    # one build per curved factor of S2 x S2
    assert orders == {"riemann_tensor": [0, 0], "christoffel_tensor": [4, 4]}


def test_inverse_metric_value_independent_of_order():
    # the inverse's value is inv(gamma) itself, not a Newton iterate whose
    # rounding depends on how many steps the jet order asks for
    E = emb.surface_s2xs2()
    mesh = small_grid(E, (3, 4)).mesh
    low, high = E.geometry(mesh, 3), E.geometry(mesh, 4)
    np.testing.assert_array_equal(
        low.inverse_induced_metric(low.order).value,
        high.inverse_induced_metric(high.order).value)
    np.testing.assert_array_equal(low.k_squared_scalar.value,
                                  high.k_squared_scalar.value)


def test_induced_metric_inverted_once(monkeypatch):
    calls = []

    def counted(g):
        calls.append(g)
        return jets.jet_matinv(g)

    monkeypatch.setattr(emb, "jet_matinv", counted)
    g = emb.sphere_polar(1.0).geometry([0.9, 1.2], order=4)
    g.intrinsic_scalar_curvature, g.grad_extrinsic
    assert len(calls) == 1
    E = emb.surface_s2xs2()
    g = E.geometry(small_grid(E, (2, 3)).mesh, 6)
    mdl.eom_density(mdl.SyntheticGradK(beta=0.6), g)
    assert len(calls) == 2


# -- connection terms and rframe at the order of the sum they join -----------

def assert_jets_identical(got, want):
    assert (got.order, len(got.c)) == (want.order, len(want.c))
    for a, b in zip(got.c, want.c):
        np.testing.assert_array_equal(a, b)


ORDER_RULE_CASES = [(emb.surface_s2xs2(), (3, 4)), (emb.torus_e3(), (4, 3))]


@pytest.mark.parametrize("E,shape", ORDER_RULE_CASES, ids=["s2xs2", "torus"])
def test_connection_terms_equal_the_untruncated_formula(E, shape):
    g = E.geometry(small_grid(E, shape).mesh, 5)
    for W in (g.tangents, g.normals):
        assert_jets_identical(g.ambient_covariant(W), full_order_covariant(g, W))
    K, G, w = (g.extrinsic_curvature, g.wv_christoffel(g.order),
               g.twist(g.order - 2))
    want = (g.partials(K)
            - jets.jet_einsum("zya...,zbc...->yabc...", G, K)
            - jets.jet_einsum("zyb...,azc...->yabc...", G, K)
            + jets.jet_einsum("ycz...,abz...->yabc...", w, K))
    assert_jets_identical(g.covariant_grad(K, 2, 1), want)
    T = g.k_raised(g.order)
    want = (T[0].partial(0) + T[1].partial(1)
            + jets.jet_einsum("aaz...,zbc...->bc...", G, T)
            + jets.jet_einsum("baz...,azc...->bc...", G, T)
            + jets.jet_einsum("acz...,abz...->bc...", w, T))
    assert_jets_identical(g.divergence(T, 2, 1), want)


@pytest.mark.parametrize("E,shape,varied", [
    case + (False,) for case in ORDER_RULE_CASES] + [
    (emb.static_string(1.0), (3, 5), True)],
    ids=["s2xs2", "torus", "varied-string"])
def test_chart_components_equal_the_written_out_formula(E, shape, varied):
    g = E.geometry(small_grid(E, shape).mesh, 4)
    u, v = g.params
    W1, W2 = (jets.jet_stack([0.2 * jets.sin(u + m * v) + 0.1 * (m + k)
                              for m in range(g.ambient_dim)], template=g.X)
              for k in (0, 1))
    if varied:
        g = dfm.varied_geometry(g, W2)
        W1, W2 = W1.lift(g.X.nvars), W2.lift(g.X.nvars)
    block = jets.jet_rearrange("km...->mk...", jets.jet_stack([W1, W2]))
    for W, k in ((W1, ""), (block, "k")):
        gW = jets.jet_einsum(f"mn...,n{k}...->m{k}...",
                             g.ambient_metric(g.order), W)
        low = jets.jet_einsum(f"am...,m{k}...->a{k}...", g.tangents, gW)
        want = jets.jet_einsum(f"ab...,b{k}...->a{k}...",
                               g.inverse_induced_metric(g.order), low)
        assert_jets_identical(g.chart_components(W), want)


def _line_times_sphere_surface():
    """A generic surface in E^1 x S^2: the flat factor comes first, so the
    background's one curved block sits at offset 1."""
    bg = backgrounds.product_background(backgrounds.euclidean(1),
                                        backgrounds.round_sphere_background(2))
    return emb.Embedding(
        name="e1xs2-patch", background=bg,
        axes=(emb.ParamAxis("u", -1.0, 1.0), emb.ParamAxis("v", -1.0, 1.0)),
        map_fn=lambda u, v: (0.3 * u + 0.2 * jets.sin(v),
                             1.2 + 0.25 * v + 0.1 * jets.sin(u),
                             0.5 + 0.4 * u + 0.15 * jets.cos(v)))


@pytest.mark.parametrize("E,offsets", [
    (emb.surface_s2xs2(), [0, 2]), (_line_times_sphere_surface(), [1])],
    ids=["s2xs2", "e1xs2"])
def test_per_block_contractions_equal_the_dense_tensors(E, offsets):
    # the reference contracts the dense, block-diagonal connection and
    # curvature of the whole product; per block only exact zeros are skipped
    assert [o for o, _f in E.background.blocks] == offsets
    g = E.geometry(small_grid(E, (3, 4)).mesh, 5)
    for W in (g.tangents, g.normals):
        assert_jets_identical(g.ambient_covariant(W), full_order_covariant(g, W))
    sf = full_order_covariant(g, g.tangents)
    assert_jets_identical(g.second_fundamental, sf.truncated(g.order - 2))
    gn = jets.jet_einsum("mn...,in...->im...", g.ambient_metric(g.order),
                         g.normals)
    twist = jets.jet_einsum("ajm...,im...->aij...",
                            full_order_covariant(g, g.normals), gn)
    assert_jets_identical(g.twist(g.order - 2), twist)
    # the curvature blocks: test_each_rblock_is_its_slice_of_the_dense_rframe


@pytest.mark.parametrize("E", [emb.surface_s2xs2(), _line_times_sphere_surface()],
                         ids=["s2xs2", "e1xs2"])
@pytest.mark.parametrize("order", [0, 1])
def test_each_rblock_is_its_slice_of_the_dense_rframe(E, order):
    # every leg string, built on its own rows of the frame, against the
    # dense tensor's slice: the same sums in the same order, bit for bit
    g = E.geometry(small_grid(E, (3, 4)).mesh, 5)
    dense_ref = full_order_rframe(g).truncated(order)
    size = {"t": g.dim, "n": g.codim}
    for legs in LEGS:
        idx = leg_slices(g, legs)
        got = g.rblock(legs, order)
        assert got.value.shape == tuple(size[x] for x in legs) + g.grid_shape
        assert_same_bits(got, dense_ref.map_coeffs(lambda x: x[idx]))


def test_k_and_twist_share_one_lowering_of_the_normals(monkeypatch):
    specs = []

    def counted(spec, a, b):
        specs.append(spec)
        return jets.jet_einsum(spec, a, b)

    monkeypatch.setattr(emb, "jet_einsum", counted)
    E = emb.surface_s2xs2()
    g = E.geometry(small_grid(E, (2, 3)).mesh, 6)
    mdl.eom_density(mdl.SyntheticGradK(beta=0.6), g)
    assert specs.count("mn...,in...->im...") == 1
    gn = jets.jet_einsum("mn...,in...->im...", g.ambient_metric(g.order),
                         g.normals)
    assert_jets_identical(g.extrinsic_curvature, -1.0 * jets.jet_einsum(
        "abm...,im...->abi...", g.second_fundamental, gn))
    assert_jets_identical(g.twist(g.order - 2), jets.jet_einsum(
        "ajm...,im...->aij...", g.ambient_covariant(g.normals), gn))


def test_flat_background_skips_the_zero_connection_term():
    # the reference is minkowski4 without the flat flag: its closed-form
    # connection is zero, so it takes the connection path
    flat = backgrounds.minkowski(4)
    unflagged = BackgroundMetric(
        name="minkowski4-unflagged", dim=4, metric_fn=flat.metric_fn,
        christoffel_fn=lambda *x: backgrounds._zeros(4, 3),
        riemann_fn=lambda *x: backgrounds._zeros(4, 4))
    E = emb.static_string(1.0)
    g = E.geometry(small_grid(E, (3, 5)).mesh, 4)
    ref = emb.Geometry(unflagged, g.X, g.params, E)
    for W in (g.tangents, g.normals, g.normals[0]):
        assert_jets_identical(g.ambient_covariant(W), ref.ambient_covariant(W))
    assert not any(name.startswith("_christoffel_tangents") for name in g._held)
    assert "_christoffel_tangents[0]" in ref._held


INTRINSIC_CASES = [(emb.sphere_polar(1.0), (4, 5)), (emb.torus_e3(), (4, 3))]


@pytest.mark.parametrize("E,shape", INTRINSIC_CASES, ids=["sphere", "torus"])
def test_intrinsic_curvature_at_order_3_is_the_prefix_of_order_5(E, shape):
    mesh = small_grid(E, shape).mesh
    low, high = E.geometry(mesh, 3), E.geometry(mesh, 5)
    for name in ("intrinsic_riemann", "intrinsic_scalar_curvature"):
        got, want = getattr(low, name), getattr(high, name)
        assert (got.order, want.order) == (0, 2)
        assert_jets_identical(got, want.truncated(0))


@pytest.mark.parametrize("E,shape", INTRINSIC_CASES, ids=["sphere", "torus"])
def test_intrinsic_curvature_contracts_at_the_order_it_keeps(E, shape,
                                                             monkeypatch):
    # every product of riemann_from_metric joins a sum with the metric's
    # second partials, three orders below the map
    orders = []

    def recorded(spec, a, b):
        orders.append(max(a.order, b.order))
        return jets.jet_einsum(spec, a, b)

    monkeypatch.setattr(backgrounds, "jet_einsum", recorded)
    g = E.geometry(small_grid(E, shape).mesh, 5)
    g.induced_metric(g.order), g.inverse_induced_metric(g.order)
    assert g.intrinsic_riemann.order == 2
    assert orders and set(orders) == {2}


@pytest.mark.parametrize("E,shape", ORDER_RULE_CASES, ids=["s2xs2", "torus"])
def test_rframe_at_order_0_is_the_value_of_order_1(E, shape):
    mesh = small_grid(E, shape).mesh
    low, high = E.geometry(mesh, 4), E.geometry(mesh, 4)
    for legs in LEGS:
        r0 = low.rblock(legs, 0)
        assert r0.order == 0 and high.rblock(legs, 1).order == 1
        np.testing.assert_array_equal(r0.value, high.rblock(legs, 1).value)
    for legs in LEGS:
        # a higher request builds again; a lower one reads the prefix
        r0 = low.rblock(legs, 0)
        assert_jets_identical(low.rblock(legs, 1), high.rblock(legs, 1))
        assert_jets_identical(high.rblock(legs, 0), r0)
        assert low.rblock(legs, 5).order == 1


@pytest.mark.parametrize("E,shape", ORDER_RULE_CASES, ids=["s2xs2", "torus"])
@pytest.mark.parametrize("model", [mdl.QuadraticK(0.7), mdl.SyntheticGradK(0.6)],
                         ids=["quadratic-k", "synthetic-gradk"])
def test_eom_density_one_order_up_keeps_the_value(E, shape, model):
    mesh = small_grid(E, shape).mesh
    low = mdl.eom_density(model, E.geometry(mesh, model.jet_order))
    high = mdl.eom_density(model, E.geometry(mesh, model.jet_order + 1))
    assert (low.order, high.order) == (0, 1)
    np.testing.assert_array_equal(high.value, low.value)


def test_eom_density_builds_rframe_once(monkeypatch):
    built = []
    original = BackgroundMetric.riemann_tensor

    def counted(self, coords):
        built.append(coords[0].order)
        return original(self, coords)

    monkeypatch.setattr(BackgroundMetric, "riemann_tensor", counted)
    E = emb.surface_s2xs2()
    g = E.geometry(small_grid(E, (2, 3)).mesh, 7)
    mdl.eom_density(mdl.SyntheticGradK(beta=0.6), g)   # E05 is off; E08, E14
    assert built == [1, 1]                             # once per factor
    mdl.eom_density(mdl.QuadraticK(alpha=0.7), g)      # E05: a prefix
    assert built == [1, 1]


# -- a geometry at a lower order reads its tensors as prefixes ----------------

CACHED = [name for name, attr in vars(emb.Geometry).items()
          if isinstance(attr, cached_property)]
AT_ORDER = ("normal_frame", "_lowered_normals", "twist", "det_induced_metric",
            "sqrt_abs_det", "k_mixed", "k_raised", "wv_christoffel")


def _read(fn):
    try:
        return fn()
    except BranelabError as exc:
        return type(exc)


def _touch(g):
    """The map, its parameters, every cached property and every `_at_order`
    tensor at the geometry's order, by name; a read that raises a package
    error gives its type."""
    out = {"X": g.X, **{f"param{a}": p for a, p in enumerate(g.params)}}
    out.update({name: _read(lambda: getattr(g, name)) for name in CACHED})
    out.update({name: _read(lambda: getattr(g, name)(g.order))
                for name in AT_ORDER})
    out.update({f"rblock[{legs}]": _read(lambda: g.rblock(legs, g.order))
                for legs in LEGS})
    return out


def assert_reads_identical(got, want):
    assert got.keys() == want.keys()
    for name, w in want.items():
        if isinstance(w, jets.Jet):
            assert_jets_identical(got[name], w)
            assert got[name].eps == w.eps, name
        elif isinstance(w, type):
            assert got[name] is w, name
        else:           # grid_shape, metric_sign, _normal_picks
            np.testing.assert_array_equal(got[name], w, err_msg=name)


@pytest.mark.parametrize("E,shape,varied", [
    case + (False,) for case in ORDER_RULE_CASES] + [
    (emb.surface_s2xs2(), (3, 4), True)],
    ids=["s2xs2", "torus", "varied-s2xs2"])
def test_truncated_geometry_equals_a_fresh_build(E, shape, varied):
    make, top = _geometry_maker(E, shape, varied), 5
    full = make(top)
    _touch(full)
    for order in range(top):
        want = _touch(make(order))
        assert_reads_identical(_touch(full.truncated(order)), want)
        # a view of a view, and a view taken before anything is built
        assert_reads_identical(
            _touch(full.truncated(order + 1).truncated(order)), want)
        assert_reads_identical(_touch(make(top).truncated(order)), want)
    for bad in (-1, top + 1):
        with pytest.raises(PreconditionError):
            full.truncated(bad)


# -- parameters and grids at the boundary --------------------------------------

@pytest.mark.parametrize("factory, args", [
    (emb.sphere_polar, (np.inf,)),
    (emb.plane, (np.nan,)),
    (emb.cylinder, (1.0, -np.inf)),
    (emb.torus_e3, (np.inf, 0.5)),
    (emb.graph_surface_e4, (0.3, np.nan)),
    (emb.surface_s2xs2, (np.inf, 1.3)),
    (emb.s3_curve, (1.0, 1.1, 0.2, 0.3, np.nan)),
    (emb.s2_latitude, (np.nan,)),
    (emb.sphere_polar, ("big",)),
    (emb.static_string, (None,)),
], ids=lambda v: getattr(v, "__name__", None))
def test_embedding_factories_reject_non_finite_parameters(factory, args):
    with pytest.raises(ParameterError, match="parameters must be"):
        factory(*args)


@pytest.mark.parametrize("big, small", [(1.0, 2.0), (1.0, 1.0), (2.0, -2.5)])
def test_torus_rejects_a_singular_chart(big, small):
    with pytest.raises(ParameterError, match="singular"):
        emb.torus_e3(big, small)


@pytest.mark.parametrize("amp", [1.5, 1.0, -1.0])
def test_perturbed_sphere_rejects_a_singular_chart(amp):
    with pytest.raises(ParameterError, match="singular"):
        emb.perturbed_sphere(1.0, amp)


def test_grid_builders_raise_parameter_errors():
    E = emb.sphere_polar()
    with pytest.raises(ParameterError, match="grid shape"):
        emb.make_grid(E, 2.5)
    with pytest.raises(ParameterError, match="points per axis"):
        emb.make_grid(E, (4, 2.0))
    with pytest.raises(ParameterError, match="points per axis"):
        emb.make_grid(E, (True, 4))  # a bool is not a node count
    with pytest.raises(ParameterError, match="axis 5"):
        emb.line_grid(E, 5, 3, {})
    with pytest.raises(ParameterError, match="grid shape"):
        emb.integrate(np.zeros((3, 5)), emb.make_grid(E, 4))
    # leading axes are summed over the grid axes they end in
    grid = emb.make_grid(E, (4, 5))
    np.testing.assert_allclose(emb.integrate(np.ones((2, 4, 5)), grid),
                               [2 * np.pi**2] * 2)
