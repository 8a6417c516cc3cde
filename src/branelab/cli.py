"""Command-line scenario runner for the verification suite.

Each scenario wires a small number of library calls into named checks
with pinned tolerances and renders a deterministic plain-text report:
identical configuration gives a byte-identical report body (the trailing
duration line is the only nondeterministic field).

Exit status: 0 when every check passes, 1 when any check fails, 2 for
usage or configuration errors.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import sys
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import conventions
from . import deformation as dfm
from . import embeddings as emb
from . import jets
from . import models as mdl
from . import strings_gb as sgb
from . import symplectic as sym
from .errors import BranelabError


class ConfigError(Exception):
    """Bad scenario configuration; maps to exit status 2."""


# -- registries ----------------------------------------------------------------

EMBEDDINGS = {
    "plane": (emb.plane, ("size",)),
    "sphere": (emb.sphere_polar, ("radius",)),
    "cylinder": (emb.cylinder, ("radius", "height")),
    "ellipsoid": (emb.ellipsoid, ("ax", "ay", "az")),
    "torus": (emb.torus_e3, ("big_radius", "small_radius")),
    "flat-torus": (emb.flat_torus_e4, ("r1", "r2")),
    "bumpy-torus": (emb.bumpy_torus_e4, ("r1", "r2", "amp")),
    "graph-surface": (emb.graph_surface_e4, ("f_amp", "g_amp")),
    "perturbed-sphere": (emb.perturbed_sphere, ("radius", "amp")),
    "static-string": (emb.static_string, ("radius",)),
    "traveling-wave": (emb.traveling_wave, ("amplitude",)),
    "s2xs2": (emb.surface_s2xs2, ("r1", "r2")),
    "s3-curve": (emb.s3_curve, ("chi0", "theta0", "a", "b", "radius")),
}

MODELS = {m.name: (m, tuple(f.name for f in fields(m))) for m in (
    mdl.DNG, mdl.QuadraticK, mdl.EinsteinHilbert, mdl.SyntheticGradK)}

COUPLING_KEYS = ("mu", "alpha", "beta", "sigma0", "sigma1")

EULER_NUMBERS = {
    "sphere": 2.0,
    "perturbed-sphere": 2.0,
    "torus": 0.0,
    "flat-torus": 0.0,
    "bumpy-torus": 0.0,
}


# -- configuration -------------------------------------------------------------

@dataclass(frozen=True)
class Run:
    """One CLI run with every input resolved: what each runner reads."""
    scenario: str
    embedding_id: str
    embedding: emb.Embedding
    model_id: str | None
    model: object            # the built model; None without a [model] id
    grid: int | tuple        # one node count, or one per axis
    grid_line: str           # the `grid:` header: the grid given, or default
    eps: tuple
    tol: float | None        # None: the runner derives one from eps
    seed: int
    trials: int
    slices: tuple            # the CauchySlices it integrates over
    couplings: dict          # the record's defaults under the given ones


@dataclass
class Check:
    name: str
    computed: float
    expected: object
    tol: float
    source: str

    @property
    def passed(self) -> bool:
        if self.expected == "nonzero":
            return abs(self.computed) > self.tol
        return abs(self.computed - float(self.expected)) <= self.tol

    def render(self) -> str:
        exp = self.expected if isinstance(self.expected, str) \
            else repr(float(self.expected))
        flag = "true" if self.passed else "false"
        return (f"check: name={self.name} computed={self.computed!r} "
                f"expected={exp} tol={self.tol!r} source={self.source} "
                f"pass={flag}")


@dataclass
class Report:
    header: list
    notes: list
    checks: list
    duration: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def body(self) -> str:
        lines = [f"{k}: {v}" for k, v in self.header]
        lines += [f"note: {k}={v}" for k, v in self.notes]
        lines += [c.render() for c in self.checks]
        lines.append(f"result: {'pass' if self.passed else 'fail'}")
        return "\n".join(lines) + "\n"

    def render(self) -> str:
        return self.body() + f"duration-s: {self.duration:.3f}\n"


def _conventions_line() -> str:
    return ("signature=-+++ extrinsic-sign=-1 "
            f"twist-curvature={conventions.S_DOMEGA_K:+.0f} "
            f"twist-riemann={conventions.S_DOMEGA_R:+.0f}")


# -- deterministic deformation fields -------------------------------------------

def _zwave(fn):
    return sym.chart_field(
        lambda t, s: (0.0 * t, 0.0 * t, 0.0 * t, fn(t, s)))


WAVE_PAIRS = [
    ("z-waves",
     _zwave(lambda t, s: jets.sin(s) * jets.cos(t)),
     _zwave(lambda t, s: jets.sin(s) * jets.sin(t))),
    ("radial",
     sym.chart_field(lambda t, s: (
         0.0 * t,
         (0.2 + 0.1 * jets.sin(t)) * jets.cos(s),
         (0.2 + 0.1 * jets.sin(t)) * jets.sin(s),
         0.0 * t)),
     sym.chart_field(lambda t, s: (
         0.0 * t,
         (0.3 * jets.cos(t) + 0.1 * jets.sin(2 * s)) * jets.cos(s),
         (0.3 * jets.cos(t) + 0.1 * jets.sin(2 * s)) * jets.sin(s),
         0.0 * t))),
    ("second-harmonic",
     _zwave(lambda t, s: 0.3 * jets.sin(2 * s) * jets.cos(2 * t)),
     _zwave(lambda t, s: jets.sin(s) * jets.cos(t))),
]

LEFT_MOVERS = (
    sym.chart_field(lambda t, s: (0.0 * t, 0.0 * t, 0.2 * jets.cos(s - t))),
    sym.chart_field(lambda t, s: (0.0 * t, 0.0 * t, 0.2 * jets.sin(s - t))),
)

RADIAL_WAVE = sym.chart_field(lambda t, s: (
    0.0 * t,
    (0.2 * jets.cos(t) + 0.1 * jets.sin(2 * s)) * jets.cos(s),
    (0.2 * jets.cos(t) + 0.1 * jets.sin(2 * s)) * jets.sin(s),
    0.0 * t))


def gauge_angle(t, s):
    return 0.4 * jets.sin(s) - 0.2 * jets.cos(t)


def tangential_string_field(geom):
    t, s = geom.params
    comp = jets.jet_stack(
        [0.2 + 0.1 * jets.sin(s), -0.3 + 0.1 * jets.cos(t)],
        template=geom.X)
    return jets.jet_einsum("am...,a...->m...", geom.tangents, comp)


def _windowed_field(geom):
    """Boundary-localized two-sided window times a generic normal field:
    phi n in codimension 1, else the normal part of a smooth ambient field
    (`Geometry.normals` picks its frame point by point, so phi^i n_i
    would jump between nodes)."""
    wins = []
    for k, p in enumerate(geom.params):
        ax = geom.embedding.axes[k]
        if ax.periodic:
            continue
        mid, half = 0.5 * (ax.hi + ax.lo), 0.5 * (ax.hi - ax.lo)
        wins.append(dfm.poly_window((p - mid) * (1.0 / half)))
    fns = [
        lambda *ps: 0.4 + 0.3 * jets.sin(ps[0]) + 0.2 * jets.cos(ps[-1]),
        lambda *ps: 0.1 - 0.2 * jets.sin(ps[-1]) + 0.3 * jets.cos(ps[0]),
    ]
    if geom.codim == 1:
        phi = dfm.normal_field(geom, fns[0])
    else:
        W = jets.jet_stack([fns[mu % 2](*geom.params) for mu in
                            range(geom.ambient_dim)], template=geom.X)
        phi = dfm.normal_components(geom, W)
    for w in wins:
        phi = w * phi
    return dfm.deformation_vector(geom, phi)


# -- scenario runners -----------------------------------------------------------

def _coord_columns(grid, label, values):
    """--dump-fields columns: the grid's coordinates, then ``values``."""
    names = [f"param{k}" for k in range(len(grid.mesh))]
    cols = [np.ravel(m) for m in np.broadcast_arrays(*grid.mesh)] \
        if len(grid.mesh) > 1 else [np.ravel(grid.mesh[0])]
    return names + [label], cols + [np.ravel(values)]


def run_eom_check(run):
    grid = emb.make_grid(run.embedding, run.grid)
    res = mdl.eom_residual(run.model, run.embedding, grid)
    checks = [Check("field-equation-residual", float(np.max(np.abs(res))),
                    0.0, run.tol, "extremal-surface")]
    norm = np.sqrt(np.einsum("i...,i...->...", res, res))
    return checks, [("model", run.model.name)], \
        _coord_columns(grid, "residual-norm", norm)


def run_deformation_oracle(run):
    """One random interior chart point and one random normal field per
    trial, batched along a single point axis.  Non-periodic axes are
    sampled away from their ends, where chart degeneracy (poles) makes the
    finite-difference side ill-conditioned; the formulas themselves are
    pointwise."""
    E = run.embedding
    rng = np.random.default_rng(run.seed)
    pts = []
    for ax in E.axes:
        span = ax.hi - ax.lo
        lo = ax.lo if ax.periodic else ax.lo + 0.12 * span
        hi = ax.hi if ax.periodic else ax.hi - 0.12 * span
        pts.append(rng.uniform(lo, hi, run.trials))
    coefs = rng.uniform(-0.6, 0.6, size=(E.codim, 4, run.trials))

    def maker(row):
        a, b, c, d = row

        def fn(*ps):
            out = a + b * jets.sin(ps[0] + c)
            if len(ps) > 1:
                out = out + d * jets.cos(ps[1] - c)
            return out
        return fn

    tol = dfm.eps_tolerance(run.eps, 1e-6) if run.tol is None else run.tol
    # one order-4 geometry serves all three invariants (a lower jet order
    # is a bit-identical prefix): its varied geometries are order 3, grad
    # K's value needs exactly that, and one sweep differences them
    names = ("k_squared", "k_dot_k", "gradk_full")
    geom = E.geometry(pts, 4)
    phi = dfm.normal_field(geom, *[maker(row) for row in coefs])
    got = dfm.finite_difference_delta(
        geom, dfm.deformation_vector(geom, phi),
        lambda g2: np.stack([np.asarray(dfm.scalar_invariant(g2, n).value,
                                        float) for n in names]),
        run.eps)
    checks, gaps = [], []
    lam = dfm.delta_extrinsic(geom, phi)
    for name, est, ratio in zip(names, got.estimate,
                                got.convergence_ratio()):
        pred = dfm.predicted_delta_scalar(geom, phi, name, lam)
        gaps.append(np.abs(est - pred))
        checks.append(Check(f"{name}-max-gap", float(np.max(gaps[-1])), 0.0,
                            tol, "chain-rule-oracle"))
        checks.append(Check(f"{name}-convergence", float(np.nanmedian(ratio)),
                            4.0, 2.0, "difference-ratio"))
    cols = [f"param{k}" for k in range(E.dim)] + [f"{n}-gap" for n in names]
    return checks, [("trials", run.trials), ("seed", run.seed)], \
        (cols, pts + gaps)


def run_action_variation(run):
    grid = emb.make_grid(run.embedding, run.grid)
    rep = mdl.action_variation_check(run.model, run.embedding, grid,
                                     _windowed_field, eps_list=run.eps)
    checks = [Check("first-variation-gap", float(rep.gap), 0.0,
                    rep.tolerance() if run.tol is None else run.tol,
                    "finite-difference-oracle")]
    notes = [("model", run.model.name),
             ("numeric", repr(float(rep.numeric))),
             ("assembled", repr(float(rep.assembled)))]
    return checks, notes, _coord_columns(grid, "variation-density",
                                         rep.integrand)


def run_gauss_bonnet(run):
    dens, grid = sgb.curvature_density(run.embedding, run.grid)
    chi = float(emb.integrate(dens, grid)) / (4 * np.pi)
    checks = [Check("euler-characteristic", chi,
                    EULER_NUMBERS[run.embedding_id], run.tol, "topological")]
    return checks, [("nodes", run.grid)], \
        _coord_columns(grid, "curvature-density", dens)


def run_symplectic_conservation(run):
    string = run.embedding_id == "static-string"
    f1, f2 = WAVE_PAIRS[0][1:] if string else LEFT_MOVERS
    currents = [sym.slice_current(run.model, run.embedding, slc, f1, f2)
                for slc in run.slices]
    vals = [float(emb.integrate(J, grid)) for J, grid in currents]
    checks = [Check("slice-independence", max(vals) - min(vals), 0.0, run.tol,
                    "conserved-current")]
    if string and isinstance(run.model, mdl.DNG):
        checks.append(Check("wave-pair-form", vals[0], run.model.mu * np.pi,
                            run.tol, "separable-wave-closed-form"))
    notes = [("model", run.model.name),
             ("slices", ",".join(repr(slc.value) for slc in run.slices))]
    J, grid = currents[0]
    return checks, notes, _coord_columns(grid, "current-density", J)


def run_canonical_darboux(run):
    E, sigma0 = run.embedding, run.couplings["sigma0"]
    model = mdl.DNG(mu=sigma0)
    slc, = run.slices
    checks = []
    currents = [sym.slice_current(model, E, slc, f1, f2)
                for _label, f1, f2 in WAVE_PAIRS]
    for (label, f1, f2), (J, grid) in zip(WAVE_PAIRS, currents):
        w = float(emb.integrate(J, grid))
        p = sym.dng_canonical_pairing(E, slc, f1, f2, sigma0)
        checks.append(Check(f"pairing-match-{label}", w - p, 0.0, run.tol,
                            "position-momentum-pairing"))
    w_tan = sym.symplectic_form(model, E, slc, tangential_string_field,
                                WAVE_PAIRS[0][1])
    checks.append(Check("tangential-drop-out", w_tan, 0.0, run.tol,
                        "reparameterization"))
    J, grid = currents[0]
    return checks, [("sigma0", repr(sigma0))], \
        _coord_columns(grid, "current-density", J)


def run_gb_gauge_invariance(run):
    sigma1, tol = run.couplings["sigma1"], run.tol
    grid = emb.make_grid(run.embedding, run.grid)
    geom = run.embedding.geometry(grid.mesh, 3)  # rho at order 1, varied once
    dr = sgb.rotation_connection_delta(geom, RADIAL_WAVE)
    psi = sgb.gb_potential(geom, None, dr, sigma1)
    dr_g = sgb.rotation_connection_delta(geom, RADIAL_WAVE,
                                         theta=gauge_angle)
    psi_g = sgb.gb_potential(geom, gauge_angle, dr_g, sigma1)
    checks = [
        Check("connection-response-shift", float(np.max(np.abs(dr - dr_g))),
              0.0, tol, "fixed-angle-cancellation"),
        Check("flux-shift", float(np.max(np.abs(psi - psi_g))), 0.0, tol,
              "fixed-angle-cancellation"),
        Check("flux-magnitude", float(np.max(np.abs(psi))), "nonzero",
              1e-2, "curvature-response"),
    ]
    shift = np.sqrt(np.einsum("m...,m...->...", psi - psi_g, psi - psi_g))
    return checks, [("sigma1", repr(sigma1))], \
        _coord_columns(grid, "flux-shift-norm", shift)


def run_dnggb_reduction(run):
    E, sigma0 = run.embedding, run.couplings["sigma0"]
    slc, = run.slices
    red = sgb.dnggb_canonical(E, slc, sigma0=sigma0, sigma1=0.0)
    ref = sym.dng_canonical_pair(E, slc, sigma0)
    dq = float(np.max(np.abs(red.position - ref.position)))
    dp = float(np.max(np.abs(red.momentum - ref.momentum)))
    checks = [
        Check("position-reduces-to-chart", dq, 0.0, run.tol,
              "limit-reduction"),
        Check("momentum-reduces", dp, 0.0, run.tol, "limit-reduction"),
    ]
    grid, _k = slc.grid(E)
    gap = np.max(np.abs(red.position - ref.position), axis=0)
    return checks, [("sigma0", repr(sigma0))], \
        _coord_columns(grid, "position-gap", gap)


def run_mass_shell(run):
    sigma0 = run.couplings["sigma0"]
    slc, = run.slices
    res = sym.mass_shell_check(run.embedding, slc, sigma0)
    checks = [Check("mass-shell-residual", float(np.max(np.abs(res))), 0.0,
                    run.tol, "unit-normalization")]
    grid, _k = slc.grid(run.embedding)
    return checks, [("sigma0", repr(sigma0))], \
        _coord_columns(grid, "residual", res)


@dataclass(frozen=True)
class Scenario:
    """One CLI scenario: its runner, its two catalog lines, its defaults and
    the inputs it reads.  `resolve_config` rejects every other input."""
    run: object  # Run -> (checks, notes, --dump-fields columns)
    desc: str
    capability: str
    embedding: str
    model: str | None = None  # None: it takes no [model] id
    embeddings: tuple = ()    # the embeddings it runs on; () for any
    grid: tuple | int = ()    # per-axis default grid, or one node count
    tol: float | None = None  # None: the runner derives one from eps
    slices: tuple = ()        # default tau slices; one: it reads one
    reads: tuple = ()         # the [run] keys it reads
    couplings: dict = field(default_factory=dict)  # no model: name -> default
    node_kb: float = 0.0      # heap per grid node, kB (see MAX_GRID)

    def reads_line(self) -> str:
        shape = {"grid": "=n" if isinstance(self.grid, int) else "=n[,m]",
                 "slices": "=t" if len(self.slices) == 1 else "=t1,t2,..."}
        model = "id + its couplings" if self.model else \
            " ".join(self.couplings) or "-"
        return (f"[run] {' '.join(k + shape.get(k, '') for k in self.reads)}"
                f"; [model] {model}"
                f"; [embedding] id {'|'.join(self.embeddings) or 'any'}")


SCENARIOS = {
    "eom-check": Scenario(
        run_eom_check,
        "field-equation residual of a model on an embedding",
        "bulk term of the first variation",
        embedding="traveling-wave", model="dng", grid=(48,), tol=1e-8,
        reads=("grid", "tol"), node_kb=40.0),
    "deformation-oracle": Scenario(
        run_deformation_oracle,
        "finite-difference check of curvature-invariant variations",
        "normal-deformation response of K.K, K_ab.K^ab, gradK.gradK",
        embedding="sphere", reads=("eps", "tol", "seed", "trials")),
    "action-variation": Scenario(
        run_action_variation,
        "integrated first variation against the assembled bulk density",
        "equality of numeric and assembled action derivatives",
        embedding="torus", model="quadratic-k", grid=(24,),
        reads=("grid", "eps", "tol"), node_kb=46.0),
    "gauss-bonnet": Scenario(
        run_gauss_bonnet,
        "curvature quadrature over a closed surface",
        "Euler characteristic from the induced metric",
        embedding="sphere", embeddings=tuple(EULER_NUMBERS), grid=32,
        tol=1e-12, reads=("grid", "tol"), node_kb=2.6),
    "symplectic-conservation": Scenario(
        run_symplectic_conservation,
        "slice independence of the boundary-current form",
        "conservation of the symplectic current",
        embedding="static-string", model="dng",
        embeddings=("static-string", "traveling-wave"), grid=256, tol=1e-6,
        slices=(0.3, 1.1, 2.0), reads=("grid", "tol", "slices"),
        node_kb=78.0),
    "canonical-darboux": Scenario(
        run_canonical_darboux,
        "slice form against the position-momentum pairing",
        "canonical conjugacy of chart position and momentum density",
        embedding="static-string", embeddings=("static-string",),
        grid=160, tol=1e-6, slices=(0.9,), reads=("grid", "tol", "slices"),
        couplings={"sigma0": 1.0}, node_kb=2.2),
    "gb-gauge-invariance": Scenario(
        run_gb_gauge_invariance,
        "frame-gauge shift of the curvature flux",
        "gauge invariance of the rotation-connection response",
        embedding="static-string", embeddings=("static-string",), tol=1e-10,
        grid=(8, 24), reads=("grid", "tol"), couplings={"sigma1": 0.9},
        node_kb=4.5),
    "dnggb-reduction": Scenario(
        run_dnggb_reduction,
        "combined-system pair at vanishing curvature coupling",
        "reduction of the combined canonical pair to the minimal one",
        embedding="static-string", couplings={"sigma0": 1.2},
        embeddings=("static-string", "traveling-wave"), grid=64, tol=1e-12,
        slices=(0.9,), reads=("grid", "tol", "slices"), node_kb=0.8),
    "mass-shell": Scenario(
        run_mass_shell,
        "momentum normalization on a spacelike slice",
        "p.p + sigma0^2 = 0 for the unit timelike momentum",
        embedding="static-string", grid=64, tol=1e-10, slices=(0.9,),
        reads=("grid", "tol", "slices"), couplings={"sigma0": 2.0},
        node_kb=0.3),
}


def list_scenarios() -> str:
    lines = ["available scenarios:"]
    for name, sc in SCENARIOS.items():
        model = f" model={sc.model}" if sc.model else ""
        lines += [f"  {name}", f"    {sc.desc}",
                  f"    exercises: {sc.capability}",
                  f"    defaults: embedding={sc.embedding}{model}",
                  f"    reads: {sc.reads_line()}"]
    lines.append("")
    lines.append("config sections: [scenario] name; [embedding] id + "
                 "parameters; [model] id + couplings; [run] "
                 + ", ".join(RUN_KEYS))
    return "\n".join(lines) + "\n"


# -- config parsing -------------------------------------------------------------

def _as_float(key, text):
    try:
        return float(text)
    except ValueError as ex:
        raise ConfigError(f"{key} must be a number, got {text!r}") from ex


def _as_int(key, text):
    try:
        return int(text)
    except ValueError as ex:
        raise ConfigError(f"{key} must be an integer, got {text!r}") from ex


def _within(parse, low, high, what):
    """``parse``, then reject a value outside [low, high], or NaN."""
    def checked(key, text):
        val = parse(key, text)
        if not low <= val <= high:
            raise ConfigError(f"{key} must be {what}, got {val!r}")
        return val
    return checked


def _parse_floats(_key, text):
    try:
        return tuple(float(x) for x in str(text).split(","))
    except ValueError as ex:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") \
            from ex


# points per grid axis.  A run's nodes are bounded too, before anything is
# built: nodes times the scenario's `node_kb` (the tracemalloc peak's slope
# between two grid sizes, at its worst embedding and model) may not exceed
# NODE_BUDGET.  So action-variation (46 kB per node with synthetic-gradk on
# S2xS2) takes at most 208^2 nodes and gauss-bonnet (2.6 kB) 877^2.  The
# slice scenarios count one node per slice point; MAX_GRID binds them first.
MAX_GRID = 1024
NODE_BUDGET = 2e9  # bytes


def _parse_grid(_key, text):
    try:
        grid = tuple(int(x) for x in str(text).split(","))
    except ValueError as ex:
        raise ConfigError(f"expected n or n,m grid, got {text!r}") from ex
    if not all(1 <= n <= MAX_GRID for n in grid):
        raise ConfigError(
            f"grid entries must be between 1 and {MAX_GRID}, got {text!r}")
    return grid


# deformation-oracle holds about 10.6 kB per trial point at jet order 4 on
# the codimension-1 surfaces and 30 kB on the S2xS2 patch, so 10000 trials
# take at most about 300 MB
MAX_TRIALS = 10_000

# the [run] keys, each with what it sets, its parser and its default
# (None: the scenario record's)
RUN_KEYS = {"grid": ("grid", _parse_grid, ()),
            "eps": ("eps schedule", _parse_floats, dfm.EPS_SCHEDULE),
            "tol": ("tolerance", _within(_as_float, 0, sys.float_info.max,
                                         "a finite number >= 0"), None),
            "seed": ("seed", _as_int, 7),
            "slices": ("slices", _parse_floats, None),
            "trials": ("trials", _within(_as_int, 1, MAX_TRIALS,
                                         f"between 1 and {MAX_TRIALS}"), 4)}


def load_config(path) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as ex:
        raise ConfigError(f"cannot read config: {ex}") from ex
    except configparser.Error as ex:
        raise ConfigError(f"malformed config: {ex}") from ex
    out = {}
    for section in parser.sections():
        if section not in ("scenario", "embedding", "model", "run"):
            raise ConfigError(f"unknown config section [{section}]")
        for key, val in parser.items(section):
            if section == "scenario" and key == "name":
                out["scenario"] = val
            elif section in ("embedding", "model") and key == "id":
                out[section] = val
            elif section == "embedding":
                out.setdefault("emb_params", {})[key] = _as_float(key, val)
            elif section == "model" and key in COUPLING_KEYS:
                out.setdefault("couplings", {})[key] = _within(
                    _as_float, -sys.float_info.max, sys.float_info.max,
                    "a finite number")(key, val)
            elif section == "run" and key in RUN_KEYS:
                out[key] = val
            else:
                raise ConfigError(f"unknown key '{key}' in [{section}]")
    return out


def resolve_config(args) -> Run:
    """The config file with the flags over it, resolved against the
    scenario's `Scenario` record; an input the record does not read, or
    the library rejects, is an error."""
    raw = load_config(args.config) if args.config else {}
    raw.update((k, v) for k, v in (("grid", args.grid), ("eps", args.eps),
                                   ("tol", args.tol)) if v is not None)
    scenario = args.scenario or raw.get("scenario")
    if not scenario:
        raise ConfigError("no scenario given (use --scenario or a config)")
    if scenario not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario '{scenario}'; try --list"
        )
    sc = SCENARIOS[scenario]
    for key, (what, _parse, _default) in RUN_KEYS.items():
        if key in raw and key not in sc.reads:
            raise ConfigError(f"{scenario} takes no {what}: it "
                              f"reads [run] {', '.join(sc.reads)}")
    embedding = raw.get("embedding", sc.embedding)
    if embedding not in EMBEDDINGS:
        raise ConfigError(f"unknown embedding '{embedding}'")
    if sc.embeddings and embedding not in sc.embeddings:
        raise ConfigError(f"{scenario} runs on {' or '.join(sc.embeddings)}")
    if "model" in raw and sc.model is None:
        raise ConfigError(f"{scenario} takes no [model] id")
    model = raw.get("model", sc.model)
    if model is not None and model not in MODELS:
        raise ConfigError(f"unknown model '{model}'")
    couplings = raw.get("couplings", {})
    reads = tuple(sc.couplings) + (MODELS[model][1] if model else ())
    bad = sorted(set(couplings) - set(reads))
    if bad:
        raise ConfigError(f"{f'model {model!r}' if model else scenario} "
                          f"does not take {', '.join(bad)}")
    # the [run] keys of which the record reads a single entry
    single = {"grid": isinstance(sc.grid, int) and "reads one node count",
              "slices": len(sc.slices) == 1 and "integrates over one slice"}
    val = {}
    for key, (_what, parse, default) in RUN_KEYS.items():
        if key not in raw:
            val[key] = getattr(sc, key) if default is None else default
            continue
        val[key] = parse(key, raw[key])
        if single.get(key) and len(val[key]) > 1:
            raise ConfigError(f"{scenario} {single[key]}, got {key} "
                              f"{raw[key]}")
    shape = val["grid"] or sc.grid  # one entry n: n nodes on every axis
    grid = shape[0] if isinstance(shape, tuple) and len(shape) == 1 else shape
    factory, names = EMBEDDINGS[embedding]
    bad = sorted(set(raw.get("emb_params", {})) - set(names))
    try:
        dfm.validate_eps_schedule(val["eps"])
        if bad:
            raise ConfigError(
                f"embedding '{embedding}' does not take {', '.join(bad)}")
        E = factory(**raw.get("emb_params", {}))
        built = MODELS[model][0](**couplings) if model else None
        slices = tuple(sym.CauchySlice("tau", tv, grid)
                       for tv in val["slices"])
        for slc in slices:  # axis, range, a two-axis chart
            slc.grid(E)
    except (TypeError, BranelabError) as ex:
        raise ConfigError(str(ex)) from ex
    if len(val["grid"]) > E.dim:
        raise ConfigError(f"grid has {len(val['grid'])} entries for a "
                          f"{E.dim}-axis embedding")
    axes = 1 if sc.slices else E.dim  # one node per slice point
    nodes = int(np.prod(grid if isinstance(grid, tuple) else (grid,) * axes))
    if nodes * sc.node_kb * 1e3 > NODE_BUDGET:
        raise ConfigError(f"{scenario} grid of {nodes} nodes needs about "
                          f"{nodes * sc.node_kb / 1e6:.2f} GB, over the "
                          f"{NODE_BUDGET / 1e9:g} GB bound")
    return Run(scenario, embedding, E, model, built, grid,
               ",".join(str(n) for n in val["grid"]) or "default", val["eps"],
               val["tol"], val["seed"], val["trials"], slices,
               {**sc.couplings, **couplings})


# -- orchestration ---------------------------------------------------------------

def run_scenario(run: Run) -> tuple:
    start = time.perf_counter()
    try:
        checks, notes, fields = SCENARIOS[run.scenario].run(run)
    except BranelabError as ex:
        checks = [Check("execution", float("nan"), 0.0, 0.0,
                        f"aborted:{type(ex).__name__}")]
        notes = [("error", str(ex))]
        fields = None
    duration = time.perf_counter() - start
    header = [
        ("scenario", run.scenario),
        ("embedding", run.embedding.name),
        ("model", run.model_id or "-"),
        ("grid", run.grid_line),
        ("eps", ",".join(repr(e) for e in run.eps)
         if "eps" in SCENARIOS[run.scenario].reads else "-"),
        ("conventions", _conventions_line()),
    ]
    return Report(header=header, notes=notes, checks=checks,
                  duration=duration), fields


def write_fields(path, fields):
    if fields is None:
        raise ConfigError("this scenario produced no per-point fields")
    names, cols = fields
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in zip(*[np.asarray(c, float) for c in cols]):
            writer.writerow([repr(float(x)) for x in row])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="branelab",
        description="scenario runner for the worldvolume verification suite",
    )
    parser.add_argument("--scenario", help="scenario name (see --list)")
    parser.add_argument("--config", help="key-value config file")
    parser.add_argument("--grid", help="grid size n or n,m")
    parser.add_argument("--eps", help="comma-separated step schedule "
                        "(see --list)")
    parser.add_argument("--tol", type=float, help="override check tolerance")
    parser.add_argument("--out", help="write the report to this path")
    parser.add_argument("--dump-fields", metavar="PATH.CSV",
                        help="write per-point fields as CSV")
    parser.add_argument("--list", action="store_true",
                        help="print the scenario catalog and exit")
    args = parser.parse_args(argv)

    if args.list:
        sys.stdout.write(list_scenarios())
        return 0
    try:
        report, fields = run_scenario(resolve_config(args))
        if args.dump_fields:
            write_fields(args.dump_fields, fields)
    except ConfigError as ex:
        sys.stderr.write(f"error: {ex}\n")
        return 2
    text = report.render()
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
