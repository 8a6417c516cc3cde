"""The benchmark's three workloads.

Each workload is a fixed list of public library calls built from a seed.
``build(name, seed)`` returns the list of operations; building it is the
workload's set-up (embeddings, grids, probe fields).  A pass calls every
operation once, in order, and checks each result against the acceptance
gate's own bounds.

Why these three: ``scenarios`` is the traffic users run (the nine CLI
scenarios at their defaults); ``curved-high-order`` puts the jet kernel and
the background tensors at jet orders 4-6 on curved ambients with few
re-embeddings; ``phase-space`` is its mirror image, low jet orders on 1-d
slices where per-call overhead and the re-embedding count dominate.
"""
from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from typing import Callable

import numpy as np

from branelab import cli
from branelab import deformation as dfm
from branelab import embeddings as emb
from branelab import jets
from branelab import models as mdl
from branelab import strings_gb as sgb
from branelab import symplectic as sym

# acceptance bounds, unchanged from tests/test_acceptance.py and
# tests/test_strings_gb.py
FORM_TOL = 1e-6        # slice forms, form - pairing, tangential drop-out
GB_SPLIT_TOL = 1e-9    # dnggb(sigma1) - dnggb(0) = gb_form


@dataclass
class Op:
    """One library call and the check of its result.

    ``check(value, done)`` gets the values of the operations already run in
    this pass (by name) and returns an error string, or None when the
    result is correct.
    """

    name: str
    call: Callable
    check: Callable


def build(name: str, seed: int) -> list:
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(_BUILDERS)}")
    return _BUILDERS[name](np.random.default_rng(seed))


def _within(value, want, tol, what):
    gap = abs(value - want)
    if gap < tol:
        return None
    return f"{what}: |{value!r} - {want!r}| = {gap:.3e} >= {tol:g}"


# -- scenarios -----------------------------------------------------------------

def _report_body(text):
    return "".join(ln for ln in text.splitlines(keepends=True)
                   if not ln.startswith("duration-s:"))


def _scenario_call(scenario):
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["--scenario", scenario])
        return code, _report_body(buf.getvalue())
    return call


def _scenario_check():
    first = {}

    def check(value, done):
        code, body = value
        if code != 0:
            return f"exit code {code}"
        if "result: pass\n" not in body.splitlines(keepends=True):
            return "report does not say 'result: pass'"
        if body != first.setdefault("body", body):
            return "report body differs from the first pass"
        return None
    return check


def _build_scenarios(rng):
    return [Op(f"cli.{scenario}", _scenario_call(str(scenario)), _scenario_check())
            for scenario in rng.permutation(list(cli.SCENARIOS))]


# -- curved-high-order ---------------------------------------------------------

def _box_windowed_field(coefs):
    """Normal deformation with a polynomial window on the box [-1, 1]^2."""
    def field_of(geom):
        u, v = geom.params
        win = dfm.poly_window(u) * dfm.poly_window(v)
        fns = [lambda u, v, c=c: c[0] + c[1] * jets.sin(u) + c[2] * v
               + c[3] * jets.cos(v) for c in coefs[:geom.codim]]
        return dfm.deformation_vector(geom, win * dfm.normal_field(geom, *fns))
    return field_of


def _periodic_field(coefs):
    def field_of(geom):
        fns = [lambda u, v, c=c: c[0] + c[1] * jets.sin(u) + c[2] * jets.cos(v)
               for c in coefs[:geom.codim]]
        return dfm.deformation_vector(geom, dfm.normal_field(geom, *fns))
    return field_of


def _action_call(model, E, grid, vfield):
    def call():
        rep = mdl.action_variation_check(model, E, grid, vfield)
        return rep.numeric, rep.assembled, rep.gap, rep.eps
    return call


def _action_check(value, done):
    _numeric, _assembled, gap, eps = value
    return _within(gap, 0.0, max(1e-5, 10.0 * min(eps) ** 2), "action gap")


def _build_curved(rng):
    s2xs2, torus = emb.surface_s2xs2(), emb.torus_e3()
    box = _box_windowed_field(rng.uniform([0.1, 0.1, -0.3, -0.2],
                                          [0.5, 0.4, 0.3, 0.3], size=(2, 4)))
    periodic = _periodic_field(rng.uniform([-0.1, 0.1, 0.05],
                                           [0.3, 0.3, 0.2], size=(1, 3)))
    alpha, beta = rng.uniform(0.5, 1.0, size=2)
    cases = [
        ("quadratic-k.s2xs2", mdl.QuadraticK(alpha=alpha), s2xs2, 32, box),
        ("synthetic-gradk.s2xs2", mdl.SyntheticGradK(beta=beta), s2xs2, 32, box),
        ("synthetic-gradk.torus", mdl.SyntheticGradK(beta=beta), torus, 24,
         periodic),
    ]
    return [Op(f"action.{name}",
               _action_call(model, E, emb.make_grid(E, n), vfield),
               _action_check)
            for name, model, E, n, vfield in cases]


# -- phase-space ---------------------------------------------------------------

def _scaled(amp, fn):
    return sym.chart_field(lambda t, s: tuple(amp * c for c in fn(t, s)))


def _z(t, s, f):
    return (0.0 * t, 0.0 * t, 0.0 * t, f)


def _fz1(t, s):
    return _z(t, s, jets.sin(s) * jets.cos(t))


def _fz2(t, s):
    return _z(t, s, jets.sin(s) * jets.sin(t))


def _fz3(t, s):
    return _z(t, s, 0.3 * jets.sin(2 * s) * jets.cos(2 * t))


def _frad1(t, s):
    r = 0.2 + 0.1 * jets.sin(t)
    return (0.0 * t, r * jets.cos(s), r * jets.sin(s), 0.0 * t)


def _frad2(t, s):
    r = 0.3 * jets.cos(t) + 0.1 * jets.sin(2 * s)
    return (0.0 * t, r * jets.cos(s), r * jets.sin(s), 0.0 * t)


def _timemode(t, s):
    return (0.2 * jets.sin(2 * s) * jets.cos(t), 0.0 * t, 0.0 * t, 0.0 * t)


def _matched_radial(t, s):
    r = 0.2 * jets.sin(2 * s) * jets.sin(t)
    return (0.0 * t, r * jets.cos(s), r * jets.sin(s), 0.0 * t)


def _tangential_field(geom):
    t, s = geom.params
    comp = jets.jet_stack([0.2 + 0.1 * jets.sin(s), -0.3 + 0.1 * jets.cos(t)],
                          template=geom.X)
    return jets.jet_einsum("am...,a...->m...", geom.tangents, comp)


def _build_phase_space(rng):
    E = emb.static_string(1.0)
    mu = float(rng.uniform(0.8, 1.5))
    a1, a2 = (float(a) for a in rng.uniform(0.5, 1.5, size=2))
    model = mdl.DNG(mu=mu)
    f1, f2 = _scaled(a1, _fz1), _scaled(a2, _fz2)
    closed_form = a1 * a2 * mu * np.pi
    ops = []

    def form_check(value, done):
        err = _within(value, closed_form, FORM_TOL, "slice form vs a1*a2*mu*pi")
        vals = [v for k, v in done.items() if k.startswith("form.slice")]
        if err is None and vals:
            err = _within(max(vals + [value]) - min(vals + [value]), 0.0,
                          FORM_TOL, "slice independence")
        return err

    for k, tau in enumerate(np.sort(rng.uniform(0.15, 2.35, size=3))):
        slc = sym.CauchySlice("tau", float(tau), 256)
        ops.append(Op(f"form.slice{k}",
                      lambda slc=slc: sym.symplectic_form(model, E, slc, f1, f2),
                      form_check))

    slc = sym.CauchySlice("tau", float(rng.uniform(0.15, 2.35)), 160)
    pairs = [("z1-z2", _fz1, _fz2), ("z1-z3", _fz1, _fz3), ("z3-z2", _fz3, _fz2),
             ("rad1-rad2", _frad1, _frad2), ("rad1-z1", _frad1, _fz1)]
    for label, g1, g2 in pairs:
        v1, v2 = _scaled(a1, g1), _scaled(a2, g2)

        def pairing(v1=v1, v2=v2):
            return (sym.symplectic_form(model, E, slc, v1, v2),
                    sym.dng_canonical_pairing(E, slc, v1, v2, mu))

        ops.append(Op(f"pairing.{label}", pairing,
                      lambda value, done: _within(value[0] - value[1], 0.0,
                                                  FORM_TOL, "form - pairing")))
    ops.append(Op("form.tangential",
                  lambda: sym.symplectic_form(model, E, slc, _tangential_field, f1),
                  lambda value, done: _within(value, 0.0, FORM_TOL,
                                              "tangential drop-out")))

    gb_slc = sym.CauchySlice("tau", float(rng.uniform(0.15, 2.35)), 64)
    sigma0, sigma1 = (float(x) for x in rng.uniform([0.8, 0.5], [1.5, 1.2]))
    t_mode, matched = sym.chart_field(_timemode), sym.chart_field(_matched_radial)
    ops.append(Op("dnggb.full",
                  lambda: sgb.dnggb_symplectic_form(E, gb_slc, t_mode, matched,
                                                    sigma0=sigma0, sigma1=sigma1),
                  lambda value, done: None))
    ops.append(Op("dnggb.zero",
                  lambda: sgb.dnggb_symplectic_form(E, gb_slc, t_mode, matched,
                                                    sigma0=sigma0, sigma1=0.0),
                  lambda value, done: None))
    ops.append(Op("gb.form",
                  lambda: sgb.gb_symplectic_form(E, gb_slc, t_mode, matched, sigma1),
                  lambda value, done: _within(done["dnggb.full"] - done["dnggb.zero"],
                                              value, GB_SPLIT_TOL,
                                              "dnggb(sigma1) - dnggb(0) vs gb_form")))
    return ops


_BUILDERS = {
    "scenarios": _build_scenarios,
    "curved-high-order": _build_curved,
    "phase-space": _build_phase_space,
}
