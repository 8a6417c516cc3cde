"""Metric tables of the benchmark and the per-pass layer arithmetic.

Each per-layer metric names the end-to-end metric it should move and the
workloads on which it should move it; ``run.py --workload all`` prints this
map next to the numbers.
"""
from __future__ import annotations

WORKLOADS = ("scenarios", "curved-high-order", "phase-space")

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MiB",
}

SCENARIO_NAMES = (
    "eom-check", "deformation-oracle", "action-variation", "gauss-bonnet",
    "symplectic-conservation", "canonical-darboux", "gb-gauge-invariance",
    "dnggb-reduction", "mass-shell",
)

_CURVED, _PHASE, _SCEN = "curved-high-order", "phase-space", "scenarios"

# per-layer metric -> (source, tracer key, unit, end-to-end metric, workloads)
# source: "time" is the inclusive time of a name's outermost spans, "self"
# its self time, "calls" its span count, "sum"/"max" a tracer counter.
LAYER_METRICS = {
    "jets.einsum_s": ("time", "jets.einsum", "s", "pass_s", [_CURVED]),
    "jets.einsum_calls": ("calls", "jets.einsum", "count", "pass_s", [_CURVED]),
    "jets.cauchy_triples": ("sum", "jets.cauchy_triples", "count", "pass_s",
                            [_CURVED]),
    "jets.mul_calls": ("calls", "jets.mul", "count", "pass_s", [_PHASE]),
    "jets.mul_s": ("time", "jets.mul", "s", "pass_s", [_PHASE]),
    "jets.stack_s": ("time", "jets.stack", "s", "pass_s", [_PHASE]),
    "jets.compose_s": ("time", "jets.compose", "s", "pass_s", [_PHASE]),
    "jets.matinv_s": ("time", "jets.matinv", "s", "pass_s", [_SCEN]),
    "jets.coeff_mb_peak": ("max", "jets.coeff_peak_bytes", "MiB", "peak_rss_mb",
                           [_CURVED]),
    "backgrounds.metric_calls": ("calls", "backgrounds.metric", "count", "pass_s",
                                 [_PHASE]),
    "backgrounds.metric_s": ("time", "backgrounds.metric", "s", "pass_s", [_PHASE]),
    "backgrounds.christoffel_s": ("time", "backgrounds.christoffel", "s", "pass_s",
                                  [_CURVED]),
    "backgrounds.riemann_s": ("time", "backgrounds.riemann", "s", "pass_s",
                              [_CURVED]),
    "backgrounds.riemann_order": ("max", "backgrounds.riemann_order", "order",
                                  "pass_s", [_CURVED]),
    "embeddings.geometry_builds": ("sum", "embeddings.geometry_builds", "count",
                                   "pass_s", [_PHASE]),
    "embeddings.rframe_s": ("time", "embeddings.rframe", "s", "pass_s", [_CURVED]),
    "embeddings.rframe_order": ("max", "embeddings.rframe_order", "order", "pass_s",
                                [_CURVED]),
    "embeddings.extrinsic_s": ("time", "embeddings.extrinsic", "s", "pass_s",
                               [_CURVED]),
    "embeddings.normals_s": ("time", "embeddings.normals", "s", "pass_s",
                             [_PHASE, _SCEN]),
    "embeddings.intrinsic_curvature_s": ("time", "embeddings.intrinsic_curvature",
                                         "s", "pass_s", [_SCEN]),
    "embeddings.inverse_metric_s": ("time", "embeddings.inverse_metric", "s",
                                    "pass_s", [_SCEN]),
    "deformation.reembeddings": ("sum", "deformation.reembeddings", "count",
                                 "pass_s", [_PHASE, _SCEN]),
    "deformation.fd_calls": ("calls", "deformation.fd", "count", "pass_s",
                             [_PHASE, _SCEN]),
    "deformation.fd_s": ("time", "deformation.fd", "s", "pass_s", [_PHASE, _SCEN]),
    "deformation.predicted_s": ("time", "deformation.predicted", "s", "pass_s",
                                [_SCEN]),
    "models.eom_density_calls": ("calls", "models.eom_density", "count", "pass_s",
                                 [_CURVED]),
    "models.eom_density_s": ("time", "models.eom_density", "s", "pass_s",
                             [_CURVED]),
    "symplectic.potential_calls": ("calls", "symplectic.potential", "count",
                                   "pass_s", [_PHASE]),
    "symplectic.potential_s": ("time", "symplectic.potential", "s", "pass_s",
                               [_PHASE]),
    "symplectic.form_s": ("time", "symplectic.form", "s", "pass_s", [_PHASE]),
    "symplectic.pairing_s": ("time", "symplectic.pairing", "s", "pass_s", [_PHASE]),
    "strings_gb.rotation_connection_calls": ("calls", "strings_gb.rotation_connection",
                                             "count", "pass_s", [_PHASE]),
    "strings_gb.rotation_connection_s": ("time", "strings_gb.rotation_connection",
                                         "s", "pass_s", [_PHASE]),
    "strings_gb.gb_form_s": ("time", "strings_gb.gb_form", "s", "pass_s", [_PHASE]),
    "strings_gb.euler_s": ("time", "strings_gb.euler", "s", "pass_s", [_SCEN]),
}
LAYER_METRICS.update({
    f"cli.scenario_s.{name}": ("time", f"cli.scenario.{name}", "s", "pass_s", [_SCEN])
    for name in SCENARIO_NAMES
})
# share of traced pass wall time inside top-level spans, and traced over
# untraced pass_s minus 1
TRACE_METRICS = {"trace.coverage": "fraction", "trace.overhead_frac": "fraction"}


def layer_values(before, after, maxima, wall_s):
    """Per-layer metrics of one traced pass from two tracer snapshots."""
    out = {}
    for name, (source, key, _unit, _moves, _workloads) in LAYER_METRICS.items():
        if source in ("time", "self"):
            field = "inclusive" if source == "time" else "self_time"
            out[name] = after[field].get(key, 0.0) - before[field].get(key, 0.0)
        elif source == "calls":
            out[name] = after["calls"][key] - before["calls"][key]
        elif source == "sum":
            out[name] = after["counters"][key] - before["counters"][key]
        else:
            out[name] = maxima.get(key, 0)
    out["jets.coeff_mb_peak"] /= float(2 ** 20)
    out["trace.coverage"] = (after["top_level"] - before["top_level"]) / wall_s
    return out


def unit_of(name):
    if name in END_TO_END:
        return END_TO_END[name]
    if name in TRACE_METRICS:
        return TRACE_METRICS[name]
    return LAYER_METRICS[name][2]
