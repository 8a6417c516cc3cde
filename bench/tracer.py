"""Outside-in layer tracer for branelab.

The tracer wraps the public entry points of every branelab module from
outside the package and records one span (name, start, end, parent) per
call, plus counters, in memory.  Nothing under ``src/`` knows about it.

Four details make the numbers right:

* modules bind ``jet_einsum``, ``jet_stack``, ... with ``from .jets import``;
  every module attribute bound to a patched object is rebound, not only the
  one in the defining module;
* class aliases (``Jet.__rmul__ = __mul__``) are rebound with the original;
* ``Geometry`` properties are ``functools.cached_property``: the wrapper is
  a new cached_property around the wrapped ``.func``, named again with
  ``__set_name__`` so the cached value lands under the same attribute;
* finite differences nest (``gb_symplectic_form``) and ``Jet.__mul__``
  recurses on nested jets, so a name's inclusive time counts only its
  outermost span.  Self time is a span's duration minus its children's.
"""
from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import Counter, defaultdict

from branelab import backgrounds, cli, deformation, embeddings, jets, models
from branelab import strings_gb, symplectic

def _cauchy_triples(a, b):
    """Coefficient products of one jet-by-jet contraction.

    Pairs of multi-indices (alpha, beta) in n variables with
    |alpha| + |beta| <= m are the multi-indices of degree <= m in 2n
    variables: C(m + 2n, 2n).  Jet-by-array contractions have none.
    """
    if not (isinstance(a, jets.Jet) and isinstance(b, jets.Jet)):
        return 0
    n, m = a.nvars, min(a.order, b.order)
    return math.comb(m + 2 * n, 2 * n)


def _payload_bytes(value):
    """Bytes of a jet's coefficients, nested jets included (computed)."""
    if isinstance(value, jets.Jet):
        return sum(_payload_bytes(c) for c in value.c)
    return getattr(value, "nbytes", 8)


def _coords_order(args):
    coords = args[1]
    return max((c.order for c in coords if isinstance(c, jets.Jet)), default=0)


# What each patched entry point records, as
# (owner, attribute, span name, counters).  A span name of None records
# counters only.  A counter is (name, fn(args, result) -> number, kind)
# with kind "sum" or "max".
_PAYLOAD = ("jets.coeff_peak_bytes", lambda args, out: _payload_bytes(out), "max")

ENTRY_POINTS = [
    (jets.Jet, "__mul__", "jets.mul", [_PAYLOAD]),
    (jets.Jet, "_compose", "jets.compose", [_PAYLOAD]),
    (jets, "jet_einsum", "jets.einsum",
     [("jets.cauchy_triples", lambda args, out: _cauchy_triples(args[1], args[2]),
       "sum"), _PAYLOAD]),
    (jets, "jet_stack", "jets.stack", [_PAYLOAD]),
    (jets, "jet_matinv", "jets.matinv", [_PAYLOAD]),
    (backgrounds.BackgroundMetric, "metric_tensor", "backgrounds.metric", []),
    (backgrounds.BackgroundMetric, "christoffel_tensor", "backgrounds.christoffel",
     []),
    (backgrounds.BackgroundMetric, "riemann_tensor", "backgrounds.riemann",
     [("backgrounds.riemann_order", lambda args, out: _coords_order(args), "max")]),
    (embeddings.Geometry, "__init__", None,
     [("embeddings.geometry_builds", lambda args, out: 1, "sum")]),
    (embeddings.Geometry, "inverse_induced_metric", "embeddings.inverse_metric", []),
    (embeddings.Geometry, "normals", "embeddings.normals", []),
    (embeddings.Geometry, "extrinsic_curvature", "embeddings.extrinsic", []),
    (embeddings.Geometry, "intrinsic_scalar_curvature",
     "embeddings.intrinsic_curvature", []),
    (embeddings.Geometry, "rframe", "embeddings.rframe",
     [("embeddings.rframe_order", lambda args, out: args[0].order, "max")]),
    (deformation, "deformed_geometry", None,
     [("deformation.reembeddings", lambda args, out: 1, "sum")]),
    (deformation, "finite_difference_delta", "deformation.fd", []),
    (deformation, "predicted_delta_scalar", "deformation.predicted", []),
    (models, "eom_density", "models.eom_density", []),
    (models, "eom_residual", "models.eom_residual", []),
    (models, "action_variation_check", "models.action_variation", []),
    (symplectic, "symplectic_potential", "symplectic.potential", []),
    (symplectic, "symplectic_form", "symplectic.form", []),
    (symplectic, "dng_canonical_pairing", "symplectic.pairing", []),
    (strings_gb, "rotation_connection", "strings_gb.rotation_connection", []),
    (strings_gb, "gb_symplectic_form", "strings_gb.gb_form", []),
    (strings_gb, "dnggb_symplectic_form", "strings_gb.dnggb_form", []),
    (strings_gb, "euler_characteristic", "strings_gb.euler", []),
    # the scenario name labels the span
    (cli, "run_scenario", lambda args: "cli.scenario." + args[0].scenario, []),
]


def _branelab_owners():
    """Every branelab module and every class defined in one."""
    mods = [m for name, m in sorted(sys.modules.items())
            if name == "branelab" or name.startswith("branelab.")]
    classes = {id(v): v for m in mods for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("branelab")}
    return mods + list(classes.values())


class Tracer:
    """Span and counter recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.names = []              # span name table
        self._name_ids = {}
        self.spans = []              # (name id, start, end, parent span index)
        self.calls = Counter()
        self.inclusive = defaultdict(float)   # outermost span of each name
        self.self_time = defaultdict(float)
        self.top_level = 0.0         # time covered by spans without a parent
        self.counters = Counter()
        self.maxima = defaultdict(float)
        self._stack = []             # [span index, name, start, child time]
        self._active = Counter()
        self._patches = []           # (owner, attribute, original)
        self._restored = []

    # -- recording ------------------------------------------------------------

    def _enter(self, name):
        self._active[name] += 1
        self._stack.append([len(self.spans), name, time.perf_counter(), 0.0])
        self.spans.append(None)

    def _exit(self):
        end = time.perf_counter()
        index, name, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.spans[index] = (self._name_ids[name], start, end,
                             parent[0] if parent else -1)
        self.calls[name] += 1
        self.self_time[name] += duration - child
        self._active[name] -= 1
        if not self._active[name]:
            self.inclusive[name] += duration
        if parent:
            parent[3] += duration
        else:
            self.top_level += duration

    def _record(self, counters, args, out):
        for cname, fn, kind in counters:
            value = fn(args, out)
            if kind == "max":
                self.maxima[cname] = max(self.maxima[cname], value)
            else:
                self.counters[cname] += value

    def _wrap(self, fn, span, counters):
        tracer = self

        if span is None:
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                tracer._record(counters, args, out)
                return out
        else:
            def wrapper(*args, **kwargs):
                tracer._enter(span(args) if callable(span) else span)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer._exit()
                tracer._record(counters, args, out)
                return out

        functools.update_wrapper(wrapper, fn)
        wrapper.__bench_traced__ = True
        return wrapper

    def snapshot(self):
        """Totals so far; a pass's numbers are the difference of two."""
        return {
            "top_level": self.top_level,
            "calls": Counter(self.calls),
            "inclusive": dict(self.inclusive),
            "self_time": dict(self.self_time),
            "counters": Counter(self.counters),
        }

    def reset_maxima(self):
        self.maxima.clear()

    # -- patching ---------------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        owners = _branelab_owners()
        for owner, attr, span, counters in ENTRY_POINTS:
            original = owner.__dict__[attr]
            if isinstance(original, functools.cached_property):
                wrapped = functools.cached_property(
                    self._wrap(original.func, span, counters))
                wrapped.__set_name__(owner, attr)
                self._set(owner, attr, original, wrapped)
                continue
            wrapped = self._wrap(original, span, counters)
            # rebind every alias: module-level imports and class aliases
            for other in owners:
                for name, value in list(vars(other).items()):
                    if value is original:
                        self._set(other, name, original, wrapped)

    def _set(self, owner, name, original, replacement):
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._restored = self._patches
        self._patches = []

    def leftovers(self):
        """Names that still hold a tracer wrapper or are not bound to their
        original object again; empty after ``uninstall``."""
        bad = [f"{getattr(owner, '__name__', owner)}.{name}"
               for owner, name, original in self._restored
               if owner.__dict__.get(name) is not original]
        for owner in _branelab_owners():
            for name, value in vars(owner).items():
                inner = value.func if isinstance(value, functools.cached_property) \
                    else value
                if getattr(inner, "__bench_traced__", False):
                    bad.append(f"{getattr(owner, '__name__', owner)}.{name}")
        return bad

    def write(self, path, extra):
        """Spans and per-name totals as one JSON document."""
        doc = dict(extra)
        doc["totals"] = {name: {"calls": self.calls[name],
                                "inclusive_s": self.inclusive[name],
                                "self_s": self.self_time[name]}
                         for name in self.names}
        doc["span_fields"] = ["name", "start_s", "end_s", "parent"]
        doc["names"] = self.names
        doc["spans"] = [s for s in self.spans if s is not None]
        with open(path, "w") as fh:
            json.dump(doc, fh)
