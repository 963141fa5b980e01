"""Spans around the public layer functions of ilw_lab, recorded from outside.

``install`` replaces module attributes of the already imported package in
this process only (nothing under src/ changes): every module attribute that
is bound to a traced function is rebound to a wrapper, and traced methods
are replaced on their class.  Each wrapper records one span: an id, its
parent (the innermost open span of the same thread), the layer name, the
thread id, start and end.  Spans stay in memory until ``write_spans``.

A layer that the package no longer has fails ``install``, and an extra
that cannot be read from a call's arguments is kept in ``Tracer.errors``,
which fails the traced run once the pass is over: a layer that has moved
must not read as 0.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict

# Complex Hermitian eigendecomposition with eigenvectors (LAPACK zheevr):
# reduction to tridiagonal form, 16/3 m^3 real flops, plus back-transforming
# all m eigenvectors, 8 m^3; the O(m^2) tridiagonal stage is left out.
EIGH_FLOPS_PER_M3 = 16.0 / 3.0 + 8.0
# ETDRK4 evaluates the dealiased nonlinear term 4 times per step, each with
# one inverse and one forward FFT of the grid length.
FFTS_PER_STEP = 8


class Tracer:
    """In-memory span recorder shared by every thread of the process."""

    def __init__(self):
        self.spans = []  # (id, parent, name, thread, start, end, extra)
        self.errors = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name, fn, extra=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            info = None
            if extra is not None:
                try:
                    info = extra(*args, **kwargs)
                except Exception as exc:  # reported after the pass, not into the program
                    self.errors.append("%s: extra unavailable: %r" % (name, exc))
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, name, threading.get_ident(),
                                   start, end, info))
        return traced

    def root(self):
        """Id of the outermost open span of the calling thread, or None."""
        stack = self._local.__dict__.get("stack")
        return stack[0] if stack else None

    def write_spans(self, path):
        """Write every span as one JSON line, once, at the end of the run."""
        with open(path, "w") as fh:
            for span_id, parent, name, thread, start, end, info in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "thread": thread,
                                     "start": start, "end": end,
                                     "extra": info}) + "\n")


def _state_key(coeffs):
    return hashlib.blake2b(coeffs.tobytes(), digest_size=8).hexdigest()


def install(tracer: Tracer):
    """Wrap the layer boundaries of the imported ilw_lab package."""
    from ilw_lab import evolution, experiments, lax, spectral

    modules = [mod for name, mod in list(sys.modules.items())
               if name == "ilw_lab" or name.startswith("ilw_lab.")]

    def function(module, attr, name, extra=None):
        original = getattr(module, attr)
        wrapped = tracer.wrap(name, original, extra)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    def method(cls, attr, name, extra=None):
        setattr(cls, attr, tracer.wrap(name, vars(cls)[attr], extra))

    evolve_signature = inspect.signature(evolution.evolve)

    def evolve_extra(*args, **kwargs):
        bound = evolve_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        dt = a["dt"] or evolution.default_dt(a["problem"], a["initial"])
        return {"steps": max(1, int(round(a["t_final"] / dt))),
                "n": int(a["problem"].grid.n_points)}

    def eigh_extra(self, lax_truncation, u, *rest, **kwargs):
        # a state is one field within one root span (an invocation, or one
        # ensemble member on a pool thread): members that start from the
        # same data still count their states separately
        return {"dim": int(lax_truncation.matrix.shape[0]),
                "state": "%s:%s" % (tracer.root(), _state_key(u.coeffs))}

    function(evolution, "evolve", "evolution.evolve", evolve_extra)
    function(lax, "build_lax", "lax.build_lax")
    function(lax, "check_kappa", "lax.check_kappa")
    function(lax, "weighted_resolvent_form", "lax.weighted_form")
    function(lax, "resolvent_form", "lax.resolvent_form")
    function(lax, "build_weighted_rule", "lax.rule")
    function(lax, "gronwall_experiment", "lax.member")
    function(experiments, "run", "experiments.run")
    method(lax.LaxSpectrum, "__init__", "lax.eigh", eigh_extra)
    method(lax.LaxSpectrum, "form_at", "lax.form_at")
    method(spectral.RealField, "__post_init__", "spectral.realfield")


# -- per-layer metrics ------------------------------------------------------------

def _durations(spans, name):
    return [end - start for _, _, n, _, start, end, _ in spans if n == name]


def _under(spans, name, ancestor):
    """Number of ``name`` spans with an ``ancestor`` span above them."""
    by_id = {s[0]: s for s in spans}
    count = 0
    for span in spans:
        if span[2] != name:
            continue
        parent = span[1]
        while parent is not None:
            above = by_id[parent]
            if above[2] == ancestor:
                count += 1
                break
            parent = above[1]
    return count


def _max_workers(spans, main_thread):
    """Most threads other than the main one inside a root span at once; 1
    when all work runs on the main thread."""
    events = []
    for _, parent, _, thread, start, end, _ in spans:
        if parent is None and thread != main_thread:
            events.append((start, 1))
            events.append((end, -1))
    events.sort()
    busy = most = 0
    for _, step in events:
        busy += step
        most = max(most, busy)
    return max(1, most)


def self_times(spans) -> dict:
    """Per layer: span count, total time and self time (span time minus the
    part of it covered by child spans of the same thread)."""
    children = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append((span[4], span[5]))
    out = {}
    for span_id, _, name, _, start, end, _ in spans:
        covered = 0.0
        last = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, last), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                last = c_end
        entry = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - covered
    return out


def _percentile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans, main_thread) -> dict:
    """The per-layer metrics of one traced pass, as plain numbers."""
    evolves = [s for s in spans if s[2] == "evolution.evolve"]
    steps = sum(s[6]["steps"] for s in evolves)
    fft_points = sum(FFTS_PER_STEP * s[6]["steps"] * s[6]["n"] for s in evolves)
    evolve_busy = sum(_durations(spans, "evolution.evolve"))

    eighs = [s for s in spans if s[2] == "lax.eigh"]
    eigh_busy = sum(_durations(spans, "lax.eigh"))
    dims = [s[6]["dim"] for s in eighs]
    states = {s[6]["state"] for s in eighs}
    builds = len(_durations(spans, "lax.rule"))
    members = sorted(_durations(spans, "lax.member"))

    def busy(name):
        return sum(_durations(spans, name))

    return {
        "evolution.evolve.calls": len(evolves),
        "evolution.evolve.busy_s": evolve_busy,
        "evolution.steps": steps,
        "evolution.step_us": 1e6 * evolve_busy / steps if steps else 0.0,
        "evolution.fft.computed": fft_points,
        "lax.eigh.calls": len(eighs),
        "lax.eigh.busy_s": eigh_busy,
        "lax.eigh.us_per_call": 1e6 * eigh_busy / len(eighs) if eighs else 0.0,
        "lax.eigh.dim": max(dims, default=0),
        "lax.eigh.gflop.computed": EIGH_FLOPS_PER_M3 * sum(
            float(m) ** 3 for m in dims) / 1e9,
        "lax.eigh.per_state": len(eighs) / len(states) if states else 0.0,
        "lax.build_lax.calls": len(_durations(spans, "lax.build_lax")),
        "lax.build_lax.busy_s": busy("lax.build_lax"),
        "lax.check_kappa.busy_s": busy("lax.check_kappa"),
        "lax.weighted_form.busy_s": busy("lax.weighted_form"),
        "lax.resolvent_form.busy_s": busy("lax.resolvent_form"),
        "lax.rule.builds": builds,
        "lax.rule.busy_s": busy("lax.rule"),
        "lax.rule.form_at_per_build": (_under(spans, "lax.form_at", "lax.rule")
                                       / builds if builds else 0.0),
        "lax.form_at.calls": len(_durations(spans, "lax.form_at")),
        "lax.form_at.busy_s": busy("lax.form_at"),
        "lax.member.latency_s.p50": _percentile(members, 50),
        "lax.member.latency_s.p90": _percentile(members, 90),
        "spectral.realfield.count": len(_durations(spans, "spectral.realfield")),
        "spectral.realfield.busy_s": busy("spectral.realfield"),
        "experiments.workers": _max_workers(spans, main_thread),
    }
