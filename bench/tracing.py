"""Spans around netrecover's layers, installed from outside the package.

The wrappers replace the module attributes that ``pipeline``, ``subspace``
and ``shift_init`` look up when they call into another layer, plus the
methods ``TeacherNetwork.eval_batch`` and ``SubspaceProjector.action_batch``.
Nothing under ``src/`` changes.  ``activations`` is not wrapped: it runs
inside the hot loops of ``teacher`` and ``refine``, where a per-call span
would distort what it measures.

Spans are kept in memory and reduced to per-layer metrics when a unit ends.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc

# span name -> the pipeline stage whose queries it stands for
_QUERY_STAGES = {
    "subspace.build_hessian_matrix": "hessians",
    "shift_init.init_signs_shifts": "init",
    "refine.refine": "refine",
    "diagnostics.match_and_score": "score",
}

# (module, attribute, span name) for every function-level wrapper; the
# stage entries also drop a breadcrumb so a killed run shows where it was
_FUNCTIONS = [
    ("pipeline", "run_pipeline", "pipeline.run_pipeline"),
    ("pipeline", "build_hessian_matrix", "subspace.build_hessian_matrix"),
    ("pipeline", "top_m_projector", "subspace.top_m_projector"),
    ("pipeline", "collect_weights", "spm.collect_weights"),
    ("pipeline", "init_signs_shifts", "shift_init.init_signs_shifts"),
    ("pipeline", "refine", "refine.refine"),
    ("pipeline", "match_and_score", "diagnostics.match_and_score"),
    ("pipeline", "save_teacher", "fileio.save_teacher"),
    ("refine", "refine", "refine.refine"),
    ("diagnostics", "match_and_score", "diagnostics.match_and_score"),
    ("subspace", "fd_hessian", "numdiff.fd_hessian"),
    ("shift_init", "fd_directional", "numdiff.fd_directional"),
    ("fileio", "save_weights", "fileio.save_weights"),
    ("fileio", "save_init_result", "fileio.save_init_result"),
    ("fileio", "write_csv", "fileio.write_csv"),
]
_METHODS = [
    ("teacher", "TeacherNetwork", "eval_batch", "teacher.eval_batch"),
    ("subspace", "SubspaceProjector", "action_batch", "subspace.action_batch"),
]
STAGE_SPANS = {"pipeline.run_pipeline", *_QUERY_STAGES,
               "subspace.top_m_projector", "spm.collect_weights"}


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.info = {}


class Tracer:
    """Nested spans of one process; ``spans`` is cleared by the caller."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def enter(self, name) -> Span:
        span = Span(name, time.perf_counter(), self._open[-1] if self._open else None)
        self.spans.append(span)
        self._open.append(span)
        return span

    def exit(self, span: Span):
        span.end = time.perf_counter()
        self._open.pop()


def _record(name, args, out):
    """Counts taken from a call's arguments and result, keyed by span name."""
    if name == "teacher.eval_batch":
        net = args[0]
        return {"rows": int(out.shape[0]), "dim": net.dim, "m": net.n_neurons}
    if name == "subspace.action_batch":
        return {"columns": int(args[1].shape[1])}
    if name == "numdiff.fd_hessian":
        return {"dim": int(out.shape[0])}
    if name == "subspace.top_m_projector":
        sv = out.singular_values
        return {"sigma_ratio": float(sv[-1] / sv[0])}
    if name == "spm.collect_weights":
        stats = out[1]
        return {"processed": stats.n_processed, "accepted": stats.n_accepted,
                "duplicate": stats.n_duplicate, "rejected": stats.n_rejected,
                "steps": int(sum(stats.steps))}
    if name == "shift_init.init_signs_shifts":
        return {"cond_g3": float(out.cond_g3)}
    if name == "refine.refine":
        student, cfg = args[0], args[2]
        return {"steps": int(out.steps), "n_train": cfg.n_train,
                "dim": student.dim, "m": student.n_neurons}
    return {}


def _wrap(name, fn, tracer, crumb, alloc):
    alloc = alloc and name == "refine.refine"
    stage = name in STAGE_SPANS

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if stage and crumb is not None:
            crumb(name)
        if tracer is None:
            return fn(*args, **kwargs)
        span = tracer.enter(name)
        if alloc:
            tracemalloc.start()
        try:
            out = fn(*args, **kwargs)
            span.info = _record(name, args, out)
            return out
        finally:
            if alloc:
                span.info["peak_alloc"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            tracer.exit(span)

    return wrapper


def install(tracer: Tracer | None, crumb=None, alloc=False):
    """Wrap the layer boundaries; returns a function that undoes it.

    With ``tracer=None`` only the stage-level functions are wrapped, and
    only to call ``crumb(span_name)`` on entry: that is the untraced mode.
    ``alloc=True`` also runs ``tracemalloc`` inside each ``refine`` call and
    records its peak as ``info["peak_alloc"]`` (bytes).  That slows refine's
    mini-batch loop several times over, so it is kept out of timed spans.
    """
    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for mod_name, attr, name in _FUNCTIONS:
        if tracer is None and name not in STAGE_SPANS:
            continue
        mod = importlib.import_module(f"netrecover.{mod_name}")
        patch(mod, attr, _wrap(name, getattr(mod, attr), tracer, crumb, alloc))
    if tracer is not None:
        for mod_name, cls_name, attr, name in _METHODS:
            cls = getattr(importlib.import_module(f"netrecover.{mod_name}"), cls_name)
            patch(cls, attr, _wrap(name, getattr(cls, attr), tracer, crumb, alloc))

    def restore():
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)

    return restore


def _query_stage(span: Span):
    p = span.parent
    while p is not None:
        if p.name in _QUERY_STAGES:
            return _QUERY_STAGES[p.name]
        p = p.parent
    return None


def _child_time(spans: list[Span]) -> dict:
    """id(span) -> summed duration of its direct children."""
    out = {}
    for s in spans:
        if s.parent is not None:
            out[id(s.parent)] = out.get(id(s.parent), 0.0) + (s.end - s.start)
    return out


def check_invariants(spans: list[Span], slack: float = 1e-9) -> int:
    """Count spans that leave their parent's interval or have negative self time."""
    child_time = _child_time(spans)
    bad = 0
    for s in spans:
        p = s.parent
        if p is not None and (s.start < p.start - slack or s.end > p.end + slack):
            bad += 1
        if (s.end - s.start) - child_time.get(id(s), 0.0) < -slack:
            bad += 1
    return bad


def layer_totals(spans: list[Span]) -> dict:
    """Reduce one unit's spans to per-layer sums (not yet divided by units)."""
    tot: dict[str, float] = {}

    def add(key, v):
        tot[key] = tot.get(key, 0.0) + v

    child_time = _child_time(spans)
    for s in spans:
        dur = s.end - s.start
        self_s = dur - child_time.get(id(s), 0.0)
        info = s.info
        if s.name.startswith("fileio."):
            add("fileio.s", dur)
            continue
        add(f"{s.name}.calls", 1)
        add(f"{s.name}.s", dur)
        add(f"{s.name}.self_s", self_s)
        if s.name == "teacher.eval_batch":
            rows = info["rows"]
            add(f"teacher.queries.{_query_stage(s) or 'other'}", rows)
            add("teacher.eval_batch.flops_computed", 2 * rows * info["dim"] * info["m"])
            add("teacher.eval_batch.input_bytes_computed", rows * info["dim"] * 8)
        elif s.name == "subspace.action_batch":
            add("subspace.action_batch.columns", info["columns"])
        elif s.name == "numdiff.fd_hessian":
            d = info["dim"]
            add("numdiff.fd_hessian.stencil_bytes_computed", (2 * d * d + 1) * d * 8)
        elif s.name == "subspace.top_m_projector":
            add("subspace.sigma_ratio", info["sigma_ratio"])
        elif s.name == "spm.collect_weights":
            for k in ("processed", "accepted", "duplicate", "rejected", "steps"):
                add(f"spm.{k}", info[k])
        elif s.name == "shift_init.init_signs_shifts":
            add("shift_init.cond_g3", info["cond_g3"])
        elif s.name == "refine.refine":
            add("refine.steps", info["steps"])
            add("refine.sample_bytes_computed",
                info["n_train"] * (info["dim"] + info["m"]) * 8)
    return tot


def layer_metrics(tot: dict, n_units: int) -> dict:
    """Per-unit means of the summed layer totals, under the published names.

    Times are seconds per unit.  ``*.computed`` counts are derived from array
    shapes, not measured.  ``numdiff.fd_hessian.stencil_bytes_computed`` and
    ``refine.sample_bytes_computed`` are per call.
    """
    def g(key):
        return tot.get(key, 0.0)

    def per_call(key, calls):
        return g(key) / g(calls) if g(calls) else 0.0

    renamed = {
        "spm.restarts": "spm.processed",
        "spm.duplicates": "spm.duplicate",
        "spm.ascent_column_steps": "spm.steps",
        "shift_init.queries": "teacher.queries.init",
        "refine.queries": "teacher.queries.refine",
    }
    same = [
        "numdiff.fd_hessian.calls", "numdiff.fd_hessian.s", "numdiff.fd_hessian.self_s",
        "teacher.eval_batch.calls", "teacher.eval_batch.s",
        "teacher.eval_batch.flops_computed", "teacher.eval_batch.input_bytes_computed",
        "teacher.queries.hessians", "teacher.queries.init", "teacher.queries.refine",
        "teacher.queries.score",
        "subspace.build_hessian_matrix.s", "subspace.build_hessian_matrix.self_s",
        "subspace.top_m_projector.s", "subspace.action_batch.calls",
        "subspace.action_batch.columns", "subspace.action_batch.s",
        "spm.collect_weights.s", "spm.collect_weights.self_s", "spm.rejected",
        "shift_init.init_signs_shifts.s", "refine.refine.s", "refine.steps",
        "diagnostics.match_and_score.s", "pipeline.run_pipeline.self_s", "fileio.s",
    ]
    out = {name: g(renamed.get(name, name)) / n_units for name in [*same, *renamed]}
    out.update({
        "numdiff.fd_hessian.stencil_bytes_computed": per_call(
            "numdiff.fd_hessian.stencil_bytes_computed", "numdiff.fd_hessian.calls"),
        "subspace.sigma_ratio": per_call("subspace.sigma_ratio",
                                         "subspace.top_m_projector.calls"),
        "spm.accept_ratio": per_call("spm.accepted", "spm.processed"),
        "spm.ascent_steps_mean": per_call("spm.steps", "spm.processed"),
        "shift_init.cond_g3": per_call("shift_init.cond_g3",
                                       "shift_init.init_signs_shifts.calls"),
        "refine.us_per_step": 1e6 * per_call("refine.refine.s", "refine.steps"),
        "refine.sample_bytes_computed": per_call("refine.sample_bytes_computed",
                                                 "refine.refine.calls"),
    })
    return out
