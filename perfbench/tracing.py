"""Spans around calls into blockrat's public functions, and per-layer metrics from them.

`Tracer.installed()` rebinds each traced function where its callers look it
up (the defining module, or the module that imported it by name) and each
model class's `__call__`, and restores them on exit.  Spans are kept in
memory as tuples; `layer_metrics` reduces the spans of one pass to the
per-layer metrics named in BENCHMARK.json.
"""

import contextlib
import functools
import time

from workloads import MODULES

COMPLEX_BYTES = 16
REAL_BYTES = 8
AAA_METHODS = ("aaa-scalar", "set-valued-aaa", "surrogate-aaa")


def _svd_attrs(M, *args, **kwargs):
    rows, cols = M.shape
    return {"rows": rows, "cols": cols}


def _trailing_attrs(M, m, *args, **kwargs):
    return {"m": m}


def _loewner_attrs(samples, d, *args, **kwargs):
    return {"d": d}


def cell_attrs(cell, inputs):
    return {"cell": cell.key}


# (module, attribute, span name, attrs(args) or None).  A function imported by
# name into another module is rebound there too, since that is where its
# callers find it.
FUNCTIONS = [
    ("aaa", "aaa_scalar", "aaa.fit", None),
    ("aaa", "set_valued_aaa", "aaa.fit", None),
    ("aaa", "surrogate_aaa", "aaa.fit", None),
    ("block_aaa", "block_aaa", "block_aaa.fit", None),
    ("block_aaa", "solve_weights_baryB", "barycentric.solve_weights_baryB", None),
    ("barycentric", "solve_weights_baryC", "barycentric.solve_weights_baryC", None),
    ("barycentric", "trailing_left_singular_block", "kernels.trailing_left_singular_block",
     _trailing_attrs),
    ("kernels", "svd_full", "kernels.svd", _svd_attrs),
    ("loewner", "svd_full", "kernels.svd", _svd_attrs),
    ("rkfit", "lstsq", "kernels.lstsq", None),
    ("kernels", "gen_eig", "kernels.gen_eig", None),
    ("vecfit", "vf_matrix", "vecfit.fit", None),
    ("rkfit", "rkfit_fit", "rkfit.fit", None),
    ("rkfit", "build_basis", "rkfit.build_basis", None),
    ("rkfit", "relocate_poles", "rkfit.relocate_poles", None),
    ("loewner", "loewner_block", "loewner.fit", _loewner_attrs),
    ("linearize", "build_pencil", "linearize.build_pencil", None),
    ("rkfit", "build_pencil", "linearize.build_pencil", None),
    ("linearize", "nonlinear_eigs_baryC", "linearize.nonlinear_eigs_baryC", None),
    ("core", "rmse", "core.rmse", None),
]

# (module, class, span name): model evaluation at one point
MODELS = [
    ("barycentric", "ScalarBarycentric", "barycentric.eval"),
    ("barycentric", "BlockBaryA", "barycentric.eval"),
    ("barycentric", "BlockBaryB", "barycentric.eval"),
    ("barycentric", "BlockBaryC", "barycentric.eval"),
    ("vecfit", "PoleResidue", "vecfit.eval"),
    ("loewner", "LoewnerModel", "loewner.eval"),
]

# (metric, unit); BENCHMARK.json lists the same names under per_layer
PER_LAYER = [
    ("kernels.svd.calls", "count"),
    ("kernels.svd.s", "s"),
    ("kernels.svd.out_bytes", "bytes"),
    ("kernels.svd.used_frac", "ratio"),
    ("kernels.lstsq.calls", "count"),
    ("kernels.lstsq.s", "s"),
    ("kernels.gen_eig.s", "s"),
    ("barycentric.eval.calls", "count"),
    ("barycentric.eval.s", "s"),
    ("barycentric.eval.errors", "count"),
    ("barycentric.solve_weights_baryB.calls", "count"),
    ("barycentric.solve_weights_baryB.s", "s"),
    ("barycentric.solve_weights_baryC.s", "s"),
    ("aaa.fit.self_s", "s"),
    ("aaa.support_points", "count"),
    ("block_aaa.fit.self_s", "s"),
    ("block_aaa.iterations", "count"),
    ("block_aaa.skipped", "count"),
    ("vecfit.fit.self_s", "s"),
    ("vecfit.eval.calls", "count"),
    ("vecfit.eval.s", "s"),
    ("rkfit.build_basis.s", "s"),
    ("rkfit.relocate_poles.s", "s"),
    ("rkfit.rmse_in_fit.s", "s"),
    ("rkfit.fit.self_s", "s"),
    ("loewner.fit.self_s", "s"),
    ("loewner.eval.calls", "count"),
    ("loewner.eval.s", "s"),
    ("linearize.build_pencil.calls", "count"),
    ("linearize.build_pencil.s", "s"),
    ("linearize.nonlinear_eigs_baryC.s", "s"),
    ("core.rmse.calls", "count"),
    ("core.rmse.self_s", "s"),
    ("tracing_overhead_s", "s"),
]


class Tracer:
    """Records spans (name, parent index, start, end, error type, attrs) in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def reset(self):
        self.spans = []

    def _open(self):
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid

    def _close(self, sid, name, t0, err, attrs):
        t1 = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[sid] = (name, parent, t0, t1, err, attrs)

    def wrap(self, fn, name, attrs_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open()
            t0 = time.perf_counter()
            err = None
            try:
                return fn(*args, **kwargs)
            except Exception as e:
                err = type(e).__name__
                raise
            finally:
                attrs = attrs_of(*args, **kwargs) if attrs_of else None
                self._close(sid, name, t0, err, attrs)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced function and model `__call__`; restore them on exit."""
        saved = []
        try:
            for mod, attr, name, attrs_of in FUNCTIONS:
                target = MODULES[mod]
                saved.append((target, attr, getattr(target, attr)))
                setattr(target, attr, self.wrap(getattr(target, attr), name, attrs_of))
            for mod, cls_name, name in MODELS:
                cls = getattr(MODULES[mod], cls_name)
                saved.append((cls, "__call__", cls.__dict__["__call__"]))
                cls.__call__ = self.wrap(cls.__dict__["__call__"], name)
            yield self
        finally:
            for target, attr, original in reversed(saved):
                setattr(target, attr, original)


def layer_metrics(spans, outcomes):
    """Per-layer metrics of one pass, from its spans and its cell outcomes.

    `outcomes` maps each cell to its Outcome; counts that the fitters return
    (support points, iterations, skips) come from there.
    """
    child_s = [0.0] * len(spans)
    for name, parent, t0, t1, err, attrs in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
    calls, total, self_s, errors = {}, {}, {}, {}
    svd_out = svd_vec = svd_used = 0
    rmse_in_fit = 0.0
    for i, (name, parent, t0, t1, err, attrs) in enumerate(spans):
        dur = t1 - t0
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + dur - child_s[i]
        if err == "EvaluationError":
            errors[name] = errors.get(name, 0) + 1
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "kernels.svd":
            r, c = attrs["rows"], attrs["cols"]
            vec = COMPLEX_BYTES * (r * r + c * c)  # full_matrices: u is r x r, v is c x c
            svd_out += vec + REAL_BYTES * min(r, c)
            svd_vec += vec
            if parent_name == "kernels.trailing_left_singular_block":
                svd_used += COMPLEX_BYTES * r * spans[parent][5]["m"]  # the last m columns of u
            elif parent_name == "loewner.fit":
                svd_used += COMPLEX_BYTES * (r + c) * spans[parent][5]["d"]  # d columns of u and v
            else:
                svd_used += vec
        elif name == "core.rmse" and parent_name == "rkfit.fit":
            rmse_in_fit += dur

    special = {
        "kernels.svd.out_bytes": svd_out,
        "kernels.svd.used_frac": svd_used / svd_vec if svd_vec else 0.0,
        "barycentric.eval.errors": errors.get("barycentric.eval", 0),
        "aaa.support_points": sum(o.order + 1 for c, o in outcomes.items()
                                  if o.status == "ok" and c.method in AAA_METHODS),
        "block_aaa.iterations": sum(o.iterations for o in outcomes.values()),
        "block_aaa.skipped": sum(o.skipped for o in outcomes.values()),
        "rkfit.rmse_in_fit.s": rmse_in_fit,
    }
    # every other metric is SPAN.calls, SPAN.s (total time) or SPAN.self_s
    by_suffix = {"calls": calls, "s": total, "self_s": self_s}
    metrics = {}
    for metric, unit in PER_LAYER:
        if metric in special:
            metrics[metric] = special[metric]
        elif metric != "tracing_overhead_s":  # traced minus untraced, from run.py
            span, suffix = metric.rsplit(".", 1)
            metrics[metric] = by_suffix[suffix].get(span, 0 if suffix == "calls" else 0.0)
    return metrics
