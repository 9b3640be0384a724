"""Outside-in span tracer for the neilcone package.

Nothing in the package is edited.  While a ``Tracer`` is installed, every
public function of the six layer modules (plus the named solver loops in
``cone``) is replaced by a wrapper that records one span per call: name,
parent span, start and end.  The wrapper is written into every neilcone
module namespace, and every module-level dict, that holds the original, so
``cone.dual_search`` and ``cli.dual_search`` are both traced and so is the
subcommand table in ``cli``.  Leaving the context puts every original back.

A span's self time is its duration minus the part of it that its children
cover; a layer's self time is the sum over its spans.  Solver iterations
are attributed by the function that called ``linalg.psd_project_batch``:
each Douglas-Rachford, ADMM and polish iteration makes exactly one call.
"""

from __future__ import annotations

import functools
import math
import sys
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("linalg", "kernels", "cone", "gns", "dilation", "cli")

# Private functions traced as well: the solver loops whose time the
# per-layer metrics report.
PRIVATE = {
    "cone": ("_dr_run", "_admm_min_violation", "_dual_polish",
             "_mixed_with_identity"),
}

# Caller of psd_project_batch -> iteration counter it feeds.
ITERATION_CALLERS = {
    "_dr_run": "dr_iters",
    "_admm_min_violation": "admm_iters",
    "_dual_polish": "polish_iters",
}

NAME, PARENT, START, END, INFO = range(5)


class Tracer:
    """Spans of one process, kept in memory until they are summarized."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end, info]
        self._stack: list[int] = []

    def span(self, name: str, func):
        """Wrap ``func`` so that each call records a span named ``name``."""
        spans, stack = self.spans, self._stack
        call_info = CALL_INFO.get(name)
        result_info = RESULT_INFO.get(name)
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            if call_info is not None:
                record[INFO] = call_info(sys._getframe(1), args)
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if result_info is not None:
                record[INFO] = result_info(result)
            return result

        return wrapper


# Facts recorded at call time, from the caller's frame and the arguments.
def _eig_info(frame, args):
    shape = getattr(args[0], "shape", ())
    return shape[0], shape[-1]


CALL_INFO = {
    "linalg.herm_eig_batch": _eig_info,
    "linalg.psd_project_batch": lambda frame, args: frame.f_code.co_name,
    "cone.margins": lambda frame, args: args[1].shape[0],
    "gns.rep_norm_sweep": lambda frame, args: len(args[1]),
}

# Facts recorded from the result.
RESULT_INFO = {
    "cone.primal_feasibility": lambda r: type(r).__name__,
    "cone.dual_search": lambda r: r is not None,
}


def _traced_functions(modules: dict) -> dict:
    """Map each original function to its span name."""
    names = {}
    for layer in LAYERS:
        mod = modules[layer]
        private = PRIVATE.get(layer, ())
        for attr, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                    and (not attr.startswith("_") or attr in private)):
                names[obj] = "%s.%s" % (layer, attr)
    return names


@contextmanager
def installed(tracer: Tracer, modules: dict):
    """Trace the package while the context is open.

    ``modules`` maps each layer name to its module object.  Every loaded
    ``neilcone`` module is searched for references to traced functions,
    as attributes and as values of module-level dicts.
    """
    wrappers = {orig: tracer.span(name, orig)
                for orig, name in _traced_functions(modules).items()}
    undo = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "neilcone"
                               or modname.startswith("neilcone.")):
            continue
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
                undo.append((vars(mod), attr, obj))
            elif isinstance(obj, dict) and not attr.startswith("__"):
                for key, val in list(obj.items()):
                    if isinstance(val, types.FunctionType) and val in wrappers:
                        obj[key] = wrappers[val]
                        undo.append((obj, key, val))
    try:
        yield wrappers
    finally:
        for table, key, orig in reversed(undo):
            table[key] = orig


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        lo, hi = span[START], span[END]
        covered = 0.0
        reach = lo
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                covered += end - start
                reach = end
        out.append((hi - lo) - covered)
    return out


def _enclosing(spans, i: int, name: str) -> int:
    """Index of the nearest ancestor of span i called ``name``, or -1."""
    p = spans[i][PARENT]
    while p >= 0 and spans[p][NAME] != name:
        p = spans[p][PARENT]
    return p


def summarize(spans) -> dict:
    """Per-function totals and the derived per-layer metrics.

    Returns {"functions": {name: {"calls", "total_s", "self_s"}},
    "layers": {layer: self_s}, "metrics": {metric: value}}.  ``total_s``
    of a function that calls itself would count the inner calls twice;
    none here do.
    """
    selfs = self_times(spans)
    funcs: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    layers: Counter = Counter()
    for span, own in zip(spans, selfs):
        f = funcs[span[NAME]]
        f["calls"] += 1
        f["total_s"] += span[END] - span[START]
        f["self_s"] += own
        layers[span[NAME].split(".", 1)[0]] += own

    m: dict = {}
    eig_matrices = eig_n3 = 0
    iters: Counter = Counter()
    wasted = 0
    primal_useful = primal_calls = dual_found = dual_calls = 0
    margins_generators = sweep_rows = 0
    for i, span in enumerate(spans):
        name, info = span[NAME], span[INFO]
        if name == "linalg.herm_eig_batch":
            b, n = info
            eig_matrices += b
            eig_n3 += b * n ** 3
        elif name == "linalg.psd_project_batch" and info in ITERATION_CALLERS:
            iters[ITERATION_CALLERS[info]] += 1
            if info == "_dr_run":
                p = _enclosing(spans, i, "cone.primal_feasibility")
                if p >= 0 and spans[p][INFO] == "Undecided":
                    wasted += 1
        elif name == "cone.margins":
            margins_generators += info
        elif name == "gns.rep_norm_sweep":
            sweep_rows += info
        elif name == "cone.primal_feasibility":
            primal_calls += 1
            primal_useful += info == "Feasible"
        elif name == "cone.dual_search":
            dual_calls += 1
            dual_found += bool(info)

    def calls(fn):
        return funcs[fn]["calls"] if fn in funcs else 0

    def total(fn):
        return funcs[fn]["total_s"] if fn in funcs else 0.0

    m["linalg.eig_calls"] = calls("linalg.herm_eig_batch")
    m["linalg.eig_matrices"] = eig_matrices
    m["linalg.eig_n3_computed"] = eig_n3
    m["linalg.eig_s"] = total("linalg.herm_eig_batch")
    m["linalg.eig_us_per_matrix"] = (1e6 * m["linalg.eig_s"] / eig_matrices
                                     if eig_matrices else math.nan)
    m["linalg.eigvals_s"] = total("linalg.herm_eigvals_batch")
    m["linalg.psd_project_calls"] = calls("linalg.psd_project_batch")
    m["linalg.psd_project_s"] = total("linalg.psd_project_batch")
    m["linalg.from_lower_calls"] = calls("linalg.from_lower")
    m["linalg.from_lower_s"] = total("linalg.from_lower")
    m["kernels.test_fn_calls"] = calls("kernels.test_fn")
    m["kernels.test_fn_s"] = total("kernels.test_fn")
    m["cone.primal_calls"] = primal_calls
    m["cone.primal_s"] = total("cone.primal_feasibility")
    m["cone.dual_calls"] = dual_calls
    m["cone.dual_s"] = total("cone.dual_search")
    for key in ("dr", "admm", "polish"):
        m["cone.%s_iters" % key] = iters["%s_iters" % key]
    m["cone.dr_s"] = total("cone._dr_run")
    m["cone.admm_s"] = total("cone._admm_min_violation")
    m["cone.polish_s"] = total("cone._dual_polish")
    m["cone.primal_wasted_iters"] = wasted
    m["cone.primal_useful_ratio"] = (primal_useful / primal_calls
                                     if primal_calls else math.nan)
    m["cone.dual_found_ratio"] = (dual_found / dual_calls
                                  if dual_calls else math.nan)
    m["cone.margins_calls"] = calls("cone.margins")
    m["cone.margins_generators"] = margins_generators
    m["cone.margins_s"] = total("cone.margins")
    m["cone.validate_calls"] = calls("cone.validate_certificate")
    m["cone.validate_s"] = total("cone.validate_certificate")
    m["cone.grid_build_s"] = (total("cone.default_grid")
                              + total("cone.validation_grid"))
    m["gns.sweep_rows"] = sweep_rows
    m["gns.sweep_s"] = total("gns.rep_norm_sweep")
    m["gns.build_s"] = total("gns.build_gns")
    m["gns.deficiency_s"] = total("gns.amplified_deficiency")
    m["gns.noxy_s"] = total("gns.build_noxy")
    m["dilation.naimark_s"] = total("dilation.naimark")
    # variety_verdict calls variety_check; count the nested sweep once.
    m["dilation.variety_s"] = total("dilation.variety_verdict") + sum(
        span[END] - span[START] for span in spans
        if span[NAME] == "dilation.variety_check"
        and (span[PARENT] < 0
             or spans[span[PARENT]][NAME] != "dilation.variety_verdict"))
    m["dilation.ccverify_s"] = total("dilation.cc_dilation_verify")
    for fn in funcs:
        if fn.startswith("cli.cmd_"):
            m["cli.%s_s" % fn[len("cli.cmd_"):]] = funcs[fn]["total_s"]
    for layer in LAYERS:
        m["%s.self_s" % layer] = layers[layer]
    return {
        "functions": {k: dict(v) for k, v in sorted(funcs.items())},
        "layers": {k: layers[k] for k in LAYERS},
        "metrics": m,
    }


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds over a bare call, measured here."""
    def bare():
        return None

    tracer = Tracer()
    traced = tracer.span("probe", bare)
    t0 = time.perf_counter()
    for _ in range(calls):
        bare()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls
