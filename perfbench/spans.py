"""Spans around calls into riplab's public functions, recorded from outside.

A span is (id, name, start, end, parent, op, counts).  Spans stay in
memory while the workload runs and are written out once at the end.
Counts are work measured at the same boundary (supports, iterations,
probes, ...), taken from the call's arguments or its result.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import math
import sys
import threading
from collections import defaultdict
from time import perf_counter


def _arg(bound, name):
    return bound.arguments[name]


def _rip_exact_supports(b, r):
    return {"spectral.exact_supports": math.comb(_arg(b, "m").n, _arg(b, "sparsity"))}


# The ADMM solver's default iteration cap (riplab.recon._l1_iterative).
L1_ITERATION_CAP = 100_000


def _l1_counts(b, r):
    return {"recon.l1_solves": 1, "recon.l1_iterations": r.iterations,
            "recon.l1_capped": int(r.iterations >= L1_ITERATION_CAP)}


def _cells(b, r):
    spec = _arg(b, "spec")
    return {"ensembles.cells": r.shape[0] * spec.k * spec.n}


# (module, function, span name, counts from (bound arguments, result)).
# Every riplab module that imported the function by name gets the same
# wrapper, so calls through cli, recon and nets are seen too.
TARGETS = (
    ("riplab.cli", "main", "cli.main", None),
    ("riplab._util", "parallel_map", "util.parallel_map", None),
    ("riplab.ensembles", "generate", "ensembles.generate",
     lambda b, r: {"ensembles.rows": r.k}),
    ("riplab.ensembles", "sample_matrix_chunk", "ensembles.sample_matrix_chunk", _cells),
    ("riplab.spectral", "rip_monte_carlo", "spectral.rip_monte_carlo",
     lambda b, r: {"spectral.mc_supports": _arg(b, "trials")}),
    ("riplab.spectral", "rip_exact", "spectral.rip_exact", _rip_exact_supports),
    ("riplab.spectral", "gram_extremal_eigs", "spectral.gram_extremal_eigs", None),
    ("riplab.spectral", "verify_on_net", "spectral.verify_on_net", None),
    ("riplab.recon", "recon_experiment", "recon.recon_experiment", None),
    ("riplab.recon", "l1_minimize", "recon.l1_minimize", _l1_counts),
    ("riplab.recon", "kernel_diameter_lower", "recon.kernel_diameter_lower", None),
    ("riplab.recon", "kernel_diameter_upper", "recon.kernel_diameter_upper",
     lambda b, r: {"recon.cert_certified": int(r.certified)}),
    ("riplab.nets", "greedy_separated_net", "nets.greedy_separated_net",
     lambda b, r: {"nets.net_points": len(r)}),
    ("riplab.nets", "sparse_set_net", "nets.sparse_set_net",
     lambda b, r: {"nets.net_points": len(r)}),
    ("riplab.nets", "cover_check", "nets.cover_check",
     lambda b, r: {"nets.probes": _arg(b, "probes")}),
    ("riplab.nets", "hull_decompose", "nets.hull_decompose", None),
    ("riplab.geometry", "sample_ambient_batch", "geometry.sample_ambient_batch",
     lambda b, r: {"geometry.samples": _arg(b, "count")}),
    ("riplab.geometry", "member", "geometry.member", None),
    ("riplab.concentration", "tail_profile", "concentration.tail_profile", None),
)


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._undo: list[tuple] = []

    # -- thread-local context: the open span stack and the operation id --

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_op(self, op: int) -> None:
        self._local.op = op

    def _op(self) -> int:
        return getattr(self._local, "op", -1)

    # -- wrapping --

    def _wrap(self, name, fn, counts):
        sig = inspect.signature(fn) if counts else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            sid = next(tracer._ids)
            op = tracer._op()
            if name == "util.parallel_map":
                args, kwargs = tracer._adopt(sid, op, args, kwargs)
            stack.append(sid)
            extra = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                extra = {"raised": type(exc).__name__}
                raise
            finally:
                end = perf_counter()
                stack.pop()
                if extra is None and counts is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    extra = counts(bound, result)
                tracer.spans.append((sid, name, start, end, parent, op, extra))
            return result

        return wrapper

    def _adopt(self, sid, op, args, kwargs):
        """Make spans opened in pool threads children of the map's span."""
        fn = args[0] if args else kwargs.pop("fn")
        tracer = self

        def adopted(item):
            saved = (getattr(tracer._local, "stack", None), tracer._op())
            tracer._local.stack = [sid]
            tracer.set_op(op)
            try:
                return fn(item)
            finally:
                tracer._local.stack, tracer._local.op = saved

        return (adopted,) + tuple(args[1:]), kwargs

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "riplab" or n.startswith("riplab.")]
        for mod_name, attr, name, counts in TARGETS:
            orig = getattr(importlib.import_module(mod_name), attr)
            wrapper = self._wrap(name, orig, counts)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, orig))

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._undo):
            setattr(mod, key, orig)
        self._undo.clear()

    # -- results --

    def self_times(self) -> dict[int, float]:
        """Span duration minus the part of it that child spans cover."""
        children = defaultdict(list)
        for sid, _, start, end, parent, _, _ in self.spans:
            children[parent].append((start, end))
        out = {}
        for sid, _, start, end, _, _, _ in self.spans:
            covered, reach = 0.0, start
            for lo, hi in sorted(children.get(sid, ())):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[sid] = (end - start) - covered
        return out

    def layer_totals(self) -> dict[str, float]:
        """Busy seconds per span name (`<name>_s`), call counts and work counts."""
        totals: dict[str, float] = defaultdict(float)
        selfs = self.self_times()
        for sid, name, start, end, _, _, extra in self.spans:
            totals[name + "_s"] += end - start
            totals[name + ".calls"] += 1
            totals[name + ".self_s"] += selfs[sid]
            for key, value in (extra or {}).items():
                if key == "raised":
                    totals[f"{name}.raised.{value}"] += 1
                else:
                    totals[key] += value
        return dict(totals)

    def write(self, path) -> None:
        selfs = self.self_times()
        with open(path, "w") as fh:
            for sid, name, start, end, parent, op, extra in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "self": selfs[sid],
                                     "parent": parent, "op": op,
                                     "counts": extra}) + "\n")
