"""Per-layer spans, recorded by wrappers installed from outside the package.

``Tracer.install`` replaces the functions of each layer module, and the
methods of the classes each module defines (``PAdicField`` and
``LaurentField`` overrides included), with timing wrappers.  A free function
is replaced in every ``umla`` module namespace that holds it, so a name
imported with ``from .x import f`` is traced too.  ``uninstall`` puts the
originals back; nothing under ``src/`` is edited.

A span opens where a call crosses from one layer into another; calls that
stay inside the current layer run unwrapped, so a layer's ``calls`` counts
entries into it.  Spans are kept in memory aggregated by calling context:
one record per (parent record, function) with its call count, total time
and the time covered by its child spans.  Self time is total minus child
time.  One round of the charsum workload crosses a layer boundary about
300 000 times, and one record per crossing over a run would not fit in a
small memory; the aggregate keeps the parent links and the sums that the
layer metrics need.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from collections import defaultdict

# module -> layer; the layers reported, bottom of the stack first
MODULES = {
    "umla.fields": "fields",
    "umla.cyclo": "cyclo",
    "umla.polys": "polys",
    "umla.schwartz": "schwartz",
    "umla.distribution": "distribution",
    "umla.fibers": "fibers",
    "umla.microlocal.phase": "microlocal.phase",
    "umla.microlocal.smoothness": "microlocal.smoothness",
    "umla.microlocal.wavefront": "microlocal.wavefront",
    "umla.microlocal.maps": "microlocal.maps",
    "umla.cexp.evaluate": "cexp.evaluate",
    "umla.cexp.family": "cexp.family",
}
LAYERS = tuple(MODULES.values())

# dunder methods that do a layer's work; the rest (hash, eq, repr) are left alone
WORK_DUNDERS = {"__init__", "__post_init__", "__add__", "__sub__", "__mul__", "__neg__", "__pow__"}

ID, PARENT, LAYER, NAME, CALLS, TOTAL, CHILD = range(7)


class Tracer:
    def __init__(self):
        self.nodes: list[list] = []
        self.kids: list[dict] = []
        self.counts: dict = defaultdict(int)
        self._patches: list = []
        root = self._node(None, "bench", "run")
        self.stack = [[root, 0.0]]

    def _node(self, parent, layer, name) -> int:
        nid = len(self.nodes)
        self.nodes.append([nid, parent, layer, name, 0, 0.0, 0.0])
        self.kids.append({})
        if parent is not None:
            self.kids[parent][name] = nid
        return nid

    # -- wrappers ----------------------------------------------------------

    def wrap(self, layer: str, name: str, fn, on_result=None, on_error=None):
        nodes, kids, stack, counts = self.nodes, self.kids, self.stack, self.counts
        clock = time.perf_counter
        new_node = self._node

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            top = stack[-1]
            parent = top[0]
            if nodes[parent][LAYER] == layer:
                try:
                    res = fn(*args, **kwargs)
                except Exception as exc:
                    if on_error is not None:
                        on_error(exc)
                    raise
                if on_result is not None:
                    on_result(res)
                return res
            nid = kids[parent].get(name)
            if nid is None:
                nid = new_node(parent, layer, name)
            frame = [nid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{layer}.raised.{type(exc).__name__}"] += 1
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                node = nodes[nid]
                node[CALLS] += 1
                node[TOTAL] += dt
                node[CHILD] += frame[1]
                stack[-1][1] += dt
            if on_result is not None:
                on_result(res)
            return res

        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        hooks = _hooks(self.counts)
        umla_mods = [m for n, m in sys.modules.items() if n.startswith("umla") and m]
        for modname, layer in MODULES.items():
            mod = importlib.import_module(modname)
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj.__module__ == modname:
                    pre, on_result, on_error = hooks.get(f"{modname}.{attr}", (None, None, None))
                    target = pre(obj) if pre else obj
                    wrapped = self.wrap(layer, attr, target, on_result, on_error)
                    for m in umla_mods:
                        for name, val in list(vars(m).items()):
                            if val is obj:
                                self._set(m, name, wrapped)
                elif isinstance(obj, type) and obj.__module__ == modname:
                    self._install_class(obj, modname, layer, hooks)

    def _install_class(self, cls, modname, layer, hooks) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("__") and attr not in WORK_DUNDERS:
                continue
            kind = type(raw)
            func = raw.__func__ if kind in (staticmethod, classmethod) else raw
            if not isinstance(func, types.FunctionType):
                continue
            qual = f"{cls.__name__}.{attr}"
            _, on_result, on_error = hooks.get(f"{modname}.{qual}", (None, None, None))
            wrapped = self.wrap(layer, qual, func, on_result, on_error)
            self._set(cls, attr, kind(wrapped) if kind in (staticmethod, classmethod) else wrapped)

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def layer_metrics(self) -> dict:
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for node in self.nodes[1:]:
            calls[node[LAYER]] += node[CALLS]
            self_s[node[LAYER]] += node[TOTAL] - node[CHILD]
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        return out

    def spans(self) -> list[dict]:
        return [
            {
                "id": n[ID],
                "parent": n[PARENT],
                "layer": n[LAYER],
                "name": n[NAME],
                "calls": n[CALLS],
                "total_s": n[TOTAL],
                "self_s": n[TOTAL] - n[CHILD],
            }
            for n in self.nodes[1:]
        ]


def _hooks(counts) -> dict:
    """(pre-wrapper, result hook, error hook) for functions with layer counters."""

    def counted_canonical(fn):
        def canonical(p, raw):
            raw = list(raw)
            out = fn(p, raw)
            counts["cyclo.canon.terms_in"] += len(raw)
            counts["cyclo.canon.terms_out"] += len(out)
            return out

        return canonical

    def cells_enumerated(res):
        counts["fields.cells_enumerated"] += len(res)

    def poly_eval(res):
        counts["polys.eval.calls"] += 1

    def cells_out(res):
        counts["schwartz.cells_out"] += len(res.cells)

    def budget_error(exc):
        if type(exc).__name__ == "CellBudgetError":
            counts["schwartz.budget_errors"] += 1

    def cluster_retry(exc):
        if type(exc).__name__ == "ClusterUnresolved":
            counts["fibers.cluster_retries"] += 1

    def phase_report(rep):
        counts["microlocal.phase.certified_cells"] += rep.certified_cells
        counts["microlocal.phase.integrals_checked"] += rep.verification["integrals_checked"]

    def verdict(res):
        counts[f"microlocal.smoothness.{res.kind}"] += 1

    def verdict_error(exc):
        counts["microlocal.smoothness.raised"] += 1

    def law_checks(rep):
        for row in rep.rows:
            if not row.error:
                counts["cexp.family.law_checks"] += 2 * row.trials - row.additivity_failures

    out = {
        "umla.cyclo._canonical": (counted_canonical, None, None),
        "umla.fields.LocalField.cell_reps": (None, cells_enumerated, None),
        "umla.polys.MultiPoly.eval_field": (None, poly_eval, None),
        "umla.polys.FieldPoly.eval": (None, poly_eval, None),
        "umla.fibers._fiber_points": (None, None, cluster_retry),
        "umla.microlocal.phase.stationary_phase_bound": (None, phase_report, None),
        "umla.microlocal.smoothness.is_smooth_at": (None, verdict, verdict_error),
        "umla.cexp.family.dis_sample": (None, law_checks, None),
    }
    for meth in ("refine", "fourier", "convolve", "normalized"):
        out[f"umla.schwartz.SchwartzBruhat.{meth}"] = (None, cells_out, budget_error)
    return out


def derived_counts(counts: dict) -> dict:
    """The layer counters reported as per-layer metrics."""
    tin = counts.get("cyclo.canon.terms_in", 0)
    smooth = counts.get("microlocal.smoothness.smooth", 0)
    rough = counts.get("microlocal.smoothness.not_smooth", 0)
    undecided = counts.get("microlocal.smoothness.undecided", 0)
    tried = smooth + rough + undecided + counts.get("microlocal.smoothness.raised", 0)
    return {
        "cyclo.canon.terms_in": tin,
        "cyclo.canon.terms_out": counts.get("cyclo.canon.terms_out", 0),
        "cyclo.canon.out_per_in": counts.get("cyclo.canon.terms_out", 0) / tin if tin else 0.0,
        "fields.cells_enumerated": counts.get("fields.cells_enumerated", 0),
        "polys.eval.calls": counts.get("polys.eval.calls", 0),
        "schwartz.cells_out": counts.get("schwartz.cells_out", 0),
        "schwartz.budget_errors": counts.get("schwartz.budget_errors", 0),
        "fibers.cluster_retries": counts.get("fibers.cluster_retries", 0),
        "microlocal.phase.certified_cells": counts.get("microlocal.phase.certified_cells", 0),
        "microlocal.phase.integrals_checked": counts.get("microlocal.phase.integrals_checked", 0),
        "microlocal.smoothness.decided_frac": (smooth + rough) / tried if tried else 0.0,
        "cexp.family.law_checks": counts.get("cexp.family.law_checks", 0),
    }
