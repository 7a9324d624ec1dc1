"""Spans recorded from the benchmark's own files, around the calls into
each layer of ``repro`` (nothing under ``src/`` is edited).

A :class:`Recorder` keeps one record per call of a wrapped callable —
name, start, end, the span that caused it, and the step it belongs to —
in memory; :func:`ledger` turns them into self times (a span's duration
minus the part its child spans cover), which by construction sum to the
wall time of the root ``Crocco.step`` span.

Every execution-backend launch is two spans: ``launch.<kernel class>``
(layer ``backend``) around the whole ``parallel_for`` call and ``body``
around the kernel body inside it.  The launch's self time is therefore
the launch overhead, and the body's time is credited to the layer that
issued the launch.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Callable, Dict, List, Tuple

ROOT_SPAN = "core.step"
BODY_SPAN = "body"
LAUNCH_PREFIX = "launch."

#: span name -> (module, dotted attribute) of each wrapped public callable
TARGETS: Dict[str, List[Tuple[str, str]]] = {
    ROOT_SPAN: [("repro.core.crocco", "Crocco.step")],
    "resilience.watchdog": [
        ("repro.resilience.watchdog", "StepWatchdog.guarded_advance")],
    # rk3graph.build_stage_graph, through the name the engine calls it by
    "runtime.graph_build": [("repro.runtime.engine", "build_stage_graph")],
    "runtime.schedule": [("repro.runtime.scheduler", "Scheduler.run")],
    "amr.fillboundary_nowait": [
        ("repro.amr.fillpatch", "FillPatchOp.post_fillboundary")],
    "amr.fillboundary_finish": [
        ("repro.amr.fillpatch", "FillPatchOp.finish_fillboundary")],
    "amr.parallelcopy_coords": [
        ("repro.amr.fillpatch", "FillPatchOp.post_coords")],
    "amr.interp": [("repro.amr.fillpatch", "FillPatchOp.interp_fab")],
    "amr.average_down": [("repro.amr.average_down", "average_down")],
    "amr.regrid": [("repro.amr.amrcore", "AmrCore.regrid")],
    "amr.regrid_tag": [("repro.core.crocco", "Crocco.error_est")],
    "amr.regrid_remake": [
        ("repro.core.crocco", "Crocco.remake_level"),
        ("repro.core.crocco", "Crocco.make_new_level_from_coarse")],
    "kernels.rhs": [("repro.kernels.api", "KernelSet.rhs")],
    "kernels.update": [("repro.kernels.api", "KernelSet.update")],
    "kernels.max_rate": [("repro.kernels.api", "KernelSet.max_rate")],
    # numerics.cfl.compute_dt, through the name the driver calls it by
    "numerics.compute_dt": [("repro.core.crocco", "compute_dt")],
    "backend.parallel_for": [
        ("repro.backend.launch", "ExecutionBackend.parallel_for")],
    "backend.reduce_data": [
        ("repro.backend.launch", "ExecutionBackend.reduce_data")],
}
#: the case's boundary fill is wrapped on the class of the case at hand
CASE_SPAN = "cases.bc_fill"

#: Regrid is reported inclusively: everything that runs under one of
#: these spans (FillPatch for the tagging, interpolation into the new
#: level, launches) is credited to it, not to the layer that did the work
INCLUSIVE = ("amr.regrid", "amr.regrid_tag", "amr.regrid_remake")


class Recorder:
    """In-memory span store; records are
    ``[name, start, end, parent id, step index, points]``."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: List[list] = []
        self.clock = clock
        self._stack: List[int] = []
        self._step = -1   # spans outside any Crocco.step (set-up) carry -1
        self._nsteps = 0

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with a span around every call, closed on exceptions too."""
        spans, stack, clock = self.spans, self._stack, self.clock
        root = name == ROOT_SPAN

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if root:
                self._step = self._nsteps
                self._nsteps += 1
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._step, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if root:
                    self._step = -1

        return wrapper

    def wrap_parallel_for(self, fn: Callable) -> Callable:
        """``ExecutionBackend.parallel_for`` as a launch span plus a span
        around the kernel body it is handed (written out, not built from
        :meth:`wrap`: this runs ~2,000 times per step)."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def parallel_for(backend, name, body, npoints, spec=None, **kwargs):
            cls = (spec.kernel_class if spec is not None
                   else kwargs.get("kernel_class", "flux"))
            sid = len(spans)
            rec = [LAUNCH_PREFIX + cls, 0.0, 0.0,
                   stack[-1] if stack else -1, self._step, npoints]
            brec = [BODY_SPAN, 0.0, 0.0, sid, self._step, 0]

            def timed_body():
                stack.append(len(spans))
                spans.append(brec)
                brec[1] = clock()
                try:
                    return body()
                finally:
                    brec[2] = clock()
                    stack.pop()

            stack.append(sid)
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(backend, name, timed_body, npoints, spec, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return parallel_for


def _resolve(module: str, dotted: str):
    """(owner object, attribute name, current value) of a wrap target."""
    owner = importlib.import_module(module)
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def install(recorder: Recorder, case_cls=None):
    """Wrap every target; returns ``(missing, uninstall)``.

    ``missing`` lists the span names that could not be wrapped: a target
    that no longer resolves costs only the metrics built on its span — it
    is reported in one warning line and the run goes on.  ``uninstall()``
    puts the original callables back.
    """
    targets = dict(TARGETS)
    if case_cls is not None:
        targets[CASE_SPAN] = [(case_cls.__module__,
                               f"{case_cls.__qualname__}.bc_fill")]
    undo, missing = [], []
    for name, places in targets.items():
        for module, dotted in places:
            try:
                owner, attr, fn = _resolve(module, dotted)
            except (ImportError, AttributeError):
                print(f"warning: {module}:{dotted} not found; metrics from "
                      f"span {name!r} will be null", file=sys.stderr)
                missing.append(name)
                continue
            if name == "backend.parallel_for":
                wrapped = recorder.wrap_parallel_for(fn)
            elif name == "backend.reduce_data":
                # a launch with no separable body: the reduction itself
                # runs inside the target
                wrapped = recorder.wrap(fn, LAUNCH_PREFIX + "reduction")
            else:
                wrapped = recorder.wrap(fn, name)
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, fn))

    def uninstall() -> None:
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)

    return sorted(set(missing)), uninstall


def ledger(spans: List[list], nsteps: int) -> dict:
    """Self time of every span of every step, and who is credited with it.

    Returns ``{"self_s": [[s per span] per step], "credit": [[index into
    names per span] per step], "names": [...], "calls": {name: [n per
    step]}, "points": {name: [points per step]}}``, spans in the order
    they were opened.  The ``self_s`` of one step sum to the duration of
    its root span exactly (up to float rounding): the ledger is closed.
    Spans recorded outside a step (set-up) are left out.
    """
    n = len(spans)
    child_s = [0.0] * n
    credit: List[str] = [""] * n
    for i, (name, start, end, parent, _step, _pts) in enumerate(spans):
        if parent >= 0:
            child_s[parent] += end - start
        if name in INCLUSIVE:
            credit[i] = name
        elif parent >= 0 and credit[parent] in INCLUSIVE:
            credit[i] = credit[parent]
        elif name == BODY_SPAN:
            # the kernel body belongs to whoever issued the launch
            issuer = spans[parent][3]
            credit[i] = credit[issuer] if issuer >= 0 else "outside"
        elif name.startswith(LAUNCH_PREFIX):
            credit[i] = "backend.launch"
        else:
            credit[i] = name
    names = sorted(set(credit))
    index = {name: j for j, name in enumerate(names)}
    self_s: List[List[float]] = [[] for _ in range(nsteps)]
    credit_of: List[List[int]] = [[] for _ in range(nsteps)]
    calls: Dict[str, List[int]] = {}
    points: Dict[str, List[int]] = {}
    for i, (name, start, end, _parent, step, pts) in enumerate(spans):
        if not 0 <= step < nsteps:
            continue
        self_s[step].append(end - start - child_s[i])
        credit_of[step].append(index[credit[i]])
        if name != BODY_SPAN:
            calls.setdefault(name, [0] * nsteps)[step] += 1
            if pts:
                points.setdefault(name, [0] * nsteps)[step] += pts
    return {"self_s": self_s, "credit": credit_of, "names": names,
            "calls": calls, "points": points}


def write_jsonl(spans: List[list], path) -> None:
    """One span per line: id, name, layer, start, end, parent, step."""
    with open(path, "w") as out:
        for i, (name, start, end, parent, step, pts) in enumerate(spans):
            layer = ("backend" if name.startswith(LAUNCH_PREFIX)
                     else name.split(".")[0])
            out.write(json.dumps({
                "id": i, "name": name, "layer": layer, "start": start,
                "end": end, "parent": parent, "step": step,
                "points": pts}) + "\n")
