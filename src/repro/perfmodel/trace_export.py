"""Export simulated-Summit scaling runs in the unified trace/metrics schema.

The weak-scaling driver models each Table-I configuration as one solver
iteration (Fig. 6's region decomposition, Fig. 7's FillPatch split).
This module writes those modeled iterations into the same artifacts a
functional run records — the regions as charged spans on a
:class:`Tracer`'s simulated clock, the per-step values in a
:class:`MetricsRegistry` — so a simulated run directory holds the *same*
``trace.json`` / ``metrics.jsonl`` artifacts (charged time instead of wall
time) and ``python -m repro.report`` regenerates the Fig. 6/7
decompositions from the artifacts alone.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from repro.core.versions import get_version
from repro.observability.metrics import MetricsRegistry
from repro.observability.recorder import METRICS_NAME, TRACE_NAME
from repro.observability.tracer import Tracer
from repro.perfmodel.calibration import CAL, Calibration
from repro.perfmodel.execution import (
    IterationBreakdown,
    fillpatch_split,
    simulate_iteration,
)
from repro.perfmodel.scaling import TABLE1, _cached_hierarchy


def charge_iteration(tracer: Tracer, bd: IterationBreakdown,
                     split: Optional[Dict[str, float]] = None) -> None:
    """Charge one modeled iteration into a tracer, Fig. 6/7-shaped.

    Produces the same region nest a functional step produces: top-level
    Advance / FillPatch / ComputeDt / AverageDown / Regrid, with
    FillBoundary and ParallelCopy nested under FillPatch (and the
    nowait/finish sub-split below those when ``split`` is given).  Each
    span's ``args.path`` is its region path, as a functional run's.
    """
    def charge(path: str, seconds: float) -> None:
        tracer.charge(path.rsplit("/", 1)[-1], seconds,
                      args={"path": path, "calls": 1})

    charge("Advance", bd.advance)
    tracer.begin_charged("FillPatch", args={"path": "FillPatch"})
    for part, total in (("FillBoundary", bd.fillboundary),
                        ("ParallelCopy", bd.parallelcopy)):
        path = f"FillPatch/{part}"
        tracer.begin_charged(part, args={"path": path})
        if split is not None:
            for phase in ("nowait", "finish"):
                charge(f"{path}/{part}_{phase}", split[f"{part}_{phase}"])
        else:
            charge(f"{path}/{part}_total", total)
        tracer.end_charged()
    tracer.end_charged()
    charge("ComputeDt", bd.computedt)
    charge("AverageDown", bd.averagedown)
    charge("Regrid", bd.regrid)


def export_weak_scaling(
    out_dir,
    version: str = "2.1",
    table: Sequence[Tuple[int, int, float]] = TABLE1,
    cal: Calibration = CAL,
) -> Dict[str, str]:
    """Run the weak-scaling series and write trace/metrics artifacts.

    Each table row (nodes, gpus, equivalent points) becomes one "timestep"
    whose charged time is the modeled iteration at that scale.  Returns
    ``{"trace": path, "metrics": path}``.
    """
    v = get_version(version)
    tracer = Tracer()
    tracer.set_process_name(0, f"simulated Summit (CRoCCo {version})")
    tracer.set_thread_name(0, 0, "charged regions")
    metrics = MetricsRegistry()

    charged_total = 0.0
    for step, (nodes, _gpus, pts) in enumerate(table):
        nranks = cal.spec.ranks_for(nodes, v.on_gpu)
        rpn = cal.spec.ranks_per_node(v.on_gpu)
        levels = _cached_hierarchy(pts, nranks, rpn, v.amr, cal)
        bd = simulate_iteration(v, levels, nodes, cal)
        split = fillpatch_split(v, levels, nodes, cal) if v.amr else None
        charge_iteration(tracer, bd, split)
        charged_total += bd.total

        g = metrics.set
        g("nodes", nodes)
        g("nranks", nranks)
        g("equiv_points", pts)
        for li, lev in enumerate(levels):
            g(f"active_cells.lev{li}", lev.num_pts())
        g("active_cells.total", sum(l.num_pts() for l in levels))
        g("levels", len(levels))
        for name, seconds in bd.as_dict().items():
            g(f"region.{name}", seconds)
        if split is not None:
            for name, seconds in split.items():
                g(f"fillpatch.{name}", seconds)
        metrics.sample(step, charged_total)
        tracer.counter("equiv_points", {"points": float(pts)})

    out = Path(out_dir)
    other = {
        "mode": "charged",
        "schema": "repro-trace-1",
        "config": {
            "version": version,
            "driver": "weak_scaling",
            "nodes": [int(n) for (n, _g, _p) in table],
        },
    }
    return {
        "trace": tracer.write(out / TRACE_NAME, other_data=other),
        "metrics": metrics.write_jsonl(out / METRICS_NAME),
    }
