"""Device-launch coverage: fraction of per-step work the execution
backend's launch records account for.

The port is only as measurable as its accounting is complete (the paper's
per-kernel GPU profiles assume every phase of Algorithm 2 runs as a
recorded launch).  This benchmark runs a small v2.1 DMR under the device
target, derives the *analytic* core work per step (3 RK stages x (one
flux sweep per direction + one update) per active cell, plus the
ComputeDt reduction over every active cell) from the evolving grid
hierarchy, and compares it against what the launch records actually
captured::

    coverage = recorded / (recorded - recorded_core + analytic_core)

If every core kernel went through the launch seam, ``recorded_core``
equals ``analytic_core`` and coverage is 1.0 exactly; un-launched core
work shows up as a deficit.  The AMR-substrate phases (FillBoundary,
ParallelCopy, interpolation, AverageDown, tagging, BC fills) have no
closed-form point count, so they enter both numerator and denominator as
recorded — the assertion guards the *core* phases, and the per-step
phase checklist below guards that the substrate phases emit at all.
"""

import numpy as np

from benchmarks._record import record
from benchmarks.conftest import table
from repro.cases.dmr import DoubleMachReflection
from repro.core.crocco import Crocco, CroccoConfig

NSTAGES = 3
STEPS = 4

#: launch-name prefixes every v2.x step must emit (inviscid 2-D DMR)
STEP_PHASE_PREFIXES = ("WENOx", "WENOy", "Update", "FB_pack", "FB_unpack",
                       "Interp_", "AverageDown", "ComputeDt", "BC_fill")

#: kernel classes whose work the analytic model prices
CORE_CLASSES = ("flux", "update", "reduction")


def active_cells(sim):
    return sum(sim.box_arrays[lev].num_pts()
               for lev in range(sim.finest_level + 1))


def core_points(totals):
    return sum(totals.get(cls, {}).get("points", 0) for cls in CORE_CLASSES)


def total_points(totals):
    return sum(t.get("points", 0) for t in totals.values())


class LaunchLog:
    """Device listener keeping every launch record in order (the devices
    themselves keep totals, not history)."""

    def __init__(self):
        self.events = []

    def on_launch(self, device, rec, wall_seconds):
        self.events.append(rec)


def test_device_launch_coverage():
    case = DoubleMachReflection(ncells=(64, 16), curvilinear=True)
    sim = Crocco(case, CroccoConfig(
        version="2.1", nranks=6, ranks_per_node=6, max_level=1,
        max_grid_size=32, blocking_factor=8, regrid_int=2,
        backend_target="device"))
    sim.initialize()
    backend = sim.exec_backend
    log = LaunchLog()
    for dev in sim.devices:
        dev.add_listener(log)
    dim = case.layout.dim
    # flux sweeps per cell per stage: one per direction (+1 if viscous)
    sweeps = dim + (1 if case.viscous is not None else 0)

    analytic_core = 0
    rows = []
    for step in range(STEPS):
        mark = len(log.events)
        before = backend.class_totals()
        sim.step()
        # regrid happens at step start, so the post-step hierarchy is the
        # one this step's kernels actually swept
        cells = active_cells(sim)
        step_core = cells * (NSTAGES * (sweeps + 1) + 1)
        analytic_core += step_core
        new = log.events[mark:]
        names = [rec.name for rec in new]
        missing = [p for p in STEP_PHASE_PREFIXES
                   if not any(n.startswith(p) for n in names)]
        assert not missing, f"step {step}: phases with no launch: {missing}"
        after = backend.class_totals()
        step_tot = {c: after[c]["points"] - before.get(c, {}).get("points", 0)
                    for c in after}
        rows.append((step, cells, len(new), step_core,
                     sum(v for c, v in step_tot.items()
                         if c in CORE_CLASSES)))

    totals = backend.class_totals()
    recorded = total_points(totals)
    rec_core = core_points(totals)
    coverage = recorded / (recorded - rec_core + analytic_core)
    sim.close()

    table("device launch coverage (v2.1 DMR, device target)",
          ("step", "cells", "launches", "core pts (analytic)",
           "core pts (recorded)"),
          rows)
    table("totals",
          ("recorded pts", "recorded core", "analytic core", "coverage"),
          [(recorded, rec_core, analytic_core, f"{coverage:.4f}")])
    record("device_coverage", "dmr_v2.1_serial", coverage, "fraction",
           recorded_points=recorded, analytic_core=analytic_core,
           launches=sum(t.get("launches", 0) for t in totals.values()))

    assert coverage >= 0.95, (
        f"launch records cover only {coverage:.1%} of per-step work")
    # the analytic model and the recorded core must agree closely: core
    # kernels sweep exactly the active cells
    assert np.isclose(rec_core, analytic_core, rtol=0.05), (
        f"recorded core {rec_core} vs analytic {analytic_core}")
