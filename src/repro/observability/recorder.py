"""RunRecorder: wire a run to the tracer/registry and write the artifacts.

A recorder owns one :class:`Tracer` and one :class:`MetricsRegistry`,
binds the tracer to a :class:`~repro.core.crocco.Crocco` simulation's
producers (profiler regions and scheduler tasks, and device launches when
a trace is written, write their spans into it), snapshots the
per-timestep metrics the paper's evaluation needs (dt, CFL, active cells
per level, tagged cells, regrids and the boxes they kept and built, ledger
traffic by kind with the on/off-node split, device memory high-water,
per-kernel flop/byte totals and V100 seconds — the last three read
straight from the ledger's and the devices' tables — and L2 drift when a
validation reference is supplied), and finalizes two artifacts:

- ``trace_out`` — Chrome trace-event JSON (open in Perfetto), carrying the
  comms matrix and run configuration in ``otherData``;
- ``metrics_out`` — JSONL, one record per timestep.
"""

from __future__ import annotations

from typing import Optional

from repro.kernels.device import launch_totals
from repro.numerics import native
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracer import DRIVER_STREAM, GPU_STREAM, Tracer
from repro.runtime.scheduler import RUNTIME_STREAM

#: conventional artifact names inside a run directory
TRACE_NAME = "trace.json"
METRICS_NAME = "metrics.jsonl"


class RunRecorder:
    """Tracer + registry for one recorded run."""

    def __init__(self, trace_out: Optional[str] = None,
                 metrics_out: Optional[str] = None,
                 stream_metrics: bool = False) -> None:
        self.trace_out = trace_out
        self.metrics_out = metrics_out
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self._sim = None
        self._finalized = False
        if stream_metrics and metrics_out:
            # live runs (the serve layer) append each sample as it is
            # taken so progress is observable before the run finishes
            self.metrics.stream_to(metrics_out)

    # -- wiring ------------------------------------------------------------
    def attach(self, sim) -> None:
        """Bind the tracer to a Crocco simulation's producers."""
        self._sim = sim
        tracer = self.tracer
        sim.profiler.tracer = tracer
        sim.engine.scheduler.tracer = tracer
        tracer.set_thread_name(0, DRIVER_STREAM, "driver regions")
        tracer.set_thread_name(0, RUNTIME_STREAM, "runtime driver")
        for r, dev in enumerate(sim.devices):
            if self.trace_out:
                # kernel spans are the one per-launch writer; a
                # metrics-only run pays nothing per launch or per message
                dev.tracer, dev.trace_track = tracer, (r, GPU_STREAM)
            tracer.set_process_name(r, f"rank {r} ({dev.name})")
            tracer.set_thread_name(r, GPU_STREAM, "gpu stream")

    # -- per-step sampling -------------------------------------------------
    def sample_step(self, sim) -> dict:
        """Snapshot the per-timestep metrics after one ``step()``."""
        g = self.metrics.set
        if sim.dt_history:
            g("dt", sim.dt_history[-1])
        cfl = sim.config.cfl if sim.config.cfl is not None else sim.case.cfl
        g("cfl", cfl)
        total_cells = 0
        for lev in range(sim.finest_level + 1):
            ba = sim.box_arrays[lev]
            n = ba.num_pts() if ba is not None else 0
            g(f"active_cells.lev{lev}", n)
            total_cells += n
        g("active_cells.total", total_cells)
        g("levels", sim.finest_level + 1)
        g("regrids", getattr(sim, "regrid_count", 0))
        g("amr.plan_builds", getattr(sim, "step_plan_builds", 0))
        g("amr.regrid_kept_boxes", getattr(sim, "step_boxes_kept", 0))
        g("amr.regrid_new_boxes", getattr(sim, "step_boxes_new", 0))
        g("runtime.graph_builds", getattr(sim, "step_graph_builds", 0))
        g("kernel.batches", sum(len(bs) for bs in sim.batches.values()))
        g("kernel.batch_boxes", sum(len(mf) for mf in sim.state.values()))
        g("kernel.batch_grown_cells", sum(
            fab.grown_box().num_pts()
            for mf in sim.state.values() for _, fab in mf))
        tag_counts = getattr(sim, "last_tag_counts", {})
        g("tagged_cells", sum(tag_counts.values()))
        if sim.devices:
            g("device.high_water_bytes.max",
              max(d.high_water for d in sim.devices))
        # cumulative traffic and launch accounting, as the producers'
        # tables hold it now: per message kind, per kernel (the roofline
        # inputs and charged seconds), per device that has launched, per
        # kernel class
        for kind, traffic in sim.comm.ledger.traffic().items():
            for field, value in traffic.items():
                g(f"ledger.{kind}.{field}", value)
        for kernel, tot in launch_totals(sim.devices).items():
            for field, value in tot.items():
                g(f"kernel.{kernel}.{field}", value)
        for r, dev in enumerate(sim.devices):
            if dev.table:
                g(f"device.rank{r}.high_water_bytes", dev.high_water)
        backend = getattr(sim, "exec_backend", None)
        if backend is not None:
            totals = backend.class_totals()
            for cls, tot in totals.items():
                for field, value in tot.items():
                    g(f"device.class.{cls}.{field}", value)
            # the backend's scratch-cache counters (hit rate, resident bytes)
            for name, value in backend.scratch_stats().items():
                g(f"backend.scratch.{name}", float(value))
        # which WENO combination ran: 1 = the compiled row kernel, 0 = the
        # NumPy fallback (same bits, ~2x the step; the why is in the trace)
        g("kernel.weno_impl", native.status()["impl"] == "compiled")
        engine = getattr(sim, "engine", None)
        if engine is not None and engine.last_step_report is not None:
            rep = engine.last_step_report
            for name, value in rep.as_dict().items():
                g(f"runtime.{name}", value)
        resilience = getattr(sim, "resilience", None)
        faults = getattr(sim, "faults", None)
        if resilience is not None and (
                getattr(sim, "watchdog", None) is not None
                or faults is not None or resilience.counters):
            for name, value in resilience.as_dict().items():
                g(f"resilience.{name}", value)
        if faults is not None:
            g("resilience.faults_injected", len(faults.fired))
            for kind, n in faults.fired_by_kind().items():
                g(f"resilience.injected.{kind}", n)
        rec = self.metrics.sample(sim.step_count, sim.time)
        self.tracer.counter(
            "active_cells", {"cells": float(total_cells)}, rank=0
        )
        return rec

    # -- finalize ----------------------------------------------------------
    def _other_data(self, sim) -> dict:
        other = {"mode": "wall", "schema": "repro-trace-1"}
        if sim is not None:
            cfg = sim.config
            other["weno_kernel"] = native.status()["line"]
            other["config"] = {
                "case": sim.case.name,
                "version": cfg.version,
                "nranks": sim.comm.nranks,
                "ranks_per_node": sim.comm.ranks_per_node,
                "max_level": cfg.max_level,
                "ordering": sim.kernels.ordering,
                "backend": sim.backend_target,
            }
            other["nranks"] = sim.comm.nranks
            other["comms_matrix"] = sim.comm.ledger.comms_matrix(
                sim.comm.nranks)
        return other

    def finalize(self, sim=None) -> dict:
        """Write the configured artifacts; returns {kind: path}."""
        if self._finalized:
            return {}
        self._finalized = True
        sim = sim if sim is not None else self._sim
        written = {}
        if self.trace_out:
            written["trace"] = self.tracer.write(
                self.trace_out, other_data=self._other_data(sim)
            )
        if self.metrics_out:
            written["metrics"] = self.metrics.write_jsonl(self.metrics_out)
        return written
