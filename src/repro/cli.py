"""Command-line driver: run CRoCCo from an AMReX-style input deck.

Usage::

    python -m repro inputs.deck [--steps N | --time T] [--plotfile DIR]
                    [--profile] [--record DIR] [--executor serial|pool]

Deck keys (beyond the ones :class:`repro.io.inputs.InputDeck` maps onto
:class:`~repro.core.crocco.CroccoConfig`)::

    crocco.case     = dmr | sod | vortex | ignition | ramp
    crocco.curvilinear = true        # DMR only
    amr.n_cell      = 128 32         # case resolution
    run.steps       = 100            # or run.time = 0.05
    run.plotfile    = plt_out        # optional output directory
    run.checkpoint  = chk_out        # write a restartable snapshot at the end
    run.restart     = chk_in         # resume from a snapshot
    run.report_every = 10
    run.record      = run_out        # write run_out/trace.json + metrics.jsonl
    run.trace_out   = trace.json     # Chrome trace-event JSON (Perfetto)
    run.metrics_out = metrics.jsonl  # per-timestep metrics time series
    run.profile     = true           # print profiler + ledger reports at end
    run.cache_dir   = cache          # cross-run immutable cache directory
    run.max_steps   = 200            # hard step budget (watchdog-enforced)
    run.max_wall_s  = 60             # hard wall budget, seconds
    runtime.executor = serial        # or pool: multiprocessing task runtime
    runtime.workers  = 4             # pool worker count (default: CPU count)
    backend.target   = auto          # execution target: host | device |
                                     # fused, or auto = the version's own
                                     # (host for 1.x, device for 2.x);
                                     # REPRO_BACKEND sets the default
    resilience.watchdog = true       # per-step NaN/positivity/CFL validation
    resilience.max_step_retries = 3  # rollback/retry budget per step
    resilience.retries      = 2      # supervised-pool per-task retry budget
    resilience.backoff      = 0.05   # task-retry backoff base (seconds)
    resilience.task_timeout = 30     # seconds before a pool task is lost
    resilience.autocheckpoint_every = 0   # crash-safe checkpoint cadence
    resilience.autocheckpoint_dir   = autochk
    resilience.faults.plan  = kill_worker@2.1 nan@4   # fault injection
    resilience.faults.seed  = 7      # (or the REPRO_FAULTS env var)

Summarize a recorded run afterwards with ``python -m repro.report DIR``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.cases.dmr import DoubleMachReflection
from repro.cases.ramp import CompressionRamp
from repro.cases.reacting import IgnitionFront
from repro.cases.shocktube import SodShockTube
from repro.cases.vortex import IsentropicVortex
from repro.core.crocco import ConfigError, Crocco
from repro.io.checkpoint import load_checkpoint, save_checkpoint
from repro.io.inputs import InputDeck
from repro.io.plotfile import write_plotfile


def build_case(deck: InputDeck):
    """Instantiate the deck's case."""
    name = deck.get_str("crocco.case", "sod")
    cells = deck.domain_cells()
    if name == "sod":
        return SodShockTube(ncells=cells[0] if cells else 128)
    if name == "vortex":
        return IsentropicVortex(ncells=cells[0] if cells else 64)
    if name == "dmr":
        nc = tuple(cells) if cells else (128, 32)
        return DoubleMachReflection(
            ncells=nc, curvilinear=bool(deck.get_bool("crocco.curvilinear", False))
        )
    if name == "ignition":
        return IgnitionFront(ncells=cells[0] if cells else 128)
    if name == "ramp":
        nc = tuple(cells) if cells else (96, 48)
        return CompressionRamp(
            ncells=nc,
            mach=deck.get_float("ramp.mach", 3.0),
            angle_deg=deck.get_float("ramp.angle", 15.0),
        )
    raise SystemExit(f"unknown crocco.case {name!r} "
                     "(options: sod, vortex, dmr, ignition, ramp)")


def main(argv: Optional[list] = None) -> int:
    """Parse arguments, run the deck, return a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Run CRoCCo from an input deck."
    )
    parser.add_argument("deck", help="input deck file (key = value lines)")
    parser.add_argument("--steps", type=int, default=None,
                        help="override run.steps")
    parser.add_argument("--time", type=float, default=None,
                        help="override run.time (simulated seconds)")
    parser.add_argument("--plotfile", default=None,
                        help="override run.plotfile output directory")
    parser.add_argument("--profile", action="store_true",
                        help="print the TinyProfiler report and the ledger "
                             "per-kind byte summary at end of run")
    parser.add_argument("--record", default=None, metavar="DIR",
                        help="record the run: write DIR/trace.json and "
                             "DIR/metrics.jsonl (see python -m repro.report)")
    parser.add_argument("--trace-out", default=None,
                        help="override run.trace_out (Chrome trace JSON path)")
    parser.add_argument("--metrics-out", default=None,
                        help="override run.metrics_out (metrics JSONL path)")
    parser.add_argument("--executor", default=None,
                        choices=["serial", "pool"],
                        help="override runtime.executor: 'serial' "
                             "(deterministic in-process) or 'pool' "
                             "(multiprocessing workers, comm/compute overlap)")
    parser.add_argument("--workers", type=int, default=None,
                        help="override runtime.workers (pool size)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="cross-run immutable cache directory (grid "
                             "coords, curvilinear metrics, EOS tables, "
                             "interp weights; overrides run.cache_dir)")
    # no argparse choices: the registry resolver validates the name and
    # an unknown target is a ConfigError (exit 2) listing the registered
    # targets, so plugin-registered targets work from the CLI unchanged
    parser.add_argument("--backend", default=None,
                        help="override backend.target: 'host' (plain "
                             "NumPy), 'device' (recorded launches on the "
                             "simulated GPUs), 'fused' (optimizing), "
                             "'auto' (per version), or any registered "
                             "target name")
    parser.add_argument("--faults", default=None, metavar="PLAN",
                        help="fault-injection plan, e.g. "
                             "'kill_worker@2.1;nan@4' (overrides "
                             "resilience.faults.plan / REPRO_FAULTS)")
    parser.add_argument("--faults-seed", type=int, default=None,
                        help="override resilience.faults.seed")
    parser.add_argument("--autocheckpoint-every", type=int, default=None,
                        metavar="N",
                        help="crash-safe checkpoint every N steps "
                             "(overrides resilience.autocheckpoint_every)")
    parser.add_argument("--autocheckpoint-dir", default=None, metavar="DIR",
                        help="override resilience.autocheckpoint_dir")
    parser.add_argument("--no-watchdog", action="store_true",
                        help="disable per-step validation and step retry")
    args = parser.parse_args(argv)
    try:
        return run_deck(args)
    except ConfigError as exc:
        # a bad deck value, flag or environment variable: one line, exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run_deck(args) -> int:
    """Run the deck named by the parsed arguments."""
    deck = InputDeck.from_file(args.deck)
    case = build_case(deck)
    config = deck.to_crocco_config()
    if args.record:
        from pathlib import Path

        config.trace_out = str(Path(args.record) / "trace.json")
        config.metrics_out = str(Path(args.record) / "metrics.jsonl")
    if args.trace_out:
        config.trace_out = args.trace_out
    if args.metrics_out:
        config.metrics_out = args.metrics_out
    if args.profile:
        config.profile = True
    if args.executor:
        config.executor = args.executor
    if args.workers is not None:
        config.workers = args.workers
    if args.cache_dir:
        config.cache_dir = args.cache_dir
    if args.backend:
        config.backend_target = args.backend
    if args.faults is not None:
        config.faults_plan = args.faults
    if args.faults_seed is not None:
        config.faults_seed = args.faults_seed
    if args.autocheckpoint_every is not None:
        config.autocheckpoint_every = args.autocheckpoint_every
    if args.autocheckpoint_dir is not None:
        config.autocheckpoint_dir = args.autocheckpoint_dir
    if args.no_watchdog:
        config.watchdog = False
    nsteps = args.steps if args.steps is not None else deck.get_int("run.steps")
    t_end = args.time if args.time is not None else deck.get_float("run.time")
    if nsteps is None and t_end is None:
        nsteps = 10
    report = deck.get_int("run.report_every", 10)

    sim = Crocco(case, config)
    restart = deck.get_str("run.restart")
    if restart:
        load_checkpoint(restart, sim)
        print(f"restarted from {restart} at step {sim.step_count}, "
              f"t = {sim.time:.5f}")
    else:
        sim.initialize()
    print(f"case {case.name}: {case.domain_cells} cells, "
          f"CRoCCo {config.version}, {sim.finest_level + 1} level(s), "
          f"{sim.comm.nranks} simulated rank(s), "
          f"executor {sim.engine.name}")
    if sim.faults is not None:
        print(f"fault injection active: {config.faults_plan!r} "
              f"(seed {sim.faults.seed})")

    def progress() -> None:
        """One status line: step, time, dt, density bounds."""
        mn, mx = sim.min_max(0)
        print(f"  step {sim.step_count:5d}  t = {sim.time:.5f}  "
              f"dt = {sim.dt_history[-1]:.3e}  rho in [{mn:.3f}, {mx:.3f}]")

    try:
        while True:
            if nsteps is not None and sim.step_count >= nsteps:
                break
            if t_end is not None and sim.time >= t_end:
                break
            sim.step()
            if report and sim.step_count % report == 0:
                progress()
        if not report or sim.step_count % report != 0:
            progress()

        out = args.plotfile or deck.get_str("run.plotfile")
        if out:
            path = write_plotfile(out, sim)
            print(f"wrote plotfile {path}")
        chk = deck.get_str("run.checkpoint")
        if chk:
            path = save_checkpoint(chk, sim)
            print(f"wrote checkpoint {path}")
        if config.profile:
            print(sim.profiler.report())
            print(ledger_summary(sim.comm.ledger))
        if sim.faults is not None:
            print(resilience_summary(sim))
    finally:
        # guaranteed teardown: no leaked pool workers or shm segments,
        # even when a step dies beyond every retry
        sim.close()
    return 0


def resilience_summary(sim) -> str:
    """Faults injected vs. recovery actions taken, one line each."""
    lines = ["Resilience summary", "-" * 60]
    fired = sim.faults.fired_by_kind() if sim.faults is not None else {}
    for kind, n in sorted(fired.items()):
        lines.append(f"injected {kind:<14s} x{n}")
    if sim.faults is not None and sim.faults.pending():
        tokens = ", ".join(s.token() for s in sim.faults.pending())
        lines.append(f"(unfired: {tokens})")
    stats = sim.resilience.as_dict()
    for key in sorted(stats):
        if stats[key]:
            lines.append(f"{key:<22s} {stats[key]}")
    return "\n".join(lines)


def ledger_summary(ledger) -> str:
    """Per-kind message/byte totals with the on/off-node split."""
    lines = ["CommLedger summary", "-" * 60]
    by_kind = ledger.by_kind()
    if not by_kind:
        lines.append("(no traffic recorded)")
    for kind in sorted(by_kind):
        count, volume = by_kind[kind]
        lines.append(
            f"{kind:<14s} msgs={count:<8d} bytes={volume:<12d} "
            f"on-node={ledger.on_node_bytes(kind):<12d} "
            f"off-node={ledger.off_node_bytes(kind)}"
        )
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
