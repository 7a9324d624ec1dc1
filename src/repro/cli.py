"""Command-line driver: run CRoCCo from an AMReX-style input deck.

Usage::

    python -m repro inputs.deck [--steps N | --time T] [--plotfile DIR]
                    [--profile] [--record DIR] [--backend TARGET]

``python -m repro -h`` prints every deck key, environment variable and
flag (the option table of :mod:`repro.core.config`; the README's
"Configuration reference" is the same text).  Summarize a recorded run
afterwards with ``python -m repro.report DIR``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, Optional

from repro.cases import CASES
from repro.core.config import BY_NAME, RunControl, render_reference
from repro.core.crocco import ConfigError, Crocco
from repro.core.diagnostics import sample
from repro.io.checkpoint import (CheckpointError, load_checkpoint,
                                 save_checkpoint)
from repro.io.inputs import InputDeck
from repro.io.plotfile import write_plotfile
from repro.numerics import native


def build_case(run: RunControl):
    """Instantiate the case the resolved run control names."""
    cls, dims, extras = CASES[run.case]
    kwargs = {kw: getattr(run, name) for kw, name in extras.items()}
    cells = run.n_cell
    if cells is not None:
        if len(cells) not in dims:
            raise ConfigError(
                f"{BY_NAME['n_cell'].deck}: case {run.case!r} takes "
                f"{' or '.join(map(str, dims))} value(s), got {len(cells)}")
        kwargs["ncells"] = cells[0] if dims == (1,) else tuple(cells)
    return cls(**kwargs)


def make_parser() -> argparse.ArgumentParser:
    """The deck argument plus one flag per option that declares one."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Run CRoCCo from an input deck.",
        epilog=render_reference(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("deck", help="input deck file (key = value lines)")
    for o in BY_NAME.values():
        if o.flag:
            # values stay strings: the table converts and checks them, so
            # a bad one is the same one-line ConfigError as a bad deck value
            switch = ({"action": "store_const", "const": not o.default}
                      if o.types == (bool,) else {})
            parser.add_argument(o.flag, dest=o.name, default=None,
                                help=o.help, **switch)
    return parser


def main(argv: Optional[list] = None) -> int:
    """Parse arguments, run the deck, return a process exit code."""
    args = vars(make_parser().parse_args(argv))
    try:
        return run_deck(args.pop("deck"), args)
    except ConfigError as exc:
        # a bad deck, flag or environment variable: one line, exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run_deck(path: str, overrides: Dict[str, object]) -> int:
    """Run the deck at ``path`` under the parsed flag ``overrides``."""
    deck = InputDeck.from_file(path)
    config, run = deck.resolve(overrides)
    case = build_case(run)
    nsteps, t_end, report = run.steps, run.time, run.report_every

    sim = Crocco(case, config)
    if run.restart:
        try:
            load_checkpoint(run.restart, sim)
        except CheckpointError as exc:
            sim.close()
            raise ConfigError(f"{BY_NAME['restart'].deck}: {exc}") from None
        print(f"restarted from {run.restart} at step {sim.step_count}, "
              f"t = {sim.time:.5f}")
    else:
        sim.initialize()
    print(f"case {case.name}: {case.domain_cells} cells, "
          f"CRoCCo {config.version}, {sim.finest_level + 1} level(s), "
          f"{sim.comm.nranks} simulated rank(s)")
    if sim.faults is not None:
        print(f"fault injection active: {config.faults_plan!r} "
              f"(seed {sim.faults.seed})")

    def progress() -> None:
        """One status line: step, time, dt (``-`` before this process has
        taken a step), and the diagnostics sample's mixture density range
        and level-0 mass."""
        rec = sample(sim)
        dt = f"{sim.dt_history[-1]:.3e}" if sim.dt_history else "-"
        print(f"  step {rec.step:5d}  t = {rec.time:.5f}  dt = {dt}  "
              f"rho in [{rec.rho_min:.3f}, {rec.rho_max:.3f}]  "
              f"mass = {rec.mass:.6e}")

    try:
        start = sim.step_count
        while True:
            if nsteps is not None and sim.step_count >= nsteps:
                break
            if t_end is not None and sim.time >= t_end:
                break
            sim.step()
            if report and sim.step_count % report == 0:
                progress()
        if (sim.step_count == start or not report
                or sim.step_count % report != 0):
            progress()
        print(native.status()["line"])

        if run.plotfile:
            path = write_plotfile(run.plotfile, sim)
            print(f"wrote plotfile {path}")
        if run.checkpoint:
            path = save_checkpoint(run.checkpoint, sim)
            print(f"wrote checkpoint {path}")
        if config.profile:
            print(sim.profiler.report())
            print(ledger_summary(sim.comm.ledger))
        if sim.faults is not None:
            print(resilience_summary(sim))
    finally:
        # the recorder's artifacts are written even when a step dies
        # beyond every retry
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
    traffic = ledger.traffic()
    if not traffic:
        lines.append("(no traffic recorded)")
    for kind, t in sorted(traffic.items()):
        lines.append(
            f"{kind:<14s} msgs={t['messages']:<8d} bytes={t['bytes']:<12d} "
            f"on-node={t.get('on_node_bytes', 0):<12d} "
            f"off-node={t.get('off_node_bytes', 0)}"
        )
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
