"""Deterministic fault injection from a seeded plan.

Chaos runs must be reproducible, so faults are *planned*, not random:
a plan is a list of tokens, each firing exactly once at a named step
(and, for task-level faults, RK stage)::

    seed=42 nan@3 drop_comm@1:fb task_error@4:Box kill_save@2

Token grammar: ``kind@step[.stage][:arg]`` (plus ``seed=N``).  Tokens
are separated by whitespace or ``;`` — the deck key
``resilience.faults.plan`` takes the space-separated form, the
``REPRO_FAULTS`` env var the ``;``-separated one.  Step numbers refer to
``sim.step_count`` at the start of the step (0-based); ``kill_save``'s
"step" is instead the 1-based index of the ``save_checkpoint`` call to
interrupt.

Fault kinds and where they bite:

``task_error@S[.G][:PREFIX]``
    One task whose name starts with ``PREFIX`` (any compute task by
    default) raises :class:`InjectedTaskError`; the step fails and the
    watchdog's rollback retries it.
``drop_comm@S[.G][:fb|pc]``
    One consumer of a posted exchange on that channel (any channel by
    default) — a task that carries the channel and is not its
    ``comm-post``: ``FB_finish`` for ``fb``, an ``Interp`` task for the
    coordinate ParallelCopy ``pc`` — raises :class:`InjectedCommDrop`, a
    lost exchange.  The watchdog rolls the step back and retries.
``nan@S``
    One state cell is seeded with NaN after the advance of step ``S`` —
    silent corruption the watchdog's scan must catch.
``kill_save@N``
    The ``N``-th ``save_checkpoint`` call in this process raises
    :class:`InjectedCheckpointCrash` after the first level file is
    written and before the atomic rename — a kill mid-save.  The
    previous checkpoint at the destination must survive intact.

A plan that could never fire is rejected when it is parsed: a task fault
at a stage past the RK step's last, or a ``drop_comm`` channel other than
``fb`` / ``pc``.

Each planned fault records a firing entry in :attr:`FaultInjector.fired`
so the run report can account for every injected fault.

A step runs in one process, so there is no worker to lose here: worker
death is a *service-level* fault (``kill_worker@N[:S]`` in a
:mod:`repro.serve.chaos` plan, against the fleet's pool).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.numerics.rk3 import NSTAGES

#: fault kinds that attach to tasks of one (step, stage) graph
TASK_KINDS = ("task_error", "drop_comm")
KINDS = TASK_KINDS + ("nan", "kill_save")

_TOKEN = re.compile(r"^(?P<kind>[a-z_]+)@(?P<step>\d+)"
                    r"(?:\.(?P<stage>\d+))?(?::(?P<arg>[^\s;]+))?$")


class InjectedFault(RuntimeError):
    """Base class of every deliberately injected failure."""


class InjectedTaskError(InjectedFault):
    """A task made to raise by the fault plan."""


class InjectedCommDrop(InjectedFault):
    """A halo exchange whose finish half was made to fail."""


class InjectedCheckpointCrash(InjectedFault):
    """A checkpoint write interrupted mid-save by the fault plan."""


@dataclass
class FaultSpec:
    """One planned fault occurrence."""

    kind: str
    step: int
    stage: int = 0
    arg: Optional[str] = None
    fired: bool = False

    def token(self) -> str:
        out = f"{self.kind}@{self.step}"
        if self.stage:
            out += f".{self.stage}"
        if self.arg is not None:
            out += f":{self.arg}"
        return out


def parse_plan(text: str, kinds: tuple = KINDS) -> tuple:
    """Parse a plan string; returns ``(specs, seed)``.

    ``kinds`` is the vocabulary to validate against — the solver-level
    default here, or :data:`repro.serve.chaos.SERVICE_KINDS` when the
    same grammar drives the service chaos harness.
    """
    specs: List[FaultSpec] = []
    seed = 0
    for tok in re.split(r"[;\s]+", text.strip()):
        if not tok:
            continue
        if tok.startswith("seed="):
            seed = int(tok[len("seed="):])
            continue
        m = _TOKEN.match(tok)
        if m is None:
            raise ValueError(f"bad fault token {tok!r} "
                             "(expected kind@step[.stage][:arg])")
        kind = m.group("kind")
        if kind not in kinds:
            hint = ("; worker faults are service-level: kill_worker@N[:S] "
                    "in a repro.serve.chaos plan"
                    if kinds is KINDS and kind in ("kill_worker", "slow")
                    else "")
            raise ValueError(
                f"unknown fault kind {kind!r}; options {kinds}{hint}")
        spec = FaultSpec(
            kind=kind,
            step=int(m.group("step")),
            stage=int(m.group("stage") or 0),
            arg=m.group("arg"),
        )
        if kind in TASK_KINDS and spec.stage >= NSTAGES:
            raise ValueError(f"fault token {tok!r} never fires: an RK step "
                             f"has stages 0..{NSTAGES - 1}")
        if kind == "drop_comm" and spec.arg not in (None, "fb", "pc"):
            raise ValueError(f"fault token {tok!r} never fires: drop_comm "
                             "channels are 'fb' and 'pc'")
        specs.append(spec)
    return specs, seed


class FaultInjector:
    """Executes a fault plan deterministically against a run."""

    def __init__(self, specs: List[FaultSpec], seed: int = 0) -> None:
        self.specs = list(specs)
        self.seed = seed
        #: firing log: {kind, step, stage, target} per injected fault
        self.fired: List[Dict] = []
        self._save_calls = 0

    @classmethod
    def from_config(cls, plan: Optional[str],
                    seed: Optional[int] = None) -> Optional["FaultInjector"]:
        """Build an injector from a plan string, or None for no plan.

        A nonzero ``seed`` argument (deck/CLI) wins over a ``seed=N``
        token embedded in the plan itself.
        """
        if not plan:
            return None
        specs, plan_seed = parse_plan(plan)
        if not specs:
            return None
        return cls(specs, seed if seed else plan_seed)

    def _rng(self, spec: FaultSpec) -> random.Random:
        return random.Random(f"{self.seed}:{spec.token()}")

    def _record(self, spec: FaultSpec, target: str) -> None:
        spec.fired = True
        self.fired.append({"kind": spec.kind, "step": spec.step,
                           "stage": spec.stage, "target": target})

    def fired_by_kind(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for entry in self.fired:
            out[entry["kind"]] = out.get(entry["kind"], 0) + 1
        return out

    def pending(self) -> List[FaultSpec]:
        return [s for s in self.specs if not s.fired]

    # -- task faults -------------------------------------------------------
    def arm(self, tasks, step: int, stage: int) -> Dict[int, InjectedFault]:
        """This (step, stage)'s planned task faults among ``tasks`` (the
        tasks the stage runs, in order): task id -> the error the
        scheduler raises in place of that task's body.

        Called by the engine before each stage runs; the graph itself is
        left untouched, so the faults belong to this one run of it.
        Specs fire once: a retried step replays its graphs and finds them
        spent, so the retry runs clean — exactly a transient fault.
        """
        armed: Dict[int, InjectedFault] = {}
        for spec in self.specs:
            if (spec.fired or spec.kind not in TASK_KINDS
                    or spec.step != step or spec.stage != stage):
                continue
            if spec.kind == "task_error":
                cands = (
                    [t for t in tasks if t.name.startswith(spec.arg)]
                    if spec.arg else
                    [t for t in tasks if t.kind == "compute"]
                )
                exc, what = InjectedTaskError, "task error"
            else:
                cands = [t for t in tasks if t.kind != "comm-post"
                         and t.channel is not None
                         and spec.arg in (None, t.channel[0])]
                exc, what = InjectedCommDrop, "comm drop"
            task = self._pick(spec, cands)
            if task is not None:
                armed[task.tid] = exc(f"injected {what} in {task.name}")
                self._record(spec, task.name)
        return armed

    def _pick(self, spec: FaultSpec, candidates):
        if not candidates:
            return None
        return self._rng(spec).choice(candidates)

    # -- state corruption --------------------------------------------------
    def corrupt_state(self, sim) -> None:
        """Seed a planned NaN into one state cell (end of the advance)."""
        for spec in self.specs:
            if spec.fired or spec.kind != "nan" or spec.step != sim.step_count:
                continue
            rng = self._rng(spec)
            lev = rng.randrange(sim.finest_level + 1)
            ids = [i for i, _ in sim.state[lev]]
            i = rng.choice(ids)
            valid = sim.state[lev].fab(i).valid()
            idx = tuple(rng.randrange(n) for n in valid.shape)
            valid[idx] = np.nan
            self._record(spec, f"state L{lev} b{i} cell{idx}")

    # -- checkpoint interruption -------------------------------------------
    def begin_save(self) -> int:
        """Count a ``save_checkpoint`` call; returns its 1-based index."""
        self._save_calls += 1
        return self._save_calls

    def maybe_crash_save(self, save_idx: int, path) -> None:
        """Raise mid-save if this save call is planned to be killed."""
        for spec in self.specs:
            if spec.fired or spec.kind != "kill_save" or spec.step != save_idx:
                continue
            self._record(spec, str(path))
            raise InjectedCheckpointCrash(
                f"injected kill during checkpoint save #{save_idx} to {path}"
            )

