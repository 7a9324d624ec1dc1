"""The option table: every way to configure a run, declared once.

CRoCCo is tuned through an AMReX input deck (``amr.blocking_factor``,
``amr.max_grid_size``, domain cells — Sec. V): one ParmParse-style
table.  Here the table *is* the :class:`CroccoConfig` dataclass — each
field declares its default, deck key, env var, CLI flag, choices and
bounds through :func:`opt` — with the run-control keys beside it in
:class:`RunControl`, so the set of legal deck keys is closed.  Deck
mapping and flag overrides (:func:`resolve`), env defaults, validation,
the CLI flags, the service's submission check and the printed reference
(:func:`render_reference`) are loops over it.  Precedence is
flag > deck > env > default; every :class:`ConfigError` names the
spelling the bad value arrived through.
"""

from __future__ import annotations

import difflib
import importlib
import os
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.backend import TARGETS
from repro.core.errors import ConfigError
from repro.core.versions import VERSIONS
from repro.numerics.weno import VARIANTS as WENO_VARIANTS

#: placeholder default of an env-backed field, replaced at construction
_FROM_ENV = object()


def _parse_bool(tok: str) -> bool:
    if tok.lower() in ("1", "true", "t", "yes"):
        return True
    if tok.lower() in ("0", "false", "f", "no"):
        return False
    raise ValueError(tok)


_PARSERS = {int: (int, "an integer"), float: (float, "a number"),
            bool: (_parse_bool, "a boolean"), str: (str, "a string")}


def convert(tok: str, types: Sequence[type], source: str):
    """``tok`` as the first of ``types`` that accepts it, or a
    ConfigError naming ``source``."""
    for typ in types:
        try:
            return _PARSERS[typ][0](tok)
        except ValueError:
            pass
    expected = " or ".join(_PARSERS[typ][1] for typ in types)
    raise ConfigError(f"{source}: expected {expected}, got {tok!r}") from None


@dataclass(frozen=True)
class Option:
    """One row of the table: a value, its spellings and its bounds."""

    name: str
    #: scalar types a token may convert to, in trial order
    types: Tuple[type, ...]
    #: a list of values, one per deck token
    many: bool
    default: object = None
    deck: Optional[str] = None
    env: Optional[str] = None
    flag: Optional[str] = None
    #: legal string values: a container, or a callable returning one
    choices: object = None
    #: inclusive / exclusive lower bound of a numeric value
    minimum: Optional[float] = None
    above: Optional[float] = None
    #: separator joining a multi-token deck value into one string
    join: Optional[str] = None
    help: str = ""

    def legal(self) -> Optional[Sequence[str]]:
        return self.choices() if callable(self.choices) else self.choices

    def check(self, value, source: str):
        """``value`` if it is legal, else a ConfigError naming ``source``."""
        for v in (value if self.many and value is not None else (value,)):
            if isinstance(v, str):
                if self.choices is not None and v not in self.legal():
                    raise ConfigError(f"{source}: {v!r} is not one of "
                                      f"{', '.join(self.legal())}")
            elif v is not None:
                if self.minimum is not None and v < self.minimum:
                    raise ConfigError(
                        f"{source}: must be >= {self.minimum}, got {v}")
                if self.above is not None and v <= self.above:
                    raise ConfigError(
                        f"{source}: must be > {self.above}, got {v}")
        return value

    def parse(self, tokens: Sequence[str], source: str):
        """The checked value of a deck entry, env var or flag string."""
        if self.join is not None:
            tokens = [self.join.join(tokens)]
        values = [convert(tok, self.types, source) for tok in tokens]
        return self.check(values if self.many else values[0], source)


def opt(default, **spellings):
    """Declare a table field: its default plus the :class:`Option`
    keywords (``deck=``, ``env=``, ``flag=``, ``choices=``, ``minimum=``,
    ``above=``, ``join=``, ``help=``)."""
    return field(default=_FROM_ENV if "env" in spellings else default,
                 metadata=dict(spellings, default=default))


def _options(cls) -> Tuple[Option, ...]:
    """One Option per field of an ``opt``-declared dataclass."""
    out, hints = [], typing.get_type_hints(cls)
    for f in fields(cls):
        members = (hints[f.name],)
        if typing.get_origin(members[0]) is Union:  # Optional[X] included
            members = tuple(a for a in typing.get_args(members[0])
                            if a is not type(None))
        many = typing.get_origin(members[0]) is list
        out.append(Option(f.name, typing.get_args(members[0]) if many
                          else members, many, **f.metadata))
    return tuple(out)


def _later(module: str, name: str):
    """Choices looked up on use (their module imports this one)."""
    return lambda: getattr(importlib.import_module(module), name)


@dataclass
class CroccoConfig:
    """Solver, runtime and resilience settings of one run."""

    version: str = opt("2.1", deck="crocco.version", choices=VERSIONS,
                       help="CRoCCo version (the paper's porting history)")
    max_level: int = opt(0, deck="amr.max_level", minimum=0,
                         help="finest AMR level (0 or non-AMR version: none)")
    blocking_factor: int = opt(8, deck="amr.blocking_factor", minimum=1,
                               help="box sides are multiples of this")
    max_grid_size: int = opt(128, deck="amr.max_grid_size", minimum=1,
                             help="largest box side")
    regrid_int: Union[int, str] = opt(
        2, deck="amr.regrid_int", choices=("auto",), minimum=1,
        help="steps between regrids, or auto: from the CFL condition, "
             "before features convect out of a patch interior (Sec. II-B)")
    n_error_buf: int = opt(1, deck="amr.n_error_buf", minimum=0,
                           help="buffer cells grown around a tagged cell")
    grid_eff: float = opt(0.7, deck="amr.grid_eff", above=0.0,
                          help="minimum tagged fraction of a clustered box")
    cfl: Optional[float] = opt(None, deck="crocco.cfl", above=0.0,
                               help="CFL number (default: the case's own)")
    fixed_dt: Optional[float] = opt(None, deck="crocco.fixed_dt", above=0.0,
                                    help="fixed timestep (default: from CFL)")
    nranks: int = opt(1, deck="mpi.nranks", minimum=1,
                      help="simulated MPI ranks")
    ranks_per_node: int = opt(6, deck="mpi.ranks_per_node", minimum=1,
                              help="ranks per simulated node (Summit: 6)")
    weno_variant: str = opt("symbo", deck="crocco.weno",
                            choices=WENO_VARIANTS, help="WENO variant")
    tagging: str = opt("density", deck="amr.tagging",
                       choices=("density",),
                       help="gradient criterion that tags cells")
    coords_source: str = opt(
        "stored", deck="crocco.coords_source", choices=("stored", "file"),
        help="stored: whole grid in memory; file: reread coordinates from "
             "disk per new patch, the paper's first version (Sec. III-C)")
    interpolator: Optional[str] = opt(
        None, deck="crocco.interpolator",
        choices=_later("repro.core.crocco", "INTERPOLATORS"),
        help="coarse-to-fine interpolator (default: the version's own)")
    trace_out: Optional[str] = opt(
        None, deck="run.trace_out", flag="--trace-out",
        help="Chrome trace-event JSON output path (Perfetto-loadable)")
    metrics_out: Optional[str] = opt(
        None, deck="run.metrics_out", flag="--metrics-out",
        help="per-timestep metrics JSONL output path")
    profile: bool = opt(
        False, deck="run.profile", flag="--profile",
        help="print the TinyProfiler and ledger reports at end of run")
    backend_target: str = opt(
        "auto", deck="backend.target", env="REPRO_BACKEND", flag="--backend",
        choices=("auto", *TARGETS),
        help="execution target: host (NumPy), device (recorded launches on "
             "simulated GPUs), fused (device with one wide WENO launch), or "
             "auto = the version's own (host for 1.x, device for 2.x)")
    step_budget: Optional[int] = opt(
        None, deck="run.max_steps", minimum=1,
        help="hard step budget, enforced by the watchdog")
    wall_budget_s: Optional[float] = opt(
        None, deck="run.max_wall_s", above=0.0,
        help="hard wall-clock budget in seconds, enforced by the watchdog")
    metrics_stream: bool = opt(
        False, help="write each metrics sample as it is taken (the serve "
                    "layer's live progress), not at finalize")
    watchdog: bool = opt(
        True, deck="resilience.watchdog", flag="--no-watchdog",
        help="validate every step (NaN/Inf, CFL blowup) and retry "
             "failures from a snapshot; the flag turns it off")
    max_step_retries: int = opt(
        3, deck="resilience.max_step_retries", minimum=0,
        help="rollback/retry budget per step before a checkpoint restore")
    autocheckpoint_every: int = opt(
        0, deck="resilience.autocheckpoint_every", minimum=0,
        flag="--autocheckpoint-every",
        help="crash-safe checkpoint every N successful steps (0 = off)")
    autocheckpoint_dir: str = opt(
        "autochk", deck="resilience.autocheckpoint_dir",
        flag="--autocheckpoint-dir", help="where autocheckpoints go")
    autocheckpoint_keep: int = opt(
        2, deck="resilience.autocheckpoint_keep", minimum=1,
        help="autocheckpoints kept on disk")
    cfl_margin: Optional[float] = opt(
        None, deck="resilience.cfl_margin", above=0.0,
        help="fail a step whose realized dt*rate exceeds cfl times this")
    faults_plan: str = opt(
        "", deck="resilience.faults.plan", env="REPRO_FAULTS",
        flag="--faults", join=";",
        help="fault-injection plan, e.g. task_error@2.1;nan@4;seed=7 "
             "(deck tokens may be space-separated)")
    faults_seed: int = opt(
        0, deck="resilience.faults.seed", flag="--faults-seed",
        help="fault-injection seed (0 = the plan's own seed= token)")

    def __post_init__(self) -> None:
        # bare CroccoConfig() honours the environment: CI matrices and
        # tests select target / faults this way
        for o in OPTIONS:
            if getattr(self, o.name) is _FROM_ENV:
                raw = os.environ.get(o.env)
                setattr(self, o.name,
                        o.parse([raw], o.env) if raw else o.default)

    def validate(self) -> "CroccoConfig":
        """Reject a value outside its choices or bounds, naming its deck
        key — here, not deep inside solver construction."""
        for o in OPTIONS:
            o.check(getattr(self, o.name), o.deck or o.name)
        return self


@dataclass
class RunControl:
    """What the drivers (CLI, serve worker) read themselves: which case,
    for how long, what to write."""

    case: str = opt("sod", deck="crocco.case", help="flow case",
                    choices=_later("repro.cases", "CASES"))
    curvilinear: bool = opt(False, deck="crocco.curvilinear",
                            help="ramp-fitted curvilinear grid (dmr only)")
    n_cell: Optional[List[int]] = opt(
        None, deck="amr.n_cell", minimum=1,
        help="coarse cells per direction (default: the case's own)")
    steps: Optional[int] = opt(
        None, deck="run.steps", flag="--steps", minimum=0,
        help="stop after this many steps (10 when no time is set either)")
    time: Optional[float] = opt(None, deck="run.time", flag="--time",
                                help="stop at this simulated time")
    plotfile: Optional[str] = opt(None, deck="run.plotfile",
                                  flag="--plotfile",
                                  help="write a plotfile here at the end")
    checkpoint: Optional[str] = opt(
        None, deck="run.checkpoint",
        help="write a restartable snapshot here at the end")
    restart: Optional[str] = opt(None, deck="run.restart",
                                 help="resume from this snapshot")
    report_every: int = opt(
        10, deck="run.report_every", minimum=0,
        help="steps between progress lines (0 = only the last)")
    record: Optional[str] = opt(
        None, deck="run.record", flag="--record",
        help="record the run: DIR/trace.json and DIR/metrics.jsonl unless "
             "set separately (see python -m repro.report)")


OPTIONS = _options(CroccoConfig)
RUN_OPTIONS = _options(RunControl)
BY_NAME: Dict[str, Option] = {o.name: o for o in OPTIONS + RUN_OPTIONS}
BY_DECK_KEY: Dict[str, Option] = {o.deck: o for o in BY_NAME.values()
                                  if o.deck}


def _expand_record(layer: dict) -> None:
    """``record = DIR`` is shorthand for both artifacts in one run dir,
    yielding to a path the same layer (deck or flags) sets itself."""
    if layer.get("record"):
        for name, leaf in (("trace_out", "trace.json"),
                           ("metrics_out", "metrics.jsonl")):
            layer.setdefault(name, str(Path(layer["record"]) / leaf))


def resolve(entries: Mapping[str, Sequence[str]],
            overrides: Optional[Mapping[str, object]] = None,
            ) -> Tuple[CroccoConfig, RunControl]:
    """The config and run control of a deck under ``overrides``.

    ``entries`` maps deck keys to their token lists; ``overrides`` maps
    option *names* to values (strings are parsed like deck tokens, None
    means not given) — the CLI's parsed flags or the serve worker's
    per-run settings.  Precedence is override > deck > env > default.
    """
    values: Dict[str, object] = {}
    for key, tokens in entries.items():
        o = BY_DECK_KEY.get(key)
        if o is None:
            close = difflib.get_close_matches(key, BY_DECK_KEY, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ConfigError(f"unknown deck key {key!r}{hint}")
        values[o.name] = o.parse(tokens, key)
    _expand_record(values)
    given: Dict[str, object] = {}
    for name, value in (overrides or {}).items():
        if value is not None:
            o = BY_NAME[name]
            source = o.flag or o.deck or name
            given[name] = (o.parse([value], source) if isinstance(value, str)
                           else o.check(value, source))
    _expand_record(given)
    values.update(given)
    run = RunControl(**{o.name: values.pop(o.name) for o in RUN_OPTIONS
                        if o.name in values})
    if run.steps is None and run.time is None:
        run.steps = 10
    return CroccoConfig(**values), run


def render_reference() -> str:
    """The configuration reference, as two Markdown tables."""
    lines = []
    for title, options in (("`CroccoConfig` fields:", OPTIONS),
                           ("Run control (not fields):", RUN_OPTIONS)):
        lines += [title, "",
                  "| name | deck key | env var | flag | default | choices | "
                  "meaning |", "|---|---|---|---|---|---|---|"]
        for o in options:
            cells = [o.name, o.deck, o.env, o.flag,
                     None if o.default == "" else o.default]
            cells = ["" if c is None else f"`{c}`" for c in cells]
            cells += [", ".join(o.legal() or ()), o.help]
            lines.append("| " + " | ".join(cells) + " |")
        lines.append("")
    lines.append("Precedence: flag > deck > environment > default. An "
                 "unknown deck key, a value outside its choices or bounds, "
                 "or an unreadable deck is a one-line `error: ...` and exit "
                 "status 2.")
    return "\n".join(lines)
