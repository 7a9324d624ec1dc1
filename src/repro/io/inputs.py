"""AMReX-style input deck parsing.

AMReX applications are configured by plain-text decks of
``prefix.key = value`` lines (the paper tunes ``amr.blocking_factor``,
``amr.max_grid_size``, the domain cell counts, etc. this way).  This
module parses that format and maps it onto :class:`CroccoConfig`.
"""

from __future__ import annotations

import shlex
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.crocco import ConfigError, CroccoConfig


class InputDeck:
    """A parsed ``key = value`` deck with typed accessors."""

    def __init__(self, entries: Dict[str, List[str]]) -> None:
        self._entries = dict(entries)

    @classmethod
    def parse(cls, text: str) -> "InputDeck":
        entries: Dict[str, List[str]] = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            tokens = shlex.split(value.strip())
            if not key or not tokens:
                raise ValueError(f"line {lineno}: empty key or value in {raw!r}")
            entries[key] = tokens
        return cls(entries)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "InputDeck":
        return cls.parse(Path(path).read_text())

    # -- accessors ---------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def keys(self):
        return self._entries.keys()

    def get_str(self, key: str, default: Optional[str] = None) -> Optional[str]:
        if key not in self._entries:
            return default
        return self._entries[key][0]

    @staticmethod
    def _convert(key: str, tok: str, convert, what: str):
        """``convert(tok)``, or a ConfigError naming the deck key."""
        try:
            return convert(tok)
        except ValueError:
            raise ConfigError(
                f"{key}: expected {what}, got {tok!r}") from None

    def get_int(self, key: str, default: Optional[int] = None) -> Optional[int]:
        if key not in self._entries:
            return default
        return self._convert(key, self._entries[key][0], int, "an integer")

    def get_float(self, key: str, default: Optional[float] = None) -> Optional[float]:
        if key not in self._entries:
            return default
        return self._convert(key, self._entries[key][0], float, "a number")

    def get_bool(self, key: str, default: Optional[bool] = None) -> Optional[bool]:
        if key not in self._entries:
            return default
        tok = self._entries[key][0].lower()
        if tok in ("1", "true", "t", "yes"):
            return True
        if tok in ("0", "false", "f", "no"):
            return False
        raise ConfigError(f"{key}: cannot interpret {tok!r} as a boolean")

    def get_ints(self, key: str, default=None) -> Optional[List[int]]:
        if key not in self._entries:
            return default
        return [self._convert(key, tok, int, "an integer")
                for tok in self._entries[key]]

    # -- CroccoConfig mapping ----------------------------------------------
    def to_crocco_config(self) -> CroccoConfig:
        """Build a CroccoConfig from the recognized deck keys."""
        cfg = CroccoConfig(
            version=self.get_str("crocco.version", "2.1"),
            max_level=self.get_int("amr.max_level", 0),
            blocking_factor=self.get_int("amr.blocking_factor", 8),
            max_grid_size=self.get_int("amr.max_grid_size", 128),
            regrid_int=self.get_int("amr.regrid_int", 2),
            n_error_buf=self.get_int("amr.n_error_buf", 1),
            grid_eff=self.get_float("amr.grid_eff", 0.7),
            cfl=self.get_float("crocco.cfl", None),
            fixed_dt=self.get_float("crocco.fixed_dt", None),
            nranks=self.get_int("mpi.nranks", 1),
            ranks_per_node=self.get_int("mpi.ranks_per_node", 6),
            weno_variant=self.get_str("crocco.weno", "symbo"),
            tagging=self.get_str("amr.tagging", "density"),
            coords_source=self.get_str("crocco.coords_source", "stored"),
            interpolator=self.get_str("crocco.interpolator", None),
            trace_out=self.get_str("run.trace_out", None),
            metrics_out=self.get_str("run.metrics_out", None),
            profile=self.get_bool("run.profile", False),
        )
        # runtime keys keep their env-var defaults unless the deck sets them
        executor = self.get_str("runtime.executor")
        if executor:
            cfg.executor = executor
        workers = self.get_int("runtime.workers")
        if workers is not None:
            # "is not None", not truthiness: an explicit workers = 0 must
            # reach validate() and be rejected, not silently ignored
            cfg.workers = workers
        cfg.cache_dir = self.get_str("run.cache_dir", cfg.cache_dir)
        cfg.step_budget = self.get_int("run.max_steps", cfg.step_budget)
        cfg.wall_budget_s = self.get_float("run.max_wall_s",
                                           cfg.wall_budget_s)
        cfg.perfscope = self.get_bool("runtime.perfscope", cfg.perfscope)
        target = self.get_str("backend.target")
        if target:
            cfg.backend_target = target
        # run.record = DIR is shorthand for both artifacts in one run dir
        record = self.get_str("run.record")
        if record:
            from pathlib import Path

            if cfg.trace_out is None:
                cfg.trace_out = str(Path(record) / "trace.json")
            if cfg.metrics_out is None:
                cfg.metrics_out = str(Path(record) / "metrics.jsonl")
        self._apply_resilience(cfg)
        return cfg

    def _apply_resilience(self, cfg: CroccoConfig) -> None:
        """Map the ``resilience.*`` deck section onto the config."""
        cfg.watchdog = self.get_bool("resilience.watchdog", cfg.watchdog)
        cfg.supervise = self.get_bool("resilience.supervise", cfg.supervise)
        cfg.max_step_retries = self.get_int("resilience.max_step_retries",
                                            cfg.max_step_retries)
        cfg.retry_same_dt = self.get_int("resilience.retry_same_dt",
                                         cfg.retry_same_dt)
        cfg.task_retries = self.get_int("resilience.retries",
                                        cfg.task_retries)
        cfg.retry_backoff = self.get_float("resilience.backoff",
                                           cfg.retry_backoff)
        cfg.task_timeout = self.get_float("resilience.task_timeout",
                                          cfg.task_timeout)
        cfg.max_pool_restarts = self.get_int("resilience.max_pool_restarts",
                                             cfg.max_pool_restarts)
        cfg.autocheckpoint_every = self.get_int(
            "resilience.autocheckpoint_every", cfg.autocheckpoint_every)
        cfg.autocheckpoint_dir = self.get_str(
            "resilience.autocheckpoint_dir", cfg.autocheckpoint_dir)
        cfg.autocheckpoint_keep = self.get_int(
            "resilience.autocheckpoint_keep", cfg.autocheckpoint_keep)
        cfg.max_restores = self.get_int("resilience.max_restores",
                                        cfg.max_restores)
        cfg.positivity_spike = self.get_int("resilience.positivity_spike",
                                            cfg.positivity_spike)
        cfg.cfl_margin = self.get_float("resilience.cfl_margin",
                                        cfg.cfl_margin)
        # fault plan tokens may be space- or semicolon-separated in the deck
        if "resilience.faults.plan" in self:
            cfg.faults_plan = ";".join(self._entries["resilience.faults.plan"])
        cfg.faults_seed = self.get_int("resilience.faults.seed",
                                       cfg.faults_seed)

    def domain_cells(self) -> Optional[List[int]]:
        """The ``amr.n_cell`` entry (coarse cells per direction)."""
        return self.get_ints("amr.n_cell")
