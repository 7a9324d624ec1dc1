"""AMReX-style input deck parsing.

AMReX applications are configured by plain-text decks of
``prefix.key = value`` lines (the paper tunes ``amr.blocking_factor``,
``amr.max_grid_size``, the domain cell counts, etc. this way).  This
module parses that format and maps it onto :class:`CroccoConfig`.
"""

from __future__ import annotations

import shlex
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.config import CroccoConfig, RunControl, convert, resolve
from repro.core.errors import ConfigError


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
                raise ConfigError(
                    f"line {lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            try:
                tokens = shlex.split(value.strip())
            except ValueError as exc:  # unbalanced quote
                raise ConfigError(f"line {lineno}: {exc} in {raw!r}") from None
            if not key or not tokens:
                raise ConfigError(
                    f"line {lineno}: empty key or value in {raw!r}")
            entries[key] = tokens
        return cls(entries)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "InputDeck":
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise ConfigError(f"{path}: cannot read deck: {reason}") from None
        return cls.parse(text)

    # -- accessors ---------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get_int(self, key: str, default: Optional[int] = None) -> Optional[int]:
        entry = self._entries.get(key)
        return default if entry is None else convert(entry[0], (int,), key)

    def get_bool(self, key: str, default: Optional[bool] = None) -> Optional[bool]:
        entry = self._entries.get(key)
        return default if entry is None else convert(entry[0], (bool,), key)

    # -- the option table --------------------------------------------------
    def resolve(self, overrides=None) -> Tuple[CroccoConfig, RunControl]:
        """``(CroccoConfig, RunControl)`` of this deck under
        ``overrides`` — see :func:`repro.core.config.resolve`."""
        return resolve(self._entries, overrides)

    def to_crocco_config(self) -> CroccoConfig:
        """The deck's CroccoConfig (unknown keys and bad values raise)."""
        return self.resolve()[0]

    def domain_cells(self) -> Optional[List[int]]:
        """The deck's coarse cells per direction."""
        return self.resolve()[1].n_cell
