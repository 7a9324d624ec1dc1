"""Shared configuration-error type.

:class:`ConfigError` historically lived in :mod:`repro.core.crocco`; it
moved here so low-level layers (the version table, the fused target's
JIT switch) can raise it without importing the driver — ``repro.core.crocco`` imports the kernel and backend
packages, so the reverse import would be a cycle.  ``repro.core.crocco``
re-exports the name, and the CLI / serve convention is unchanged: a
``ConfigError`` is reported as a one-line ``error: ...`` message with
exit status 2 instead of a traceback.
"""

from __future__ import annotations


class ConfigError(ValueError):
    """An invalid run configuration, reported before anything is built.

    Raised by the option table (:mod:`repro.core.config`: deck, flag
    and env parsing, ``CroccoConfig.validate``) and the deck parser so
    the CLI and the serve layer can turn a bad deck, flag, or
    environment into a clear one-line message (exit status 2) instead of
    a traceback deep inside pool or engine construction.
    """
