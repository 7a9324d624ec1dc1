"""Fail when an option's deck key or env var is spelled outside the table.

Every deck key and ``REPRO_*`` variable of the option table
(``repro.core.config``) must be exactly one string literal under
``src/`` — its declaration — so the next knob cannot be hand-plumbed
through a second ``deck.get_int("section.key", ...)`` or
``os.environ.get`` again.  Prose that mentions a key (docstrings,
comments, messages, help texts) is documentation and does not count.

    PYTHONPATH=src python tools/lint_option_table.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


def violations(src: Path = ROOT / "src") -> list:
    from repro.core.config import BY_NAME

    seen = {s: [] for o in BY_NAME.values() for s in (o.deck, o.env) if s}
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src.parent).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            text = getattr(node, "value", None)
            if (isinstance(node, ast.Constant) and isinstance(text, str)
                    and text in seen):
                seen[text].append(f"{rel}:{node.lineno}")
    return [f"{s}: written {len(where)} times ({', '.join(where) or 'nowhere'})"
            for s, where in seen.items() if len(where) != 1]


def main() -> int:
    found = violations()
    for line in found:
        print(f"option spelled outside the table — {line}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
