"""The benchmark's modules import each other by bare name (run.py and
child.py are run as scripts), so the tests put its directory on the path."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parents[1]
for p in (str(HERE), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)
