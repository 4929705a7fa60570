"""``tools/`` holds scripts, not a package: put it on the path so the
tests can import ``smoke`` and ``perf_report`` the way the scripts run."""

import sys
from pathlib import Path

TOOLS = str(Path(__file__).resolve().parents[2] / "tools")
if TOOLS not in sys.path:
    sys.path.insert(0, TOOLS)
