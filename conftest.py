"""Make the checkout's ``src`` importable in subprocesses the tests start.

``pyproject.toml`` puts ``src`` on the test process's ``sys.path`` only; the
perfbench and CLI tests start child interpreters, which read ``PYTHONPATH``.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
