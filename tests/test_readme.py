"""The README's library examples run as written."""

import re
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_examples_run_in_order():
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 2
    # A fresh interpreter, so the examples get no imports from the test run;
    # conftest puts the checkout's src on its PYTHONPATH.
    proc = subprocess.run(
        [sys.executable, "-c", "".join(blocks)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
