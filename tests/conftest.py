"""Let the CLI subprocess tests import the package from ``src`` too.

The ``pythonpath`` setting in ``pyproject.toml`` reaches only the pytest
process; child interpreters read ``PYTHONPATH``.
"""

import os
import pathlib

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
