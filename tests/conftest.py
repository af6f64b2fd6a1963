"""Test the package in src/ without installing it.

src/ goes first on sys.path for this process and first on PYTHONPATH for the
subprocesses the CLI tests start, so a plain `python -m pytest` from a fresh
checkout tests the working tree.
"""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
