"""Lets the CLI subprocesses that tests start import the package from this
checkout, so plain `pytest` works from the repository root without an install."""
import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
