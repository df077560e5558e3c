"""Subprocesses started by the tests (``python -m andreief.cli``) import
the same package as the suite, also when it runs from a checkout."""

import os
from pathlib import Path

import andreief

_PACKAGE_ROOT = str(Path(andreief.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_PACKAGE_ROOT, os.environ.get("PYTHONPATH")])
)
