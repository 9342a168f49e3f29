"""Test-session setup shared by every module.

pyproject's `pythonpath = ["src"]` lets plain `pytest` import streamqc from a
checkout; the same directory is put on PYTHONPATH so the acceptance tests'
`python -m streamqc` child processes find the package too.

No test run writes bytecode: a `__pycache__` left in `src/` outlives the
edits it was compiled before, and a benchmark run on that checkout then
reads its import times and memory from the stale cache. The flag is set
before streamqc is imported, and child processes inherit it through
PYTHONDONTWRITEBYTECODE.
"""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

import streamqc  # noqa: E402  (after the bytecode flag)

_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(streamqc.__file__)))
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p)
