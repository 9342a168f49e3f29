"""Test-session setup shared by every module.

pyproject's `pythonpath = ["src"]` lets plain `pytest` import streamqc from a
checkout; the same directory is put on PYTHONPATH so the acceptance tests'
`python -m streamqc` child processes find the package too.
"""

import os

import streamqc

_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(streamqc.__file__)))
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p)
