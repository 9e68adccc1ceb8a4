"""The benchmark's traced pass patches library attributes by name.

``perfbench/spans.py`` lists every ``(module, attribute)`` it wraps in
``TARGETS``; a rename or a dropped import in the library would break the
traced pass only when the benchmark runs, so each one is resolved here.
"""

import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    targets = importlib.import_module("perfbench.spans").TARGETS
    missing = [(module, attr) for module, attr, _ in targets
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert targets and missing == []
