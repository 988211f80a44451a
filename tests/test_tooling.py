"""The benchmark's traced names still exist in the package.

``perfbench/spans.py`` wraps each of its ``TARGETS`` by looking the name
up in its owner's namespace (``owner.__dict__[attr]``); a refactor that
drops or renames a traced function fails here rather than only in the
benchmark's own tests.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_span_target_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the file executes
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for target in spans.TARGETS:
        owner, attr = spans._resolve(target)
        assert attr in owner.__dict__, target
        assert callable(owner.__dict__[attr]), target
