"""The names that outside code relies on still exist in the package.

``perfbench/spans.py`` wraps each of its ``TARGETS`` by looking the name
up in its owner's namespace (``owner.__dict__[attr]``); a refactor that
drops or renames a traced function fails here rather than only in the
benchmark's own tests.  The README's library example runs as written,
and every name the package exports resolves.
"""

import importlib.util
import re
import sys
from pathlib import Path

import coringlab

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


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


def test_readme_library_example_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})


def test_every_export_resolves():
    for name in coringlab.__all__:
        assert getattr(coringlab, name, None) is not None, name
