"""The benchmark's span tracer finds every function it wraps under the names it patches."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_spans", Path(__file__).resolve().parent.parent / "perfbench" / "spans.py")
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize("span", sorted(spans.TRACED))
def test_traced_name_resolves_in_its_home_and_every_lookup(span):
    home, attr, lookups = spans.TRACED[span]
    fn = getattr(importlib.import_module(home), attr)
    for name in lookups:
        assert getattr(importlib.import_module(name), attr) is fn, f"{name}.{attr}"
