"""The benchmark tracer (bench/spans.py) wraps qbm names by module lookup;
a name removed from qbm would fail every traced bench run.  Guard them here."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_lookups_are_bound(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    for module, names in spans.LOOKUPS.items():
        mod = importlib.import_module(module)
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name} is not bound"
