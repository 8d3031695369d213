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


def test_traced_default_run_spans_every_product(monkeypatch, tmp_path):
    # run_bench.py reads the self times of these spans; a product no
    # longer called through qbm.cli's globals would leave its metric at 0,
    # or, for the population, divide by a zero total
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    from qbm import cli, parse_config

    tracer = spans.Tracer()
    tracer.install()
    try:
        cli.run(parse_config(""), out_dir=tmp_path)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    for name in (
        "evolution.oscillator_population",
        "evolution.survival_probability",
        "langevin.mean_position",
        "langevin.coefficient_series",
        "langevin.estimate_gamma",
    ):
        assert name in names, name
