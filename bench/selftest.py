"""Self-test of the benchmark itself, run before every measurement.

1. The checks accept correct data and reject corrupted data: a dense
   eigensystem passes spectrum_problems and fails it once a root or a
   weight is nudged; a product CSV built from the dense propagator passes
   csv_problems and fails it once one value is nudged.
2. Tracing leaves nothing behind: after Tracer.uninstall every looked-up
   name is the original again, and a fresh interpreter started with the
   untraced children's environment sees only qbm's own functions.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import check
import spans

_PROBE = """
import importlib, json, os, sys
bad = []
for module, attrs in json.loads(sys.argv[1]).items():
    m = importlib.import_module(module)
    for attr in attrs:
        fn = getattr(m, attr)
        home = os.path.dirname(os.path.realpath(fn.__code__.co_filename))
        if hasattr(fn, "__wrapped__") or home != sys.argv[2]:
            bad.append(module + "." + attr)
bad += [name for name in ("spans", "check") if name in sys.modules]
print(json.dumps(bad))
"""

_TINY = {
    "N": 20,
    "A": 0.05,
    "Omega": 1.0,
    "beta": 1.0,
    "N_Omega0": 1.0,
    "X0": 1.0,
    "P0": 0.0,
    "M": 1.0,
    "t_start": 0.0,
    "t_step": 0.25,
    "n_steps": 40,
}


def _check_rejects_corruption(work_dir: Path) -> list[str]:
    failures = []
    ref = check.Reference(_TINY)
    if check.spectrum_problems(ref.alphas, ref.weights, ref)[0]:
        failures.append("spectrum check rejects the dense eigensystem")
    nudged_root = ref.alphas.copy()
    nudged_root[7] += 1e-7
    nudged_weight = ref.weights.copy()
    nudged_weight[3] *= 1.0 + 1e-6
    for label, alphas, weights in (
        ("a nudged root", nudged_root, ref.weights),
        ("a nudged weight", ref.alphas, nudged_weight),
        ("swapped roots", ref.alphas[::-1], ref.weights[::-1]),
    ):
        if not check.spectrum_problems(alphas, weights, ref)[0]:
            failures.append(f"spectrum check accepts {label}")

    values = ref.series(ref.ts)["population"]
    with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
        path = Path(tmp) / "population.csv"
        for label, nudge in (("correct", 0.0), ("nudged", 1e-6)):
            v = values.copy()
            v[ref.sample_index()[4]] += nudge
            rows = "".join(f"{t:.16e},{x:.16e}\n" for t, x in zip(ref.ts, v))
            path.write_text(check.HEADERS["population"] + "\n" + rows, encoding="utf-8")
            rejected = bool(check.csv_problems("population", path, ref))
            if rejected != bool(nudge):
                failures.append(f"population check {'rejects' if rejected else 'accepts'} {label} values")
    return failures


def _tracing_leaves_no_trace(env: dict) -> list[str]:
    import qbm.cli  # noqa: F401  (LOOKUPS modules must be importable)

    failures = []
    modules = {name: sys.modules[name] for name in spans.LOOKUPS}
    before = {(m, a): getattr(modules[m], a) for m, attrs in spans.LOOKUPS.items() for a in attrs}
    tracer = spans.Tracer()
    tracer.install()
    if any(getattr(modules[m], a) is fn for (m, a), fn in before.items()):
        failures.append("install left a name unwrapped")
    tracer.uninstall()
    if any(getattr(modules[m], a) is not fn for (m, a), fn in before.items()):
        failures.append("uninstall left a name wrapped")

    home = os.path.realpath(Path(env["PYTHONPATH"]) / "qbm")
    probe = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(spans.LOOKUPS), home],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    if probe.returncode != 0:
        failures.append(f"untraced probe failed: {probe.stderr.strip()}")
    else:
        bad = json.loads(probe.stdout)
        if bad:
            failures.append(f"untraced interpreter sees wrapped or foreign names: {bad}")
    return failures


def run(env: dict, work_dir: Path) -> list[str]:
    """All self-test failures (empty when the benchmark can be trusted)."""
    return _check_rejects_corruption(work_dir) + _tracing_leaves_no_trace(env)
