"""qbm benchmark: one workload per invocation, run from the repository root.

usage: python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1

Every run first self-tests the benchmark (selftest.py), then:

--trace 0  times `python -m qbm.cli` children from outside, one after the
           other, until S seconds of them have run: wall_s and peak_rss_mb
           are the medians over those children, setup_s the median of nine
           children that only import qbm, parse the config and build the
           bath.  Nothing in those children is wrapped.
--trace 1  alternates traced children (traced_child.py) with untraced ones
           until S seconds have run, and reports each per-layer metric as
           its median over the traced children.

Every child's outputs are checked by check.py outside the timed region; a
child that exits non-zero or fails the check counts as failed.  The last
line of stdout is the JSON result; everything else, with the environment,
goes to .bench_build/results/.  Metric names and units come from
BENCHMARK.json.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

# Before numpy loads: OpenBLAS worker threads spin for a while after each
# call, and the checks run between timed children.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import check  # noqa: E402
import selftest  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_build"

SETUP_PROBES = 9
DEADLINE_S = 170.0  # children still running this long after start are killed
SETUP_CODE = (
    "import pathlib, sys, qbm; "
    "config = qbm.parse_config(pathlib.Path(sys.argv[1]).read_text(encoding='utf-8')); "
    "qbm.build_bath(config.model)"
)
KERNELS = (
    "evolution.oscillator_population",
    "evolution.survival_probability",
    "langevin.mean_position",
    "langevin.coefficient_series",
)
CLI_SPANS = ("cli.run", "cli.build_report")


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        QBM_THREADS=str(threads),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
    )
    return env


class Children:
    """Runs children one at a time through launcher.py and keeps the whole
    run inside its deadline."""

    def __init__(self, env: dict, run_dir: Path):
        self.env = env
        self.run_dir = run_dir
        self.start = time.perf_counter()
        self.longest = 0.0
        self._launcher = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._launcher.stdin.close()
        self._launcher.wait()
        self._launcher.stdout.close()

    def time_left(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def run(self, cmd: list[str]) -> dict:
        """{"begin", "wall_s", "peak_rss_mb", "code"}; the child's stdout and
        stderr go to files in the run directory."""
        request = {
            "cmd": cmd,
            "env": self.env,
            "cwd": str(ROOT),
            "stdout": str(self.run_dir / "stdout"),
            "stderr": str(self.run_dir / "stderr"),
            "timeout": max(self.time_left(), 1.0),
        }
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        reply = json.loads(self._launcher.stdout.readline())
        self.longest = max(self.longest, reply["wall_s"])
        return reply

    def failure(self, reply: dict) -> list[str]:
        if reply["code"] == 0:
            return []
        lines = (self.run_dir / "stderr").read_text(encoding="utf-8", errors="replace").splitlines()
        return [f"exit {reply['code']}: {lines[-1] if lines else ''}"]

    def can_repeat(self) -> bool:
        return self.time_left() > 1.5 * self.longest + 5.0


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "QBM_THREADS": str(workload.threads),
        "OPENBLAS_NUM_THREADS": "1",
        "commit": git_commit(),
        "seed": seed,
        "src_qbm_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((SRC / "qbm").glob("*.py"))
        ),
    }


def layer_metrics(doc: dict, reply: dict, workers: int, bytes_written: int) -> dict:
    """Per-layer metrics of one traced child.  A `<layer>.<fn>_s` metric is
    the summed self time of that function's spans."""
    records = doc["spans"]
    self_s, total_s = defaultdict(float), defaultdict(float)
    calls, items = defaultdict(int), defaultdict(int)
    for record, own in zip(records, spans.self_times(records)):
        name, start, end, parent, thread, count = record
        self_s[name] += own
        total_s[name] += end - start
        calls[name] += 1
        items[name] += count

    # Grid blocks: product-kernel calls made by the cli span itself.  A grid
    # loop is a run of consecutive blocks of one kernel.
    cli_ids = {i for i, r in enumerate(records) if r[0] in CLI_SPANS}
    blocks = sorted((r for r in records if r[0] in KERNELS and r[3] in cli_ids), key=lambda r: r[1])
    busy = sum(r[2] - r[1] for r in blocks)
    loop_wall, loop = 0.0, []
    for r in blocks + [None]:
        if loop and (r is None or r[0] != loop[0][0]):
            loop_wall += max(b[2] for b in loop) - loop[0][1]
            loop = []
        if r is not None:
            loop.append(r)

    # the launcher's spawn time and the child's clock are one monotonic clock on Linux
    startup = doc["started"] - reply["begin"]
    main_end = max(r[2] for r in records if r[0] == "cli.main")
    exit_s = reply["begin"] + reply["wall_s"] - main_end
    solve, population = "spectrum.solve_spectrum", "evolution.oscillator_population"
    return {
        "config.parse_s": self_s["config.parse_config"],
        "model.build_bath_s": self_s["model.build_bath"],
        "spectrum.solve_s": self_s[solve],
        "spectrum.solve_us_per_root": 1e6 * total_s[solve] / items[solve],
        "spectrum.overlap_matrix_calls": calls["spectrum.overlap_matrix"],
        "spectrum.overlap_matrix_s": self_s["spectrum.overlap_matrix"],
        "evolution.oscillator_population_s": self_s[population],
        "evolution.mode_samples_per_s": items[population] / total_s[population],
        "evolution.peak_alloc_mb": doc["peak_alloc_bytes"] / 2**20,
        "evolution.survival_probability_s": self_s["evolution.survival_probability"],
        "langevin.moment_signal_calls": calls["langevin.moment_signal"],
        "langevin.moment_signal_s": self_s["langevin.moment_signal"],
        "langevin.coefficient_series_s": self_s["langevin.coefficient_series"],
        "langevin.mean_position_s": self_s["langevin.mean_position"],
        "langevin.estimate_gamma_s": self_s["langevin.estimate_gamma"],
        "cli.startup_s": startup,
        "cli.import_s": total_s["cli.import"],
        "cli.exit_s": exit_s,
        "cli.self_s": sum(self_s[n] for n in CLI_SPANS),
        "cli.bytes_written": bytes_written,
        "cli.blocks": len(blocks),
        "cli.pool_wait_ratio": 1.0 - busy / (workers * loop_wall) if loop_wall else 0.0,
        "trace.coverage": (startup + total_s["cli.import"] + total_s["cli.main"] + exit_s) / reply["wall_s"],
    }


class Measurement:
    """One invocation: runs the workload's children, checks every output,
    and keeps the counts and samples."""

    def __init__(self, workload, seed: int, run_dir: Path, children: Children):
        self.workload = workload
        self.inputs = workload.inputs(seed)
        self.run_dir = run_dir
        self.children = children
        self.cfg = run_dir / "run.cfg"
        self.cfg.write_text(workload.config_text(seed), encoding="utf-8")
        self.out_dir = run_dir / "out"
        self.qbm_args = [workload.command, "--config", str(self.cfg)]
        if workload.command == "run":
            self.qbm_args += ["--out", str(self.out_dir)]
        self.spans_path = run_dir / "spans.json"
        self.spectrum_path = run_dir / "spectrum.npy"
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list] = defaultdict(list)
        self.layers: dict[str, list] = defaultdict(list)
        self.ref = self.readings = None

    def record(self, found: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(found)
        self.problems.extend(found[: 20 - len(self.problems)])

    def check_spectrum(self, alphas, weights) -> None:
        """Checks the spectrum the workload solves (a failure counts once)
        and builds the reference the outputs are checked against."""
        self.ref = check.Reference(self.inputs, alphas, weights)
        found, self.readings = check.spectrum_problems(alphas, weights, self.ref)
        self.record(found)

    def solve_here(self, qbm) -> None:
        """The spectrum the checks use under --trace 0, solved here outside
        the timed children.  Above N = 2000 one qbm solve per checkout serves
        every seed: under the Lorentzian rule alpha = Omega + A x, where x
        does not depend on A or Omega.  So x is cached in .bench_build once
        qbm's spectrum passes the checks.  A spectrum rebuilt from the cache
        takes its weights from 1/F'(alpha) at the rebuilt roots, since a
        root within 1e-8 of its pole carries a weight that the rounding of
        alpha already moves by 1e-8; it must pass the same checks."""
        inp = self.inputs
        cache = WORK / f"lorentzian-roots-N{inp['N']}.npy"
        if inp["N"] > check.DENSE_MAX_N and cache.is_file():
            alphas = inp["Omega"] + inp["A"] * np.load(cache)
            om, g = check.lorentzian_bath(inp)
            self.check_spectrum(alphas, 1.0 / check.secular(alphas, om, g, inp["Omega"])[1])
            return
        config = qbm.parse_config(self.cfg.read_text(encoding="utf-8"))
        spec = qbm.solve_spectrum(qbm.build_bath(config.model), config.model.omega0)
        failed = self.failed
        self.check_spectrum(spec.alphas, spec.weights)
        if inp["N"] > check.DENSE_MAX_N and self.failed == failed:
            np.save(cache, (spec.alphas - inp["Omega"]) / inp["A"])

    def setup(self) -> None:
        """setup_s samples: children that import qbm, parse the config and
        build the bath, and stop there."""
        for _ in range(SETUP_PROBES):
            reply = self.children.run([sys.executable, "-c", SETUP_CODE, str(self.cfg)])
            self.record(self.children.failure(reply))
            self.samples["setup_s"].append(reply["wall_s"])

    def run_checked(self, cmd: list[str]) -> tuple[dict, list[str]]:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        reply = self.children.run(cmd)
        found = self.children.failure(reply)
        if not found:
            if self.ref is None:  # first traced child: its spectrum feeds the checks
                self.check_spectrum(*np.load(self.spectrum_path))
            try:
                if self.workload.command == "report":  # prints the report, writes no files
                    report = (self.run_dir / "stdout").read_text(encoding="utf-8")
                    found = check.report_problems(report, self.ref)
                else:
                    found = check.output_problems(self.inputs["outputs"], self.out_dir, self.ref)
            except ValueError as exc:
                found = [f"unparseable output: {exc}"]
        self.record(found)
        return reply, found

    def untraced(self) -> None:
        reply, _ = self.run_checked([sys.executable, "-m", "qbm.cli", *self.qbm_args])
        self.samples["wall_s"].append(reply["wall_s"])
        self.samples["peak_rss_mb"].append(reply["peak_rss_mb"])

    def traced(self) -> None:
        cmd = [sys.executable, str(BENCH / "traced_child.py"), str(self.spans_path), str(self.spectrum_path)]
        reply, found = self.run_checked(cmd + self.qbm_args)
        if found:
            return
        if self.workload.command == "report":
            written = (self.run_dir / "stdout").stat().st_size
        else:
            written = sum(p.stat().st_size for p in self.out_dir.iterdir())
        doc = json.loads(self.spans_path.read_text(encoding="utf-8"))
        for key, value in layer_metrics(doc, reply, self.workload.threads, written).items():
            self.layers[key].append(value)
        self.samples["traced_wall_s"].append(reply["wall_s"])

    def measure(self, seconds: float, trace: bool) -> None:
        """Untraced children (alternating with traced ones under --trace 1)
        until `seconds` of them have run; at least one of each."""
        while True:
            if trace:
                self.traced()
            if self.ref is None:  # the first traced child failed
                return
            self.untraced()
            timed = sum(self.samples["wall_s"]) + sum(self.samples.get("traced_wall_s", ()))
            if timed >= seconds or not self.children.can_repeat():
                return

    def metrics(self, trace: bool) -> dict:
        median = statistics.median
        if not trace:
            return {key: median(self.samples[key]) for key in ("wall_s", "setup_s", "peak_rss_mb")}
        # the low median is always one measured sample, so counts stay whole
        metrics = {key: statistics.median_low(values) for key, values in self.layers.items()}
        if metrics:
            metrics["trace.overhead_s"] = median(self.samples["traced_wall_s"]) - median(self.samples["wall_s"])
            metrics["spectrum.sum_rule_max"] = self.readings["sum_rule_max"]
            # the dense oracle stops at N = 2000; -1 marks "not measured"
            metrics["spectrum.oracle_max_dw"] = self.readings.get("oracle_max_dw", -1.0)
        return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "qbm" / "__init__.py").is_file():
        print("run_bench: no src/qbm here; run from the root of a qbm checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(SRC))
    import qbm

    workload = WORKLOADS[args.workload]
    run_dir = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = child_env(workload.threads)

    failures = selftest.run(env, run_dir)
    for failure in failures:
        print(f"selftest: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("selftest: ok")

    with Children(env, run_dir) as children:
        measurement = Measurement(workload, args.seed, run_dir, children)
        if not args.trace:
            measurement.setup()
            measurement.solve_here(qbm)
        measurement.measure(args.seconds, bool(args.trace))
    metrics = measurement.metrics(bool(args.trace))

    if set(metrics) != set(units):
        measurement.problems.append(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    for problem in measurement.problems:
        print(f"check: {problem}", file=sys.stderr)
    env_record = environment(workload, args.seed)
    print("env: " + json.dumps(env_record))
    for key, values in sorted(measurement.samples.items()):
        print(f"{key}: n={len(values)} median={statistics.median(values):.6g} "
              f"min={min(values):.6g} max={max(values):.6g}")
    for key, value in metrics.items():
        print(f"{workload.name} {key} = {value:.6g} {units.get(key, '')}")
    fail_ratio = measurement.failed / max(measurement.attempted, 1)
    print(f"{workload.name} fail_ratio = {fail_ratio:.6g} ({measurement.failed} of {measurement.attempted})")

    result = {
        "correct": measurement.failed == 0 and set(metrics) == set(units),
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units if key in metrics},
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    detail = {
        "workload": workload.name,
        "trace": args.trace,
        "environment": env_record,
        "inputs": workload.inputs(args.seed),
        "fail_ratio": fail_ratio,
        "problems": measurement.problems,
        "samples": measurement.samples,
        **result,
    }
    (results / f"{run_dir.name}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
