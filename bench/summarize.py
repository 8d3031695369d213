"""Summarize the benchmark's result files.

usage: python3 bench/summarize.py [RESULTS_DIR]   (default .bench_build/results)

For each workload and mode, prints as JSON the seeds run, the children
attempted and failed, and for each metric the median, the quartiles from
statistics.quantiles(values, n=4) and the spread (q3 - q1) / median.
"""

import json
import statistics
import sys
from pathlib import Path


def summarize(folder: Path) -> dict:
    groups: dict[str, dict] = {}
    for path in sorted(folder.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        group = groups.setdefault(
            f"{doc['workload']}/trace{doc['trace']}",
            {"seeds": [], "attempted": 0, "failed": 0, "metrics": {}},
        )
        group["seeds"].append(doc["environment"]["seed"])
        group["attempted"] += doc["attempted"]
        group["failed"] += doc["failed"]
        for name, metric in doc["metrics"].items():
            entry = group["metrics"].setdefault(name, {"unit": metric["unit"], "values": []})
            entry["values"].append(metric["value"])
    for group in groups.values():
        group["seeds"].sort()
        for entry in group["metrics"].values():
            values = entry.pop("values")
            entry["n"] = len(values)
            entry["median"] = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                entry["q1"], entry["q3"] = q1, q3
                entry["spread"] = (q3 - q1) / entry["median"] if entry["median"] else None
    return groups


if __name__ == "__main__":
    folder = Path(sys.argv[1] if len(sys.argv) > 1 else ".bench_build/results")
    print(json.dumps(summarize(folder), indent=1))
