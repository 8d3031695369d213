"""Run one qbm command with spans around every layer call.

usage: traced_child.py SPANS_JSON SPECTRUM_NPY QBM_ARG...

Behaves like `python -m qbm.cli QBM_ARG...`, then writes the spans (with the
first population call's tracemalloc peak) to SPANS_JSON, and the spectrum the
run solved (rows: alphas, weights) to SPECTRUM_NPY so that the parent can
check it without solving again.
"""

import time

STARTED = time.perf_counter()  # first statement: the end of interpreter startup

import json  # noqa: E402
import sys  # noqa: E402

from spans import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    spans_path, spectrum_path, *qbm_args = argv
    tracer = Tracer()
    index = tracer.open("cli.import")
    import qbm.cli

    tracer.close(index)
    tracer.install()
    code = tracer.call("cli.main", qbm.cli.main, qbm_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        doc = {"started": STARTED, "spans": tracer.spans, "peak_alloc_bytes": tracer.peak_alloc_bytes}
        json.dump(doc, fh)
    if tracer.spectrum is not None:
        import numpy as np

        np.save(spectrum_path, np.stack([tracer.spectrum.alphas, tracer.spectrum.weights]))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
