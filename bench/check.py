"""Output checks that do not trust the code under test.

Every reference value is rebuilt here from the workload's numbers: the bath
from the documented Lorentzian rule, the eigensystem from numpy.linalg.eigh
of the dense arrowhead matrix (N <= 2000), and the products from the dense
propagator U(t) = V diag(exp(-i lambda t)) V^T.  Above N = 2000 no dense
oracle fits, so the spectrum qbm returns is accepted only if it interlaces
the bath, solves the secular equation, carries weights 1/F'(alpha) and meets
the three moment sum rules; the report is then checked against it.

Comparisons use tolerances, never byte digests, so a change in the last ulp
of the products passes.  Each check returns a list of problems (empty means
correct) so one run can report all of them.  A field that does not parse
as a number raises ValueError.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

DENSE_MAX_N = 2000
SAMPLES = 9  # grid times compared against the dense propagator

SPECTRUM_TOL = 1e-9  # |alpha - lambda| and |w - w_dense|: acceptance criterion 1
SUM_RULE_TOL = 1e-10
SECULAR_TOL = 1e-11  # |F(alpha) / F'(alpha)| relative to max(1, |alpha|)
WEIGHT_RTOL = 1e-10  # |w F'(alpha) - 1|
VALUE_TOL = 1e-9  # population, survival and position are O(1)
COEFF_TOL = 1e-8  # scaled by the conditioning scale / |denominator|
COEFF_MIN_DEN = 1e-3  # coefficient rows closer than this to a zero are skipped
REL_TOL = 1e-9  # report scalars derived from the spectrum
FIT_RTOL = 1e-6

# the report's decay-fit and plateau windows (README: "Accuracy notes")
FIT_WINDOW = (1.0, 20.0)
FIT_SAMPLES = 256
PLATEAU_WINDOW = (100.0, 300.0)

HEADERS = {
    "population": "t,n_omega",
    "survival": "t,p_surv",
    "position": "t,x",
    "coefficients": "t,omega2,gamma,denominator_ok",
}


def lorentzian_bath(inputs: dict) -> tuple[np.ndarray, np.ndarray]:
    """omega_n = Omega + A (n - N/2), g_n = A a^2 / (a^2 + (omega_n - Omega)^2),
    a = A (N - 2) / 2, n = 1..N."""
    n, step, omega0 = inputs["N"], inputs["A"], inputs["Omega"]
    a = step * (n - 2) / 2.0
    om = omega0 + step * (np.arange(1, n + 1, dtype=float) - n / 2.0)
    return om, step * a**2 / (a**2 + (om - omega0) ** 2)


def grid_times(inputs: dict) -> np.ndarray:
    return inputs["t_start"] + inputs["t_step"] * np.arange(inputs["n_steps"], dtype=float)


def dense_eigensystem(om: np.ndarray, g: np.ndarray, omega0: float):
    """Eigenvalues and eigenvectors of the dense (N+1)x(N+1) arrowhead matrix."""
    h = np.diag(np.concatenate(([omega0], om)))
    h[0, 1:] = g
    h[1:, 0] = g
    return np.linalg.eigh(h)


def secular(alphas: np.ndarray, om: np.ndarray, g: np.ndarray, omega0: float):
    """F(alpha) = alpha - omega0 - sum_n g_n^2 / (alpha - omega_n) and F'(alpha)
    at every alpha, in blocks of 256 so that N = 10^4 needs about 20 MB."""
    f, fp = np.empty_like(alphas), np.empty_like(alphas)
    g2 = g**2
    for lo in range(0, alphas.size, 256):
        a = alphas[lo : lo + 256]
        d = a[:, None] - om[None, :]
        r = g2 / d
        f[lo : lo + 256] = a - omega0 - r.sum(axis=1)
        fp[lo : lo + 256] = 1.0 + (r / d).sum(axis=1)
    return f, fp


def spectrum_problems(alphas, weights, ref: "Reference") -> tuple[list[str], dict]:
    """Check a computed spectrum against the bath of `ref` and, for
    N <= 2000, its dense oracle; returns (problems, readings).  Readings:
    sum_rule_max, secular_max_step, and oracle_max_dw (N <= 2000 only)."""
    om, g, omega0 = ref.om, ref.g, ref.inputs["Omega"]
    alphas = np.asarray(alphas, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n = om.size
    if alphas.shape != (n + 1,) or weights.shape != (n + 1,):
        return [f"spectrum holds {alphas.size} roots, expected {n + 1}"], {}
    if not (np.all(np.isfinite(alphas)) and np.all(np.isfinite(weights))):
        return ["spectrum holds non-finite values"], {}
    problems = []
    if not (np.all(alphas[:-1] < om) and np.all(om < alphas[1:])):
        problems.append("roots do not interlace the bath frequencies")

    m2 = omega0**2 + float(np.sum(g**2))
    sum_rule_max = max(
        abs(float(np.sum(weights)) - 1.0),
        abs(float(alphas @ weights) - omega0) / max(1.0, omega0),
        abs(float(alphas**2 @ weights) - m2) / m2,
    )
    if not sum_rule_max <= SUM_RULE_TOL:
        problems.append(f"sum rule residual {sum_rule_max:.3e} > {SUM_RULE_TOL:.0e}")

    f, fp = secular(alphas, om, g, omega0)
    step_max = float(np.max(np.abs(f) / fp / np.maximum(1.0, np.abs(alphas))))
    weight_max = float(np.max(np.abs(weights * fp - 1.0)))
    if not step_max <= SECULAR_TOL:
        problems.append(f"secular residual |F/F'| {step_max:.3e} > {SECULAR_TOL:.0e}")
    if not weight_max <= WEIGHT_RTOL:
        problems.append(f"weights differ from 1/F'(alpha) by {weight_max:.3e} (relative)")

    readings = {"sum_rule_max": sum_rule_max, "secular_max_step": step_max}
    if ref.vec is not None:
        d_alpha = float(np.max(np.abs(alphas - ref.alphas)))
        d_w = float(np.max(np.abs(weights - ref.weights)))
        readings["oracle_max_dw"] = d_w
        if not d_alpha <= SPECTRUM_TOL:
            problems.append(f"roots differ from the dense oracle by {d_alpha:.3e}")
        if not d_w <= SPECTRUM_TOL:
            problems.append(f"weights differ from the dense oracle by {d_w:.3e}")
    return problems, readings


class Reference:
    """Reference products for one workload's inputs.

    Up to N = 2000 the eigensystem is the dense oracle's.  Above, it is the
    spectrum passed in, and only as good as spectrum_problems finds it.
    Population needs eigenvectors, so above N = 2000 it is only bounded.
    """

    def __init__(self, inputs: dict, alphas=None, weights=None):
        self.inputs = inputs
        self.om, self.g = lorentzian_bath(inputs)
        self.occ = np.concatenate(
            ([inputs["N_Omega0"]], 1.0 / np.expm1(inputs["beta"] * self.om))
        )
        self.ts = grid_times(inputs)
        if self.om.size <= DENSE_MAX_N:
            self.alphas, vec = dense_eigensystem(self.om, self.g, inputs["Omega"])
            self.weights = vec[0] ** 2
            self.vec = vec
        else:
            self.alphas = np.asarray(alphas, dtype=float)
            self.weights = np.asarray(weights, dtype=float)
            self.vec = None

    def series(self, ts: np.ndarray) -> dict:
        """Products at the given times from the moment signals
        S_k = sum_nu alpha^k w exp(-i alpha t) and, with eigenvectors, from
        row 0 of the dense propagator."""
        inp = self.inputs
        phases = np.exp(-1j * np.multiply.outer(ts, self.alphas))
        s0, s1, s2 = (phases @ (self.weights * self.alphas**k) for k in range(3))
        den = np.real(np.conj(s1) * s0)
        out = {
            "survival": np.abs(s0) ** 2,
            # X(t) = Re[A(t) (X0 + i P0/(M Omega))]: the mean of the
            # oscillator's lowering operator evolves with A(t) alone
            "position": inp["X0"] * s0.real
            - inp["P0"] / (inp["M"] * inp["Omega"]) * s0.imag,
            "den": den,
        }
        with np.errstate(divide="ignore", invalid="ignore"):
            out["omega2"] = np.real(s1 * np.conj(s2)) / den
            out["gamma"] = np.imag(np.conj(s2) * s0) / den
        if self.vec is not None:
            amp = (phases * self.vec[0]) @ self.vec.T  # U_0m(t)
            out["population"] = (amp.real**2 + amp.imag**2) @ self.occ
        return out

    def sample_index(self) -> np.ndarray:
        return np.unique(np.round(np.linspace(0, self.ts.size - 1, SAMPLES)).astype(int))


def _read_rows(path: Path, header: str) -> tuple[list[str], list[list[str]]]:
    if not path.is_file():
        return [f"{path.name} missing"], []
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines[-1] != "":
        return [f"{path.name} does not end in a newline"], []
    if lines[0] != header:
        return [f"{path.name} header {lines[0]!r}, expected {header!r}"], []
    return [], [line.split(",") for line in lines[1:-1]]


def csv_problems(product: str, path: Path, ref: Reference) -> list[str]:
    """One product CSV against the grid, its range and the reference values."""
    problems, rows = _read_rows(path, HEADERS[product])
    if problems:
        return problems
    name = path.name
    if len(rows) != ref.ts.size:
        return [f"{name} has {len(rows)} rows, expected {ref.ts.size}"]
    width = HEADERS[product].count(",") + 1
    if any(len(r) != width for r in rows):
        return [f"{name} has rows without {width} fields"]
    t = np.array([float(r[0]) for r in rows])
    if not np.allclose(t, ref.ts, rtol=1e-12, atol=0.0):
        return [f"{name} time column differs from the grid"]

    idx = ref.sample_index()
    expected = ref.series(ref.ts[idx])
    if product == "coefficients":
        return _coefficient_problems(name, rows, idx, expected, ref)

    v = np.array([float(r[1]) for r in rows])
    if not np.all(np.isfinite(v)):
        return [f"{name} holds non-finite values"]
    inp = ref.inputs
    if product == "population":  # P(t) is row-stochastic
        lo, hi = float(ref.occ.min()), float(ref.occ.max())
    elif product == "survival":
        lo, hi = 0.0, 1.0
    else:  # |A(t)| <= 1 bounds X(t)
        hi = abs(inp["X0"]) + abs(inp["P0"]) / (inp["M"] * inp["Omega"])
        lo = -hi
    if not (v.min() >= lo - VALUE_TOL and v.max() <= hi + VALUE_TOL):
        problems.append(f"{name} leaves its range [{lo:.6g}, {hi:.6g}]")
    if product in expected:
        err = float(np.max(np.abs(v[idx] - expected[product])))
        if not err <= VALUE_TOL:
            problems.append(f"{name} differs from the dense propagator by {err:.3e}")
    return problems


def _coefficient_problems(name, rows, idx, expected, ref) -> list[str]:
    problems = []
    flags = {r[3] for r in rows}
    if not flags <= {"0", "1"}:
        return [f"{name} denominator_ok holds {sorted(flags - {'0', '1'})}"]
    for r in rows:
        if r[3] == "0" and (r[1] or r[2]):
            return [f"{name} flagged row carries values"]
        if r[3] == "1" and not (math.isfinite(float(r[1])) and math.isfinite(float(r[2]))):
            return [f"{name} unflagged row holds non-finite values"]
    scale = float(np.sum(np.abs(ref.alphas) * ref.weights))
    for j, i in enumerate(idx):
        den = abs(float(expected["den"][j]))
        if den < COEFF_MIN_DEN * scale:
            continue
        row = rows[i]
        if row[3] != "1":
            problems.append(f"{name} row {i} flagged, but |denominator| = {den:.3e}")
            continue
        for col, key in ((1, "omega2"), (2, "gamma")):
            want = float(expected[key][j])
            tol = COEFF_TOL * max(1.0, abs(want)) * scale / den
            if not abs(float(row[col]) - want) <= tol:
                problems.append(f"{name} {key} at row {i} is {row[col]}, expected {want:.16e}")
    return problems


def report_problems(text: str, ref: Reference) -> list[str]:
    """report.txt (or `qbm report` output) against values derived here."""
    values = {}
    for line in text.splitlines():
        key, sep, val = line.partition(" = ")
        if sep:
            values[key] = val
    keys = (
        "eigenvalues", "sum_w_residual", "sum_alpha_w_residual",
        "sum_alpha2_w_residual_rel", "gamma_fit", "gamma_fit_rms_residual",
        "gamma_golden_rule", "t_recurrence", "tau_oscillator",
        "recurrence_over_period", "plateau_mean", "plateau_window",
    )
    missing = [k for k in keys if k not in values]
    if missing:
        return [f"report lacks {', '.join(missing)}"]
    problems = []
    inp = ref.inputs
    if values["eigenvalues"] != str(inp["N"] + 1):
        problems.append(f"report eigenvalues = {values['eigenvalues']}, expected {inp['N'] + 1}")
    for key in ("sum_w_residual", "sum_alpha_w_residual", "sum_alpha2_w_residual_rel"):
        if not float(values[key]) <= SUM_RULE_TOL:
            problems.append(f"report {key} = {values[key]}")

    t_r = 2.0 * math.pi / float(np.min(np.diff(ref.alphas)))
    tau = 2.0 * math.pi / inp["Omega"]
    resonant = int(np.argmin(np.abs(ref.om - inp["Omega"])))
    golden = 2.0 * math.pi * float(ref.g[resonant]) ** 2 / float(np.median(np.diff(ref.om)))
    for key, want in (
        ("t_recurrence", t_r),
        ("tau_oscillator", tau),
        ("recurrence_over_period", t_r / tau),
        ("gamma_golden_rule", golden),
    ):
        if not abs(float(values[key]) - want) <= REL_TOL * abs(want):
            problems.append(f"report {key} = {values[key]}, expected {want:.16e}")

    ts = np.linspace(*FIT_WINDOW, FIT_SAMPLES)
    p = ref.series(ts)["survival"]
    if np.all(p > 1e-24):
        y = -np.log(p)
        slope, intercept = np.polyfit(ts, y, 1)
        rms = float(np.sqrt(np.mean((y - (slope * ts + intercept)) ** 2)))
        for key, want in (("gamma_fit", float(slope)), ("gamma_fit_rms_residual", rms)):
            if not abs(float(values[key]) - want) <= FIT_RTOL * abs(want) + 1e-12:
                problems.append(f"report {key} = {values[key]}, expected {want:.16e}")
    elif not math.isnan(float(values["gamma_fit"])):  # |A|^2 vanishes: no fit
        problems.append(f"report gamma_fit = {values['gamma_fit']}, expected nan")

    lo, hi = PLATEAU_WINDOW
    if values["plateau_window"] != f"[{lo:.16e}, {hi:.16e}]":
        problems.append(f"report plateau_window = {values['plateau_window']}")
    window = ref.ts[(ref.ts >= lo) & (ref.ts <= hi)]
    plateau = float(values["plateau_mean"])
    if window.size == 0:
        if not math.isnan(plateau):
            problems.append(f"report plateau_mean = {plateau!r} over an empty window")
    elif ref.vec is not None:
        want = float(np.mean(ref.series(window)["population"]))
        if not abs(plateau - want) <= VALUE_TOL:
            problems.append(f"report plateau_mean = {plateau!r}, expected {want:.16e}")
    # P(t) is row-stochastic, so the population averages the occupations
    elif not ref.occ.min() - VALUE_TOL <= plateau <= ref.occ.max() + VALUE_TOL:
        problems.append(f"report plateau_mean = {plateau!r} outside the occupation range")
    return problems


def output_problems(outputs: tuple, out_dir: Path, ref: Reference) -> list[str]:
    """Everything `qbm run` wrote to out_dir: the product CSVs, report.txt
    and the plot script."""
    problems = []
    for product in outputs:
        if product in HEADERS:
            problems += csv_problems(product, out_dir / f"{product}.csv", ref)
    if "report" in outputs:
        path = out_dir / "report.txt"
        if path.is_file():
            problems += report_problems(path.read_text(encoding="utf-8"), ref)
        else:
            problems.append("report.txt missing")
    if any(p in HEADERS for p in outputs) and not (out_dir / "plot.gp").is_file():
        problems.append("plot.gp missing")
    return problems
