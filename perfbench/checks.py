"""Correctness checks on one case's exit code and artifacts.

Tolerances are the ones the tier-1 tests use: mu_a = 3/2 to 1e-3 in the
free limit, oracle levels to 1e-3 (Kohn's theorem: the lowest atom l = 1
mode of decoupled atoms sits at hbar*omega_a, Dobson, PRL 73, 2244 (1994)),
block against grid within 5% on the lowest two atom modes, variational
minima 5/2 and 7/2 to 1e-6 without couplings.  Each check returns a list
of problems; an empty list means the case is correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

MODE_COLUMNS = ["method", "species", "j", "branch", "energy_re", "energy_im", "norm"]
DEVIATION_COLUMNS = ["species", "index", "e_grid", "e_block", "dev_block",
                     "e_paper", "dev_paper"]
COLUMNS = {
    "condensate.csv": ["r", "phi_a", "phi_m"],
    "density": ["r", "rho_a_cond", "rho_a_thermal", "rho_m_cond", "rho_m_thermal",
                "rho_total"],
    "variational.csv": ["n_atoms", "mode", "resonant", "v_opt", "omega_opt", "energy"],
    "fig3.csv": ["b", "a_eff", "branch", "regime", "n0"],
}


def read_csv(path: Path):
    """(header dict, column names, rows as lists of strings)."""
    head, names, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            head[key] = value
        elif names is None:
            names = line.split(",")
        else:
            rows.append(line.split(","))
    return head, names or [], rows


def _column(names, rows, name, cast=float):
    k = names.index(name)
    return [cast(r[k]) for r in rows]


def check_case(case, code: int, out: Path, stderr: str) -> list[str]:
    if code != case.expect_exit:
        return [f"exit {code}, expected {case.expect_exit}: {stderr.strip()[-200:]}"]
    if code != 0:
        return _check_failure(case, out, stderr)
    try:
        return CHECKS[case.command](case, out)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unreadable artifacts: {type(exc).__name__}: {exc}"]


def _check_failure(case, out, stderr):
    problems = []
    try:
        err = json.loads(stderr.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return [f"exit {case.expect_exit} without a JSON error line"]
    if case.expect_exit == 4 and err.get("error") != "CollapseError":
        problems.append(f"exit 4 reported {err.get('error')}")
    if any(out.glob("*.csv")):
        problems.append("failed case left CSV artifacts")
    return problems


def _expect_files(out, names):
    have = sorted(p.name for p in out.iterdir())
    return [] if have == sorted(names) else [f"artifacts {have}, expected {sorted(names)}"]


def _expect_columns(path, names, columns):
    return [] if names == columns else [f"{path.name} columns {names}, expected {columns}"]


def check_ground(case, out):
    problems = _expect_files(out, ["condensate.csv", "ground_summary.json"])
    if problems:
        return problems
    _, names, rows = read_csv(out / "condensate.csv")
    problems += _expect_columns(out / "condensate.csv", names, COLUMNS["condensate.csv"])
    if len(rows) != case.config["grid"]["n_points"]:
        problems.append(f"condensate.csv has {len(rows)} rows")
    summary = json.loads((out / "ground_summary.json").read_text())
    if not summary["residual"] <= case.checks["tol"]:
        problems.append(f"residual {summary['residual']:.3e} above tol")
    if case.checks["free"] and abs(summary["mu_a"] - 1.5) > 1e-3:
        problems.append(f"free-limit mu_a {summary['mu_a']!r}, expected 1.5")
    if "energy" in case.checks and abs(summary["energy"] - case.checks["energy"]) > 1e-2:
        problems.append(f"energy {summary['energy']!r} is not the lowest branch "
                        f"{case.checks['energy']}")
    return problems


def check_density(case, out):
    count = case.checks["temperatures"]
    problems = _expect_files(out, [f"density_{i:03d}.csv" for i in range(count)])
    if problems:
        return problems
    totals = []
    for i in range(count):
        path = out / f"density_{i:03d}.csv"
        head, names, rows = read_csv(path)
        problems += _expect_columns(path, names, COLUMNS["density"])
        if len(rows) != case.config["grid"]["n_points"]:
            problems.append(f"{path.name} has {len(rows)} rows")
        totals.append(float(head["n_a_total"]))
    if any(b <= a for a, b in zip(totals, totals[1:])):
        problems.append(f"atom totals do not rise with T: {totals}")
    return problems


def _runs_by_species(names, rows, species):
    """Consecutive row blocks of one species; block k is channel l = k."""
    blocks, last = [], None
    for row in rows:
        sp = row[names.index("species")]
        if sp == species and last != species:
            blocks.append([])
        if sp == species:
            blocks[-1].append(row)
        last = sp
    return blocks


def check_spectrum(case, out):
    files = [f"spectrum_{m}.csv" for m in ("paper", "block", "grid")] + ["spectrum_deviation.csv"]
    problems = _expect_files(out, files)
    if problems:
        return problems
    for name in files[:3]:
        _, names, _ = read_csv(out / name)
        problems += _expect_columns(out / name, names, MODE_COLUMNS)
    _, names, rows = read_csv(out / "spectrum_grid.csv")
    atom_channels = _runs_by_species(names, rows, "atom")
    l_max = case.checks["l_max"]
    if len(atom_channels) != l_max + 1:
        return problems + [f"{len(atom_channels)} atom channels, expected {l_max + 1}"]
    if l_max >= 1:
        energies = [e for e in _column(names, atom_channels[1], "energy_re") if e > 0.1]
        kohn = min(energies) if energies else math.nan
        if not abs(kohn - case.config["params"]["omega_a"]) <= 1e-3:
            problems.append(f"Kohn mode {kohn!r}, expected hbar*omega_a")
    _, names, rows = read_csv(out / "spectrum_deviation.csv")
    problems += _expect_columns(out / "spectrum_deviation.csv", names, DEVIATION_COLUMNS)
    atom_rows = _runs_by_species(names, rows, "atom")
    devs = _column(names, atom_rows[0], "dev_block")[:2] if atom_rows else []
    if len(devs) != 2 or not all(d < 0.05 for d in devs):
        problems.append(f"block vs grid deviations {devs} on the lowest two atom modes")
    return problems


def check_variational(case, out):
    problems = _expect_files(out, ["variational.csv"])
    if problems:
        return problems
    _, names, rows = read_csv(out / "variational.csv")
    problems += _expect_columns(out / "variational.csv", names, COLUMNS["variational.csv"])
    n_values = case.checks["n_values"]
    if len(rows) != 4 * len(n_values):
        return problems + [f"variational.csv has {len(rows)} rows"]
    energies = _column(names, rows, "energy")
    modes = _column(names, rows, "mode", str)
    if sorted(set(_column(names, rows, "n_atoms"))) != sorted(n_values):
        problems.append("n_atoms column differs from the sweep")
    if not all(math.isfinite(e) and e > 0.0 for e in energies):
        problems.append("nonpositive or non-finite mode energy")
    if case.checks["free"]:
        want = {"010": 2.5, "100": 3.5}
        if any(abs(e - want[m]) > 1e-6 for e, m in zip(energies, modes)):
            problems.append("noninteracting minima differ from 5/2 and 7/2")
    return problems


def check_fig3(case, out):
    problems = _expect_files(out, ["fig3.csv"])
    if problems:
        return problems
    _, names, rows = read_csv(out / "fig3.csv")
    problems += _expect_columns(out / "fig3.csv", names, COLUMNS["fig3.csv"])
    b_values = _column(names, rows, "b")
    if b_values != case.checks["b_values"]:
        return problems + ["b column differs from the sweep"]
    res = case.checks["resonance"]
    for b, a, branch, n0 in zip(b_values, _column(names, rows, "a_eff"),
                                _column(names, rows, "branch", str),
                                _column(names, rows, "n0")):
        want = res["a0"] * (1.0 + res["delta"] / (res["b0"] - b))
        if abs(a - want) > 1e-12 * abs(want):
            problems.append(f"a_eff {a!r} at B={b}, expected {want!r}")
        if (branch == "critical-number") != (a < 0.0) or not n0 > 0.0:
            problems.append(f"branch {branch} with a_eff {a!r}, n0 {n0!r} at B={b}")
    return problems


CHECKS = {
    "ground": check_ground,
    "density": check_density,
    "spectrum": check_spectrum,
    "variational": check_variational,
    "fig3": check_fig3,
}
