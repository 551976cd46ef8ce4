"""Command-line front end: JSON config in, CSV artifacts out.

Subcommands map one-to-one onto the physics modules:

    ground       coupled condensate ground state
    spectrum     quasiparticle modes by one method (or --compare all three)
    density      finite-temperature density profiles over a T sweep
    variational  trial-mode energies over an atom-number sweep
    fig3         condensate number across the magnetic resonance

Exit codes: 0 success, 2 config error, 3 non-convergence, 4 collapse,
5 other failure.  Failures also emit one JSON object on stderr with the
error class and message, so callers never parse prose.  Sweeps run
in-process; --jobs is accepted for compatibility and has no effect.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bdg import (
    block_2x2_spectrum,
    direct_grid_spectrum,
    paper_literal_spectrum,
)
from .config import BDG_METHODS, RunConfig, load_config
from .csvio import provenance, write_csv
from .errors import (
    CollapseError,
    ConfigError,
    ConvergenceError,
    SimulationError,
)
from .gpe import solve_coupled_gpe
from .params import chemical_equilibrium_gap
from .thermal import density_profile, total_numbers
from .uniform import figure3_curve
from .variational import minimize_mode

MODE_COLUMNS = ("method", "species", "j", "branch", "energy_re", "energy_im", "norm")


def _solve_ground(cfg: RunConfig):
    grid = cfg.build_grid()
    state = solve_coupled_gpe(cfg.params, grid, cfg.solver_options())
    return grid, state


def cmd_ground(cfg: RunConfig, outdir: Path) -> list[Path]:
    grid, state = _solve_ground(cfg)
    head = provenance(
        cfg.config_hash(),
        mu_a=repr(state.mu_a), mu_m=repr(state.mu_m),
        residual=repr(state.residual),
    )
    paths = [write_csv(outdir / "condensate.csv", head, {
        "r": grid.r, "phi_a": state.phi_a, "phi_m": state.phi_m,
    })]
    summary = {
        "mu_a": state.mu_a,
        "mu_m": state.mu_m,
        "equilibrium_gap": chemical_equilibrium_gap(state.mu_a, state.mu_m),
        "residual": state.residual,
        "energy": state.energy,
        "iterations": state.iterations,
        "n_a": cfg.params.n_a,
        "n_m": cfg.params.n_m,
    }
    p = outdir / "ground_summary.json"
    p.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    paths.append(p)
    return paths


def _spectrum_by_method(method, cfg, state, grid):
    b = cfg.bdg
    if method == "paper":
        return list(paper_literal_spectrum(
            state, cfg.params, grid, j_max=int(b["j_max"]),
            averaging=b["averaging"], convention=b["convention"],
        ))
    if method == "block":
        return list(block_2x2_spectrum(
            state, cfg.params, grid, j_max=int(b["j_max"]),
            convention=b["convention"],
        ))
    if method == "grid":
        sets = []
        for l in range(int(b["l_max"]) + 1):
            sets.extend(direct_grid_spectrum(state, cfg.params, grid, l=l))
        return sets
    raise ConfigError(f"unknown spectrum method '{method}'")


def _mode_rows(modesets):
    cols = {name: [] for name in MODE_COLUMNS}
    for ms in modesets:
        for m in ms.modes:
            cols["method"].append(ms.method)
            cols["species"].append(ms.species)
            cols["j"].append(m.j)
            cols["branch"].append(m.branch)
            cols["energy_re"].append(float(m.energy))
            cols["energy_im"].append(float(m.energy_imag))
            cols["norm"].append(float(m.norm) if math.isfinite(m.norm) else math.nan)
    return cols


def _lowest_positive(modeset, count=2, floor=0.1):
    es = sorted(m.energy for m in modeset.modes
                if m.branch == "+" and not m.unstable and m.energy > floor)
    return es[:count]


def _nearest(value, pool):
    return min(pool, key=lambda e: abs(e - value)) if pool else math.nan


def cmd_spectrum(cfg: RunConfig, outdir: Path, method: str | None = None,
                 compare: bool = False) -> list[Path]:
    grid, state = _solve_ground(cfg)
    paths = []
    results = {}
    for name in BDG_METHODS if compare else [method or cfg.bdg["method"]]:
        sets = _spectrum_by_method(name, cfg, state, grid)
        results[name] = sets
        head = provenance(
            cfg.config_hash(), method=name, j_max=cfg.bdg["j_max"],
            convention=cfg.bdg["convention"], averaging=cfg.bdg["averaging"],
            l_max=cfg.bdg["l_max"],
        )
        paths.append(write_csv(outdir / f"spectrum_{name}.csv", head, _mode_rows(sets)))
    if compare:
        cols = {"species": [], "index": [], "e_grid": [],
                "e_block": [], "dev_block": [], "e_paper": [], "dev_paper": []}
        for ms_grid in results["grid"]:
            species = ms_grid.species
            block = next(s for s in results["block"] if s.species == species)
            paper = next(s for s in results["paper"] if s.species == species)
            b_pool = [m.energy for m in block.modes if m.energy > 0.0]
            p_pool = [abs(m.energy) for m in paper.modes]
            for i, e in enumerate(_lowest_positive(ms_grid)):
                eb = _nearest(e, b_pool)
                ep = _nearest(e, p_pool)
                cols["species"].append(species)
                cols["index"].append(i)
                cols["e_grid"].append(e)
                cols["e_block"].append(eb)
                cols["dev_block"].append(abs(eb - e) / e)
                cols["e_paper"].append(ep)
                cols["dev_paper"].append(abs(ep - e) / e)
        head = provenance(cfg.config_hash(), compare="grid vs block vs paper")
        paths.append(write_csv(outdir / "spectrum_deviation.csv", head, cols))
    return paths


def cmd_density(cfg: RunConfig, outdir: Path) -> list[Path]:
    if cfg.sweep and cfg.sweep["variable"] == "T":
        t_values = cfg.sweep["values"]
    else:
        t_values = [cfg.params.temperature]
    grid, state = _solve_ground(cfg)
    j_max = int(cfg.thermal["j_max"])
    atoms, mols = block_2x2_spectrum(
        state, cfg.params, grid, j_max=j_max, convention=cfg.bdg["convention"])
    half = block_2x2_spectrum(
        state, cfg.params, grid, j_max=j_max // 2,
        convention=cfg.bdg["convention"])
    include = bool(cfg.thermal["include_quantum_depletion"])

    # truncation sensitivity at the hottest requested point
    t_ref = max(t_values)
    p_ref = replace(cfg.params, temperature=t_ref)
    full = total_numbers(
        density_profile(state, atoms, mols, p_ref, grid, include), grid)
    part = total_numbers(
        density_profile(state, half[0], half[1], p_ref, grid, include), grid)
    denom = max(abs(full["n_atom_equivalent"]), 1e-300)
    trunc = abs(full["n_atom_equivalent"] - part["n_atom_equivalent"]) / denom

    paths = []
    for i, t in enumerate(t_values):
        p_t = replace(cfg.params, temperature=float(t))
        prof = density_profile(state, atoms, mols, p_t, grid, include)
        totals = total_numbers(prof, grid)
        head = provenance(
            cfg.config_hash(), temperature=repr(float(t)), j_max=j_max,
            include_quantum_depletion=include,
            truncation_delta_rel=repr(trunc),
            n_a_total=repr(totals["n_a_total"]),
            n_m_total=repr(totals["n_m_total"]),
            excluded_modes=prof.excluded_nonpositive + prof.excluded_undefined,
        )
        paths.append(write_csv(outdir / f"density_{i:03d}.csv", head, {
            "r": prof.r,
            "rho_a_cond": prof.rho_a_cond,
            "rho_a_thermal": prof.rho_a_thermal,
            "rho_m_cond": prof.rho_m_cond,
            "rho_m_thermal": prof.rho_m_thermal,
            "rho_total": prof.rho_total,
        }))
    return paths


def cmd_variational(cfg: RunConfig, outdir: Path) -> list[Path]:
    if not (cfg.sweep and cfg.sweep["variable"] == "N"):
        raise ConfigError("variational requires a sweep over N")
    n_list = cfg.sweep["values"]
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ConfigError("sweep.values must be strictly ascending for N")
    box = cfg.search_box()
    bare = replace(cfg.params, alpha=0.0, lambda_am=0.0)
    cols = {"n_atoms": [], "mode": [], "resonant": [], "v_opt": [],
            "omega_opt": [], "energy": []}
    for mode in ("010", "100"):
        for n in n_list:
            for params in (cfg.params, bare):
                r = minimize_mode(mode, params, n, box)
                cols["n_atoms"].append(r.n_atoms)
                cols["mode"].append(r.mode)
                cols["resonant"].append(int(r.resonant))
                cols["v_opt"].append(r.v_opt)
                cols["omega_opt"].append(r.omega_opt)
                cols["energy"].append(r.energy)
    head = provenance(
        cfg.config_hash(), v_max=box.v_max, omega_lo=box.omega_lo,
        omega_hi=box.omega_hi, coarse=box.coarse,
    )
    return [write_csv(outdir / "variational.csv", head, cols)]


def cmd_fig3(cfg: RunConfig, outdir: Path) -> list[Path]:
    if not (cfg.sweep and cfg.sweep["variable"] == "B"):
        raise ConfigError("fig3 requires a sweep over B")
    u = cfg.uniform
    pts = figure3_curve(cfg.params, cfg.sweep["values"], density=u["density"],
                        r0=u["r0"], density_estimate=u["density_estimate"])
    cols = {
        "b": [pt.b for pt in pts],
        "a_eff": [pt.a_eff for pt in pts],
        "branch": [pt.source for pt in pts],
        "regime": [pt.regime for pt in pts],
        "n0": [pt.n0 for pt in pts],
    }
    head = provenance(
        cfg.config_hash(), density=u["density"], r0=u["r0"],
        density_estimate=u["density_estimate"],
    )
    return [write_csv(outdir / "fig3.csv", head, cols)]


COMMANDS = {
    "ground": cmd_ground,
    "spectrum": cmd_spectrum,
    "density": cmd_density,
    "variational": cmd_variational,
    "fig3": cmd_fig3,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hybridbec",
        description="Trapped hybrid atom/molecule condensate simulator",
    )
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--config", required=True, help="JSON run configuration")
    ap.add_argument("--out", default=None, help="artifact directory")
    ap.add_argument("--jobs", type=int, default=1,
                    help="accepted for compatibility; no effect, sweeps run in-process")
    ap.add_argument("--method", choices=BDG_METHODS, default=None,
                    help="spectrum method override")
    ap.add_argument("--compare", action="store_true",
                    help="spectrum: run all three methods plus a deviation table")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        outdir = Path(args.out or cfg.output_dir or "out")
        outdir.mkdir(parents=True, exist_ok=True)
        if args.command == "spectrum":
            paths = cmd_spectrum(cfg, outdir, method=args.method,
                                 compare=args.compare)
        else:
            paths = COMMANDS[args.command](cfg, outdir)
    except ConfigError as exc:
        return _fail(exc, 2)
    except ConvergenceError as exc:
        return _fail(exc, 3)
    except CollapseError as exc:
        return _fail(exc, 4)
    except SimulationError as exc:
        return _fail(exc, 5)
    except Exception as exc:  # pragma: no cover - last resort
        return _fail(exc, 5)
    for p in paths:
        print(p)
    return 0


def _fail(exc: BaseException, code: int) -> int:
    print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
