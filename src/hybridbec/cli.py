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
--method and --compare exclude each other and belong to spectrum alone:
the parser rejects either elsewhere, as it rejects any bad argument.

`main` may be called any number of times in one process: the parser is
built once, at import, and keeps no state between calls.  The output
directory is made by the first artifact written, so a run that fails
before writing leaves none.
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
from .csvio import format_column, provenance, write_csv
from .errors import CollapseError, ConfigError, ConvergenceError
from .gpe import negative_phase_modes, solve_coupled_gpe
from .params import chemical_equilibrium_gap
from .thermal import density_profile, density_profiles, total_numbers
from .uniform import figure3_curve
from .variational import MODE_BREATHING, MODE_SURFACE, sweep_spectrum
# not called here: perfbench/tracing.py wraps this name in every traced case
from .variational import minimize_mode  # noqa: F401

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
        "negative_phase_modes": negative_phase_modes(state, cfg.params, grid),
    }
    p = outdir / "ground_summary.json"
    p.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    paths.append(p)
    return paths


def _spectrum_by_method(method, cfg, state, grid):
    b = cfg.bdg
    if method == "paper":
        return list(paper_literal_spectrum(
            state, cfg.params, grid, j_max=b["j_max"],
            averaging=b["averaging"], convention=b["convention"],
        ))
    if method == "block":
        return list(block_2x2_spectrum(
            state, cfg.params, grid, j_max=b["j_max"],
            convention=b["convention"],
        ))
    if method == "grid":
        sets = []
        for l in range(int(b["l_max"]) + 1):
            sets.extend(direct_grid_spectrum(state, cfg.params, grid, l=l))
        return sets


def _mode_rows(modesets):
    # strings pass through write_csv as they are and float64 arrays take
    # its whole-column formatting, so no cell goes through format_value
    modes = [m for ms in modesets for m in ms.modes]
    return dict(zip(MODE_COLUMNS, (
        [ms.method for ms in modesets for _ in ms.modes],
        [ms.species for ms in modesets for _ in ms.modes],
        [str(m.j) for m in modes],
        [m.branch for m in modes],
        np.array([m.energy for m in modes], dtype=float),
        np.array([m.energy_imag for m in modes], dtype=float),
        np.array([m.norm for m in modes], dtype=float),
    )))


def _lowest_positive(modeset, count=2, floor=0.1):
    es = sorted(m.energy for m in modeset.modes
                if m.branch == "+" and not m.unstable and m.energy > floor)
    return np.array(es[:count], dtype=float)


def _nearest(values, pool):
    """The entry of pool closest to each value (the first of equals);
    nan for an empty pool."""
    if not pool:
        return np.full(len(values), math.nan)
    pool = np.array(pool, dtype=float)
    return pool[np.abs(pool[None, :] - values[:, None]).argmin(axis=1)]


def cmd_spectrum(cfg: RunConfig, outdir: Path, method: str | None = None,
                 compare: bool = False) -> list[Path]:
    grid, state = _solve_ground(cfg)
    config_hash = cfg.config_hash()
    paths = []
    results = {}
    for name in BDG_METHODS if compare else [method or cfg.bdg["method"]]:
        sets = _spectrum_by_method(name, cfg, state, grid)
        results[name] = sets
        head = provenance(
            config_hash, method=name, j_max=cfg.bdg["j_max"],
            convention=cfg.bdg["convention"], averaging=cfg.bdg["averaging"],
            l_max=cfg.bdg["l_max"],
        )
        paths.append(write_csv(outdir / f"spectrum_{name}.csv", head, _mode_rows(sets)))
    if compare:
        species, index, e_grid, e_block, e_paper = [], [], [], [], []
        for ms_grid in results["grid"]:
            block = next(s for s in results["block"] if s.species == ms_grid.species)
            paper = next(s for s in results["paper"] if s.species == ms_grid.species)
            e = _lowest_positive(ms_grid)
            species += [ms_grid.species] * len(e)
            index += map(str, range(len(e)))
            e_grid.append(e)
            e_block.append(_nearest(e, [m.energy for m in block.modes if m.energy > 0.0]))
            e_paper.append(_nearest(e, [abs(m.energy) for m in paper.modes]))
        e, eb, ep = map(np.concatenate, (e_grid, e_block, e_paper))
        cols = {"species": species, "index": index, "e_grid": e,
                "e_block": eb, "dev_block": np.abs(eb - e) / e,
                "e_paper": ep, "dev_paper": np.abs(ep - e) / e}
        head = provenance(config_hash, compare="grid vs block vs paper")
        paths.append(write_csv(outdir / "spectrum_deviation.csv", head, cols))
    return paths


def cmd_density(cfg: RunConfig, outdir: Path) -> list[Path]:
    if cfg.sweep and cfg.sweep["variable"] != "T":
        raise ConfigError("density takes a sweep over T only")
    t_values = cfg.sweep["values"] if cfg.sweep else [cfg.params.temperature]
    # every temperature is checked before the ground state is solved
    sweep = [replace(cfg.params, temperature=float(t)) for t in t_values]
    grid, state = _solve_ground(cfg)
    j_max = int(cfg.thermal["j_max"])
    atoms, mols = block_2x2_spectrum(
        state, cfg.params, grid, j_max=j_max, convention=cfg.bdg["convention"])
    include = cfg.thermal["include_quantum_depletion"]
    profiles = density_profiles(state, atoms, mols, sweep, grid, include)
    totals = [total_numbers(prof, grid) for prof in profiles]

    # truncation sensitivity at the hottest requested point: the per-level
    # reduction makes the modes of the leading j_max // 2 basis columns
    # the half-size spectrum, so it is sliced, not re-solved
    i_ref = t_values.index(max(t_values))
    half = [replace(ms, modes=[m for m in ms.modes if m.j < j_max // 2])
            for ms in (atoms, mols)]
    full = totals[i_ref]
    part = total_numbers(
        density_profile(state, half[0], half[1], sweep[i_ref], grid, include), grid)
    denom = max(abs(full["n_atom_equivalent"]), 1e-300)
    trunc = abs(full["n_atom_equivalent"] - part["n_atom_equivalent"]) / denom

    config_hash = cfg.config_hash()
    # the columns that do not depend on temperature are formatted once
    r, rho_a_cond, rho_m_cond = map(format_column, (
        profiles[0].r, profiles[0].rho_a_cond, profiles[0].rho_m_cond))
    paths = []
    for i, (t, prof, tot) in enumerate(zip(t_values, profiles, totals)):
        head = provenance(
            config_hash, temperature=repr(float(t)), j_max=j_max,
            include_quantum_depletion=include,
            truncation_delta_rel=repr(trunc),
            n_a_total=repr(tot["n_a_total"]),
            n_m_total=repr(tot["n_m_total"]),
            excluded_modes=prof.excluded_nonpositive + prof.excluded_undefined,
        )
        paths.append(write_csv(outdir / f"density_{i:03d}.csv", head, {
            "r": r,
            "rho_a_cond": rho_a_cond,
            "rho_a_thermal": prof.rho_a_thermal,
            "rho_m_cond": rho_m_cond,
            "rho_m_thermal": prof.rho_m_thermal,
            "rho_total": prof.rho_total,
        }))
    return paths


def cmd_variational(cfg: RunConfig, outdir: Path) -> list[Path]:
    if not (cfg.sweep and cfg.sweep["variable"] == "N"):
        raise ConfigError("variational requires a sweep over N")
    box = cfg.search_box()
    rows = [r for mode in (MODE_SURFACE, MODE_BREATHING)
            for r in sweep_spectrum(mode, cfg.params, cfg.sweep["values"], box)]

    def floats(name):
        return np.array([getattr(r, name) for r in rows], dtype=float)

    # float64 arrays take write_csv's whole-column formatting
    cols = {"n_atoms": floats("n_atoms"), "mode": [r.mode for r in rows],
            "resonant": [str(int(r.resonant)) for r in rows], "v_opt": floats("v_opt"),
            "omega_opt": floats("omega_opt"), "energy": floats("energy")}
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
    methods = ap.add_mutually_exclusive_group()
    methods.add_argument("--method", choices=BDG_METHODS, default=None,
                         help="spectrum: method override")
    methods.add_argument("--compare", action="store_true",
                         help="spectrum: run all three methods plus a deviation table")
    return ap


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    if args.command != "spectrum" and (args.method or args.compare):
        _PARSER.error(f"--method and --compare apply to spectrum only, not {args.command}")
    try:
        cfg = load_config(args.config)
        outdir = Path(args.out or cfg.output_dir or "out")
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
    except Exception as exc:  # SimulationError, or any other failure
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
