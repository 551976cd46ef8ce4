"""The public API as a checked fact: every name in `hybridbec.__all__`,
the parameters of each callable (names, order, kinds and defaults;
annotations are left out), the fields of each dataclass and the base of
each error type, which fixes its exit code.  A change to any of them is a
change of the API and belongs in the change log.
"""

import dataclasses
import inspect

import pytest

import hybridbec

SIGNATURES = {
    "ConvergenceError": "(message, residual=None, iterations=None)",
    "CollapseError": "(message, width=None, iterations=None)",
    "BoundaryMinimumError": "(message, v=None, omega=None, energy=None)",
    "PhysicalParams": (
        "(omega_a, omega_m, lambda_a=0.0, lambda_m=0.0, lambda_am=0.0, alpha=0.0, "
        "epsilon=0.0, n_a=0.0, n_m=0.0, temperature=0.0, mass=1.0, hbar=1.0, "
        "resonance=None)"
    ),
    "FeshbachResonance": "(a0, b0, delta, b)",
    "UnitScales": "(energy, length, frequency, mass, hbar)",
    "effective_scattering_length": "(params)",
    "conversion_amplitude": "(params)",
    "natural_units": "(params)",
    "from_natural": "(params, scales)",
    "RadialGrid": "(r_max, n_points)",
    "build_grid": "(r_max=8.0, n_points=400)",
    "harmonic_potential": "(grid, mass, omega)",
    "CondensateState": "(grid, phi_a, phi_m, mu_a, mu_m, residual=nan, energy=nan, iterations=0)",
    "SolverOptions": "(tol=1e-08, max_iters=20000, dt=0.001)",
    "gaussian_ansatz": "(params, grid)",
    "solve_coupled_gpe": "(params, grid, opts=None, init=None)",
    "Mode": (
        "(j, branch, energy, u=None, v=None, coeff_u=nan, coeff_v=nan, degeneracy=1, "
        "norm=nan, energy_imag=0.0, unstable=False)"
    ),
    "ModeSet": "(species, method, modes=<factory>, skipped=0)",
    "block_2x2_spectrum": "(state, params, grid, j_max=16, convention='paper')",
    "direct_grid_spectrum": "(state, params, grid, l=0, n_modes=8)",
    "paper_literal_spectrum": (
        "(state, params, grid, j_max=16, averaging='density', convention='paper', "
        "strict_literal=False)"
    ),
    "DensityProfile": (
        "(r, rho_a_cond, rho_a_thermal, rho_m_cond, rho_m_thermal, rho_total, "
        "temperature, excluded_nonpositive=0, excluded_undefined=0)"
    ),
    "bose_occupation": "(energy, beta)",
    "density_profile": "(state, atoms, molecules, params, grid, include_quantum_depletion=True)",
    "total_numbers": "(profile, grid)",
    "SearchBox": "(v_max=5.0, omega_lo=0.2, omega_hi=5.0, coarse=64)",
    "VariationalResult": "(mode, v_opt, omega_opt, energy, n_atoms, resonant)",
    "minimize_mode": "(mode, params, n_atoms, box=None)",
    "sweep_spectrum": "(mode, params, n_list, box=None)",
    "UniformGasPoint": "(b, a_eff, n, regime, n0, source)",
    "critical_number": "(r0, a_eff)",
    "depletion_number": "(n_total, volume, a_eff)",
    "dispersion": "(p, n, a_eff, params)",
    "figure3_curve": "(params, b_list, density=None, r0=None, density_estimate='paper')",
    "uniform_mu": "(params, n_a, n_m)",
    "RunConfig": "(params, grid, solver, bdg, thermal, variational, uniform, sweep, output_dir)",
    "load_config": "(path)",
}

FIELDS = {
    "PhysicalParams": [
        "omega_a", "omega_m", "lambda_a", "lambda_m", "lambda_am", "alpha", "epsilon",
        "n_a", "n_m", "temperature", "mass", "hbar", "resonance"
    ],
    "FeshbachResonance": ["a0", "b0", "delta", "b"],
    "UnitScales": ["energy", "length", "frequency", "mass", "hbar"],
    "RadialGrid": ["r_max", "n_points", "h", "r", "w"],
    "CondensateState": [
        "grid", "phi_a", "phi_m", "mu_a", "mu_m", "residual", "energy", "iterations"
    ],
    "SolverOptions": ["tol", "max_iters", "dt"],
    "Mode": [
        "j", "branch", "energy", "u", "v", "coeff_u", "coeff_v", "degeneracy", "norm",
        "energy_imag", "unstable"
    ],
    "ModeSet": ["species", "method", "modes", "skipped"],
    "DensityProfile": [
        "r", "rho_a_cond", "rho_a_thermal", "rho_m_cond", "rho_m_thermal", "rho_total",
        "temperature", "excluded_nonpositive", "excluded_undefined"
    ],
    "SearchBox": ["v_max", "omega_lo", "omega_hi", "coarse"],
    "VariationalResult": ["mode", "v_opt", "omega_opt", "energy", "n_atoms", "resonant"],
    "UniformGasPoint": ["b", "a_eff", "n", "regime", "n0", "source"],
    "RunConfig": [
        "params", "grid", "solver", "bdg", "thermal", "variational", "uniform", "sweep",
        "output_dir"
    ],
}

ERROR_BASES = {
    "SimulationError": "Exception",
    "ConfigError": "SimulationError",
    "ResonanceSingularityError": "SimulationError",
    "ConvergenceError": "SimulationError",
    "CollapseError": "SimulationError",
    "DomainError": "SimulationError",
    "BoundaryMinimumError": "SimulationError",
}


def bare_signature(obj):
    sig = inspect.signature(obj)
    params = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=params, return_annotation=sig.empty))


def test_public_names():
    assert sorted(hybridbec.__all__) == sorted({*SIGNATURES, *ERROR_BASES, "__version__"})
    assert len(set(hybridbec.__all__)) == len(hybridbec.__all__)


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_signature(name):
    assert bare_signature(getattr(hybridbec, name)) == SIGNATURES[name]


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_dataclass_fields(name):
    cls = getattr(hybridbec, name)
    assert [f.name for f in dataclasses.fields(cls)] == FIELDS[name]


def test_every_public_dataclass_is_pinned():
    found = {n for n in hybridbec.__all__ if dataclasses.is_dataclass(getattr(hybridbec, n))}
    assert found == set(FIELDS)


@pytest.mark.parametrize("name", sorted(ERROR_BASES))
def test_error_base(name):
    bases = getattr(hybridbec, name).__bases__
    assert [b.__name__ for b in bases] == [ERROR_BASES[name]]
