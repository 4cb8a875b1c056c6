"""The public functions, the settable values of the public API and of the
CLI, listed in full, so that adding or removing one is a visible change to
this file."""

import importlib
import inspect

from cvwerner import cli

MODULES = ("fock", "states", "exact", "gaussian", "nongauss", "bounds", "ppt", "acceptance")

# Public functions and methods of each module, 81 in all.
PUBLIC = {
    "fock": (
        "OneModeState.trace", "OneModeState.validate", "TwoModeState.trace",
        "TwoModeState.validate", "antidiagonal_entropy", "check_two_mode_cutoff", "eig_spectrum",
        "is_more_mixed", "partial_trace", "partial_transpose", "shannon_entropy",
        "von_neumann_entropy", "xlogx",
    ),
    "states": (
        "check_tolerance", "check_unit", "choose_cutoff", "ppt_werner", "thermal",
        "thermal_entropy", "tmsv", "tmsv_vector", "werner",
    ),
    "exact": (
        "classical_mutual_information", "discord", "discord_numeric", "discord_report",
        "eigenvalue_pair", "global_entropy", "global_entropy_numeric", "joint_photon_distribution",
        "quantumness_indicators", "reduced_entropy", "reduced_entropy_numeric", "vacuum_werner",
    ),
    "gaussian": (
        "conditional_entropy", "conditional_entropy_mc", "conditional_params", "gaussian_discord",
        "outcome_norm", "quadrature_grid", "weight_densities",
    ),
    "nongauss": (
        "covariance_cs", "covariance_matrix", "discord_gap", "gap_approx", "gaussian_state_entropy",
        "low_squeezing_ratio", "nongaussianity", "nongaussianity_approx", "symplectic_eigenvalue",
    ),
    "bounds": (
        "bounds_report", "conditional_entropy_dense", "conditional_entropy_photon_counting",
        "correlated_block", "discord_is_positive", "global_entropy", "joint_photon_distribution",
        "marginal_entropy", "mid_dense", "p_ppt", "p_separable", "reduced_spectrum",
        "separability_region", "upper_bound_dense",
    ),
    "ppt": (
        "bounds", "closed_form_spectrum", "global_entropy", "norm_const", "reduced_entropy",
        "upper_bound",
    ),
    "acceptance": (
        "check_bound_ordering", "check_exact_discord_oracle", "check_low_squeezing_ratio_pi",
        "check_majorization_amid", "check_mid_identity", "check_photon_counting_optimality",
        "check_ppt_analytics", "check_quadrature_robustness", "check_separability_thresholds",
        "check_trivial_points", "run_all",
    ),
}

# Defaulted parameters of the public functions and methods, 27 in all.
SETTABLE = {
    "fock.partial_trace": ("mode",),
    "fock.partial_transpose": ("mode",),
    "states.check_unit": ("upper_open",),
    "states.choose_cutoff": ("eps_tail",),
    "states.werner": ("n_max",),
    "states.ppt_werner": ("n_max",),
    "exact.vacuum_werner": ("n_max",),
    "exact.global_entropy_numeric": ("n_max",),
    "exact.reduced_entropy_numeric": ("n_max",),
    "exact.discord_numeric": ("n_max",),
    "exact.quantumness_indicators": ("n_max",),
    "gaussian.quadrature_grid": ("n_radial", "n_angular"),
    "gaussian.conditional_entropy": ("n_radial", "n_angular", "eps_int"),
    "gaussian.conditional_entropy_mc": ("n_samples", "seed"),
    "gaussian.gaussian_discord": ("eps_int",),
    "nongauss.discord_gap": ("eps_int",),
    "bounds.bounds_report": ("n_max", "eps_tail"),
    "ppt.reduced_entropy": ("tol",),
    "ppt.bounds": ("tol",),
    "acceptance.check_exact_discord_oracle": ("seed",),
    "acceptance.check_majorization_amid": ("seed",),
    "acceptance.run_all": ("seed",),
}

# Flags of each CLI subcommand, 24 in all.
FLAGS = {
    "compute": ("--p", "--lambda", "--mu", "--cutoff", "--eps-tail", "--eps-int", "--out", "--config"),
    "sweep": (
        "--p", "--lambda", "--mu", "--cutoff", "--eps-tail", "--eps-int", "--format", "--out",
        "--config",
    ),
    "figure": ("--cutoff", "--eps-tail", "--eps-int", "--outdir", "--config"),
    "verify": ("--seed", "--config"),
}


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, fn in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(fn):
                    yield f"{name}.{attr}", fn


def test_public_functions_of_the_package():
    found = {}
    for mod_name in MODULES:
        module = importlib.import_module(f"cvwerner.{mod_name}")
        found[mod_name] = tuple(sorted(name for name, _ in _public_functions(module)))
    assert found == PUBLIC
    assert sum(map(len, found.values())) == 81


def test_settable_values_of_the_package():
    found = {}
    for mod_name in MODULES:
        module = importlib.import_module(f"cvwerner.{mod_name}")
        for name, fn in _public_functions(module):
            params = inspect.signature(fn).parameters.values()
            defaulted = tuple(p.name for p in params if p.default is not p.empty)
            if defaulted:
                found[f"{mod_name}.{name}"] = defaulted
    assert found == SETTABLE
    assert sum(map(len, found.values())) == 27


def test_settable_values_of_the_cli():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if a.choices and a.dest == "command")
    found = {
        name: tuple(a.option_strings[0] for a in sub._actions if a.option_strings and a.dest != "help")
        for name, sub in subparsers.choices.items()
    }
    assert found == FLAGS
    assert sum(map(len, found.values())) == 24
