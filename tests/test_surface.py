"""The public classes and functions, the settable values of the public API
and of the CLI, listed in full, so that adding or removing one is a visible
change to this file."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import cvwerner
from cvwerner import cli

MODULES = ("fock", "states", "exact", "gaussian", "nongauss", "bounds", "ppt", "acceptance")

# Public classes of each module, 14 in all.
CLASSES = {
    "fock": ("InvalidSpectrumError", "NonHermitianError", "TwoModeState"),
    "states": ("WernerParams",),
    "exact": ("DiscordReport",),
    "gaussian": ("GaussianDiscordResult", "OptimizationError", "QuadratureError"),
    "nongauss": ("GapReport",),
    "bounds": ("BoundsReport", "TruncationError"),
    "ppt": ("PptReport", "SeriesCrossCheckError"),
    "acceptance": ("CheckResult",),
}

# Public functions and methods of each module, 64 in all.
PUBLIC = {
    "fock": (
        "TwoModeState.trace", "antidiagonal_entropy", "check_two_mode_cutoff", "eig_spectrum",
        "is_more_mixed", "partial_trace", "partial_transpose", "shannon_entropy",
        "von_neumann_entropy", "xlogx",
    ),
    "states": (
        "check_tolerance", "check_unit", "choose_cutoff", "ppt_werner", "thermal",
        "thermal_entropy", "tmsv_vector", "werner",
    ),
    "exact": (
        "classical_mutual_information", "discord", "discord_numeric", "discord_report",
        "eigenvalue_pair", "global_entropy", "joint_photon_distribution", "quantumness_indicators",
        "reduced_entropy",
    ),
    "gaussian": ("conditional_entropy", "gaussian_discord"),
    "nongauss": (
        "discord_gap", "gap_approx", "gaussian_state_entropy", "low_squeezing_ratio",
        "nongaussianity", "nongaussianity_approx", "symplectic_eigenvalue",
    ),
    "bounds": (
        "bounds_report", "conditional_entropy_dense", "conditional_entropy_photon_counting",
        "discord_is_positive", "global_entropy", "marginal_entropy", "p_ppt", "p_separable",
        "reduced_spectrum", "separability_region", "upper_bound_dense",
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

# Defaulted parameters of the public functions and methods, and defaulted
# fields of the public dataclasses, 18 in all.
SETTABLE = {
    "fock.partial_trace": ("mode",),
    "fock.partial_transpose": ("mode",),
    "states.check_unit": ("upper_open",),
    "states.choose_cutoff": ("eps_tail",),
    "states.werner": ("n_max",),
    "states.ppt_werner": ("n_max",),
    "states.WernerParams": ("mu",),
    "exact.discord_numeric": ("n_max",),
    "exact.quantumness_indicators": ("n_max",),
    "gaussian.conditional_entropy": ("n_radial", "n_angular"),
    "bounds.bounds_report": ("n_max", "eps_tail"),
    "ppt.reduced_entropy": ("tol",),
    "ppt.bounds": ("tol",),
    "acceptance.check_exact_discord_oracle": ("seed",),
    "acceptance.check_majorization_amid": ("seed",),
    "acceptance.run_all": ("seed",),
}

# Flags of each CLI subcommand, 21 in all.
FLAGS = {
    "compute": ("--p", "--lambda", "--mu", "--cutoff", "--eps-tail", "--out", "--config"),
    "sweep": ("--p", "--lambda", "--mu", "--cutoff", "--eps-tail", "--format", "--out", "--config"),
    "figure": ("--cutoff", "--eps-tail", "--outdir", "--config"),
    "verify": ("--seed", "--config"),
}


def _public_objects(module, kind):
    for name, obj in vars(module).items():
        if not name.startswith("_") and kind(obj) and obj.__module__ == module.__name__:
            yield name, obj


def _public_functions(module):
    yield from _public_objects(module, inspect.isfunction)
    for name, cls in _public_objects(module, inspect.isclass):
        for attr, fn in vars(cls).items():
            if not attr.startswith("_") and inspect.isfunction(fn):
                yield f"{name}.{attr}", fn


def test_public_classes_of_the_package():
    found = {}
    for mod_name in MODULES:
        module = importlib.import_module(f"cvwerner.{mod_name}")
        found[mod_name] = tuple(sorted(name for name, _ in _public_objects(module, inspect.isclass)))
    assert found == CLASSES
    assert sum(map(len, found.values())) == 14


def test_public_functions_of_the_package():
    found = {}
    for mod_name in MODULES:
        module = importlib.import_module(f"cvwerner.{mod_name}")
        found[mod_name] = tuple(sorted(name for name, _ in _public_functions(module)))
    assert found == PUBLIC
    assert sum(map(len, found.values())) == 64


def test_settable_values_of_the_package():
    found = {}
    for mod_name in MODULES:
        module = importlib.import_module(f"cvwerner.{mod_name}")
        for name, fn in _public_functions(module):
            params = inspect.signature(fn).parameters.values()
            defaulted = tuple(p.name for p in params if p.default is not p.empty)
            if defaulted:
                found[f"{mod_name}.{name}"] = defaulted
        for name, cls in _public_objects(module, inspect.isclass):
            fields = dataclasses.fields(cls) if dataclasses.is_dataclass(cls) else ()
            defaulted = tuple(
                f.name for f in fields
                if f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING
            )
            if defaulted:
                found[f"{mod_name}.{name}"] = defaulted
    assert found == SETTABLE
    assert sum(map(len, found.values())) == 18


def test_settable_values_of_the_cli():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if a.choices and a.dest == "command")
    found = {
        name: tuple(a.option_strings[0] for a in sub._actions if a.option_strings and a.dest != "help")
        for name, sub in subparsers.choices.items()
    }
    assert found == FLAGS
    assert sum(map(len, found.values())) == 21


ROOT = Path(__file__).resolve().parents[1]
# Where a public function must be called from; the tests do not count.
CALLER_DIRS = ("src/cvwerner", "demos", "perfbench")
PACKAGE_MODULES = set(MODULES) | {"cli"}


def _scopes(tree, own):
    """Each top-level statement, or method of a top-level class, with the
    qualified name of the package function it defines (None elsewhere)."""
    for node in tree.body:
        if own and isinstance(node, ast.ClassDef):
            for item in node.body:
                method = isinstance(item, ast.FunctionDef)
                yield item, f"{own}.{node.name}.{item.name}" if method else None
        elif own and isinstance(node, ast.FunctionDef):
            yield node, f"{own}.{node.name}"
        else:
            yield node, None


def _references(path):
    """(target, enclosing) for each name or attribute read in one file.

    ``target`` is ``"module.name"`` when the reference resolves to a package
    module: a bare name defined in or imported into the file, or an
    attribute of a name or attribute spelled like a package module.  Any
    other attribute gives ``"*.name"``, a candidate method.  ``enclosing``
    is the package function whose body holds the reference, or None.
    """
    tree = ast.parse(path.read_text())
    own = path.stem if path.parent.name == "cvwerner" else None
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            source = node.module.split(".")[-1]
            if source in PACKAGE_MODULES and (node.level or node.module.startswith("cvwerner")):
                for alias in node.names:
                    names[alias.asname or alias.name] = f"{source}.{alias.name}"
    if own:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names[node.name] = f"{own}.{node.name}"
    for scope, enclosing in _scopes(tree, own):
        for node in ast.walk(scope):
            if isinstance(node, ast.Name) and node.id in names:
                yield names[node.id], enclosing
            elif isinstance(node, ast.Attribute):
                owner = getattr(node.value, "id", None) or getattr(node.value, "attr", None)
                yield f"{owner if owner in PACKAGE_MODULES else '*'}.{node.attr}", enclosing


def test_every_public_function_has_a_caller_or_is_exported():
    # A function is live when code outside every package function (module
    # level, demos, perfbench) reads it, when a live function reads it, or
    # when cvwerner.__all__ exports it or its class.  A live attribute read
    # ``*.m`` makes every method m live, and a live class its dunder methods.
    live, edges = set(), {}
    for mod_name in MODULES:
        module = importlib.import_module(f"cvwerner.{mod_name}")
        live |= {
            f"{mod_name}.{name}" for name in cvwerner.__all__
            if getattr(module, name, None) is getattr(cvwerner, name)
        }
    exported = set(live)
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).glob("*.py")):
            for target, where in _references(path):
                if where is None:
                    live.add(target)
                elif where != target:
                    edges.setdefault(where, set()).add(target)
    frontier = list(live)
    while frontier:
        node = frontier.pop()
        scope, _, name = node.rpartition(".")
        reached = set(edges.get(node, ()))
        for where in edges:
            owner, _, method = where.rpartition(".")
            if (scope == "*" and method == name and owner.count(".") == 1) or (
                owner == node and method.startswith("__")
            ):
                reached.add(where)
        frontier += reached - live
        live |= reached
    missing = []
    for mod_name in MODULES:
        module = importlib.import_module(f"cvwerner.{mod_name}")
        for name, _ in _public_functions(module):
            owner, _, method = name.rpartition(".")
            qualified = f"{mod_name}.{name}"
            if owner:
                found = {qualified, f"*.{method}"} & live or f"{mod_name}.{owner}" in exported
            else:
                found = qualified in live
            if not found:
                missing.append(qualified)
    assert missing == []
