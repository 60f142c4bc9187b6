"""Every name a poakit module imports is read, every run default has one
home, and no check can be stripped.

No linter ships with the project, so these ast scans stand in for lint
rules: code that deletes a caller must delete its import too, no CLI
option restates a default of ``ExperimentConfig``, no field of it goes
unread, and no ``assert`` statement, which ``python -O`` removes, guards
the program.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "poakit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict:
    """Bound name -> line of every import but ``from __future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _read(tree: ast.Module) -> set:
    """Names loaded anywhere, string annotations included."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
    trees = [tree] + [ast.parse(a.value, mode="eval") for a in annotations
                      if isinstance(a, ast.Constant) and isinstance(a.value, str)]
    return {n.id for t in trees for n in ast.walk(t)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _read(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in read}
    assert not unused, f"{path.name}: imported but never read: {unused}"


def test_no_cli_option_restates_a_default():
    # An omitted option sets nothing and takes ExperimentConfig's default.
    tree = ast.parse((SRC / "cli.py").read_text())
    restated = [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"
                and any(keyword.arg == "default" for keyword in node.keywords)]
    assert not restated, f"cli.py: add_argument passes default= on lines {restated}"


def test_every_experiment_config_field_is_read():
    tree = ast.parse((SRC / "runner.py").read_text())
    config = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "ExperimentConfig")
    fields = {node.target.id for node in config.body if isinstance(node, ast.AnnAssign)}
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    assert fields - read == set(), f"ExperimentConfig fields never read: {fields - read}"


def test_no_assert_statement():
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements, stripped under python -O: {found}"


# Every name ``poakit`` exports, by the module that defines it.
PUBLIC_API = {
    "game": ["AtomicProfile", "CostPolynomial", "Game", "GameSchemaError", "Group",
             "MixedProfile", "PathFlow", "draw_atomic_profile", "dump_game", "load_game"],
    "solvers": ["AtomicEquilibria", "BudgetExceededError", "EquilibriumResult", "SolverConfig",
                "best_response_atomic", "enumerate_atomic_equilibria",
                "epsilon_ne_residual", "expected_arc_statistics", "expected_total_cost",
                "mixed_ne_residual", "solve_atomic_so", "solve_mixed_ne_small",
                "solve_nonatomic_ne", "solve_nonatomic_so", "verify_wardrop"],
    "poa": ["PoaReport", "RandomPoaDistribution", "atomic_poa", "compute_poa_report",
            "exact_random_cost_distribution", "mixed_poa_small", "nonatomic_poa",
            "sample_random_poa"],
    "bounds": ["BoundInputs", "TailBound", "TailVariant", "arc_deviation_probability_bound",
               "atomic_ne_approximation_bound", "atomic_poa_upper_bound",
               "expected_flow_approximation", "nonatomic_poa_upper_bound",
               "random_poa_probability_bound", "scale_game", "weighted_bernoulli_tail_bound"],
    "decomposition": ["DemandFamily", "DemandLaw", "classify_groups", "decomposition_prediction",
                      "limit_game", "load_family", "ordered_partition", "scaling_exponent",
                      "tight_paths", "worst_atomic_cost"],
}


def test_public_names_resolve_to_their_definitions():
    # A fresh copy of the package, so that every name goes through its lazy
    # lookup however many the tests have read already.
    import importlib.util

    spec = importlib.util.spec_from_file_location("poakit", SRC / "__init__.py")
    package = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(package)
    assert sorted(package.__all__) == sorted(n for names in PUBLIC_API.values() for n in names)
    for module, names in PUBLIC_API.items():
        home = importlib.import_module(f"poakit.{module}")
        for name in names:
            value = getattr(package, name)
            assert value is vars(home)[name] and value.__module__ == home.__name__, name
    assert set(package.__all__) <= set(dir(package))
    with pytest.raises(AttributeError, match="no attribute 'decomposition_report'"):
        package.decomposition_report
