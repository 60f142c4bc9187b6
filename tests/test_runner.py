"""End-to-end runs: solve, sweep, sample, reproduce, decompose, CLI."""

import contextlib
import copy
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from poakit import poa, solvers
from poakit.cli import main
from poakit.runner import (
    EXIT_ASSERTION,
    EXIT_INPUT,
    EXIT_NONCONVERGED,
    EXIT_OK,
    ExperimentConfig,
    asset_path,
    run_decompose,
    run_reproduce,
    run_sample,
    run_solve,
    run_sweep,
)

from conftest import TWO_ARC_DIFFERENCE_GAME


def write_family(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


AFFINE_OFFSET_FAMILY = {
    "arcs": [{"id": "u", "coeffs": [1, 0]}, {"id": "l", "coeffs": [1, 1]}],
    "groups": [{"id": "od", "paths": [["u"], ["l"]], "users": [{"demand": 1}]}],
    "demand_laws": {"od": {"c": 1, "gamma": 0, "user_count": {"c": 4, "gamma": 1}}},
}

LINEAR_DOUBLE_FAMILY = {
    "arcs": [{"id": "u", "coeffs": [1, 0]}, {"id": "l", "coeffs": [2, 0]}],
    "groups": [{"id": "od", "paths": [["u"], ["l"]], "users": [{"demand": 1}]}],
    "demand_laws": {"od": {"c": 2, "gamma": 1, "user_count": {"c": 2, "gamma": 0}}},
}

UNIT_USER_FAMILY = {
    "arcs": [{"id": "u", "coeffs": [1, 0]}, {"id": "l", "coeffs": [2, 0]}],
    "groups": [{"id": "od", "paths": [["u"], ["l"]], "users": [{"demand": 1}]}],
    "demand_laws": {"od": {"c": 1, "gamma": 1, "user_demand": 1}},
}

THREE_PATH_UNIT_FAMILY = {
    "arcs": [{"id": "a", "coeffs": [1, 0]}, {"id": "b", "coeffs": [2, 0]},
             {"id": "c", "coeffs": [1, 1]}],
    "groups": [{"id": "od", "paths": [["a"], ["b"], ["c"]], "users": [{"demand": 1}]}],
    "demand_laws": {"od": {"c": 1, "gamma": 1, "user_demand": 1}},
}

# Well-formed JSON of the wrong shape, one field each.
MALFORMED = {
    "groups_item": dict(UNIT_USER_FAMILY, groups=[5]),
    "paths_number": dict(UNIT_USER_FAMILY,
                         groups=[{"id": "od", "paths": 5, "users": [{"demand": 1}]}]),
    "arcs_item": dict(UNIT_USER_FAMILY, arcs=[5]),
    "laws_list": dict(UNIT_USER_FAMILY, demand_laws=[1]),
    "user_count_number": dict(UNIT_USER_FAMILY,
                              demand_laws={"od": {"c": 1, "gamma": 1, "user_count": 5}}),
    "gamma_null": dict(UNIT_USER_FAMILY,
                       demand_laws={"od": {"c": 1, "gamma": None, "user_demand": 1}}),
    # A law value DemandLaw refuses; load_family names the law's path.
    "negative_c": dict(UNIT_USER_FAMILY,
                       demand_laws={"od": {"c": -1, "gamma": 1, "user_demand": 1}}),
    # Past the scale bounds: 2e300 users, a demand of 2^1e300, costs of 1e-600.
    "tiny_user_demand": dict(UNIT_USER_FAMILY,
                             demand_laws={"od": {"c": 1, "gamma": 1, "user_demand": 1e-300}}),
    "huge_gamma": dict(UNIT_USER_FAMILY,
                       demand_laws={"od": {"c": 1, "gamma": 1e300, "user_demand": 1}}),
    "tiny_c": dict(UNIT_USER_FAMILY,
                   demand_laws={"od": {"c": 1e-300, "gamma": 1, "user_demand": 1}}),
    # A law for a group the game lacks, and a group without a law.
    "ghost_law": dict(UNIT_USER_FAMILY, demand_laws={
        **UNIT_USER_FAMILY["demand_laws"], "ghost": {"c": 1, "gamma": 1e300, "user_demand": 1}}),
    "missing_law": dict(UNIT_USER_FAMILY, demand_laws={}),
    # Falsy values that are no list: only a missing or null list reads as empty.
    "paths_false": dict(UNIT_USER_FAMILY,
                        groups=[{"id": "od", "paths": False, "users": [{"demand": 1}]}]),
    "paths_empty_text": dict(UNIT_USER_FAMILY,
                             groups=[{"id": "od", "paths": "", "users": [{"demand": 1}]}]),
    "users_zero": dict(UNIT_USER_FAMILY, groups=[{"id": "od", "paths": [["u"]], "users": 0}]),
    "users_empty_object": dict(UNIT_USER_FAMILY,
                               groups=[{"id": "od", "paths": [["u"]], "users": {}}]),
}

# The one line each MALFORMED document's run prints.
MALFORMED_LINES = {
    "negative_c": "[FAIL] load: demand_laws[od]: demand coefficient c must be > 0",
    "ghost_law": "[FAIL] load: demand_laws[ghost]: the game has no group 'ghost'",
    "missing_law": "[FAIL] load: demand_laws: missing demand law for group 'od'",
    "paths_false": "[FAIL] load: groups[0].paths: expected a list, got bool",
    "paths_empty_text": "[FAIL] load: groups[0].paths: expected a list, got str",
    "users_zero": "[FAIL] load: groups[0].users: expected a list, got int",
    "users_empty_object": "[FAIL] load: groups[0].users: expected a list, got dict",
}

# Finite inputs whose costs leave the float range: x * tau(x) near 1e600 on a
# family instance and 4e400 on two users of 1e200, and an arc of slope 1e300
# that the non-atomic line search and the mixed solver meet at a load of 2e10.
FLOAT_RANGE = {
    "huge_cost_family": dict(AFFINE_OFFSET_FAMILY, demand_laws={
        "od": {"c": 1e300, "gamma": 0.5, "user_count": {"c": 1, "gamma": 1}}}),
    "huge_demands": dict(AFFINE_OFFSET_FAMILY, groups=[
        {"id": "od", "paths": [["u"], ["l"]], "users": [{"demand": 1e200}] * 2}]),
    "steep_arc": dict(AFFINE_OFFSET_FAMILY,
                      arcs=[{"id": "u", "coeffs": [1, 0]}, {"id": "l", "coeffs": [1e300, 1]}],
                      groups=[{"id": "od", "paths": [["u"], ["l"]],
                               "users": [{"demand": 1e10}] * 2}]),
    # Every cost stays finite, but the closed-form atomic bound is inf.
    "infinite_bound_family": dict(UNIT_USER_FAMILY, arcs=[
        {"id": "u", "coeffs": [1e308, 0]}, {"id": "l", "coeffs": [1, 1]}]),
}

# Profiles for parallel_linear_double.json (one group, two users, two
# paths) with a row that sums to 1 within 1e-12 but holds a NaN, booleans,
# a negative entry or a string.
BAD_PROFILES = {
    "nan_profile": [[[math.nan, 1.0], [0.5, 0.5]]],
    "bool_profile": [[[True, False], [0.5, 0.5]]],
    "negative_profile": [[[-1e-13, 1.0000000000001], [0.5, 0.5]]],
    "text_profile": [[["0.5", 0.5], [0.5, 0.5]]],
}

# The non-atomic line search leaves about 0.009 units on l, below the used
# threshold, carrying nearly all of the total cost (8e245 against 4e20).
STRANDED_FLOW_GAME = {
    "arcs": [{"id": "u", "coeffs": [1, 0]}, {"id": "l", "coeffs": [1e250, 1]}],
    "groups": [{"id": "od", "paths": [["u"], ["l"]], "users": [{"demand": 1e10}] * 2}],
}

# Two users on three paths: outside the mixed solver's two-path scope.
THREE_PATH_GAME = {
    "arcs": THREE_PATH_UNIT_FAMILY["arcs"],
    "groups": [{"id": "od", "paths": [["a"], ["b"], ["c"]], "users": [{"demand": 1}] * 2}],
}

LARGEST_SEED = str(2**64 - 1)

# Offset keeps two equilibria alive at every scale, so the measured gap is
# strictly positive and its decay is informative rather than 0 == 0.
OFFSET_UNIT_FAMILY = {
    "arcs": [{"id": "u", "coeffs": [1, 0]}, {"id": "l", "coeffs": [1, 1]}],
    "groups": [{"id": "od", "paths": [["u"], ["l"]], "users": [{"demand": 1}]}],
    "demand_laws": {"od": {"c": 1, "gamma": 1, "user_demand": 1}},
}


class TestSolve:
    def test_quadratic_constant_report(self, tmp_path):
        game_path = str(asset_path("parallel_quadratic_constant.json"))
        config = ExperimentConfig(game_path=game_path,
                                  out_dir=str(tmp_path / "out"))
        report = run_solve(config)
        assert report.exit_code == EXIT_OK
        row = report.rows[0]
        assert row["atomic_poa"] == 1
        assert row["nonatomic_poa"] == pytest.approx(18 / (18 - math.sqrt(6)), abs=1e-6)
        assert row["mixed_poa"] == pytest.approx(5 - 2.5 * math.sqrt(2), abs=1e-8)
        assert (tmp_path / "out" / "solve.csv").exists()
        assert (tmp_path / "out" / "report.json").exists()

    def test_missing_game_is_input_error(self, tmp_path):
        config = ExperimentConfig(game_path=str(tmp_path / "nope.json"))
        assert run_solve(config).exit_code == EXIT_INPUT

    def test_schema_error_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"arcs": [], "groups": []}), encoding="utf-8")
        config = ExperimentConfig(game_path=str(bad))
        assert run_solve(config).exit_code == EXIT_INPUT

    def test_weighted_game_without_equilibrium_reported(self, tmp_path):
        from conftest import no_equilibrium_game
        from poakit import dump_game
        doc = dump_game(no_equilibrium_game())
        path = write_family(tmp_path, "noeq.json", doc)
        report = run_solve(ExperimentConfig(game_path=path))
        row = report.rows[0]
        assert row["atomic_poa"] is None
        assert "no atomic equilibrium" in row["atomic_status"]

    def test_three_path_game_has_no_mixed_ratio(self, tmp_path):
        path = write_family(tmp_path, "three.json", THREE_PATH_GAME)
        report = run_solve(ExperimentConfig(game_path=path))
        assert report.exit_code == EXIT_OK
        row = report.rows[0]
        assert row["mixed_status"] == "unavailable: game outside small-solver scope"
        assert row["mixed_poa"] is None

    def test_minimal_single_path_game_all_ratios_one(self, tmp_path):
        doc = {"arcs": [{"id": "a", "coeffs": [1, 0]}],
               "groups": [{"id": "g", "paths": [["a"]], "users": [{"demand": 1}]}]}
        path = write_family(tmp_path, "one.json", doc)
        report = run_solve(ExperimentConfig(game_path=path))
        row = report.rows[0]
        assert row["atomic_poa"] == 1
        assert row["nonatomic_poa"] == pytest.approx(1.0, abs=1e-10)
        assert row["mixed_poa"] == pytest.approx(1.0, abs=1e-10)


class TestSweep:
    def test_fixed_total_demand_family_stays_at_eight_sevenths(self, tmp_path):
        path = write_family(tmp_path, "fam.json", AFFINE_OFFSET_FAMILY)
        config = ExperimentConfig(family_path=path, grid=[1, 3, 9],
                                  out_dir=str(tmp_path / "out"))
        report = run_sweep(config)
        assert report.exit_code == EXIT_OK
        values = [row["poa_measured"] for row in report.rows]
        assert values == pytest.approx([8 / 7] * 3)
        # non-convergence is reported, never asserted away
        assert any(name == "decay" for name, _, _ in report.verdicts)

    def test_fixed_share_family_stays_at_four_thirds(self, tmp_path):
        path = write_family(tmp_path, "fam.json", LINEAR_DOUBLE_FAMILY)
        config = ExperimentConfig(family_path=path, grid=[1, 2, 4])
        report = run_sweep(config)
        assert report.exit_code == EXIT_OK
        values = [row["poa_measured"] for row in report.rows]
        assert values == pytest.approx([4 / 3] * 3)

    def test_unit_user_family_decays(self, tmp_path):
        path = write_family(tmp_path, "fam.json", OFFSET_UNIT_FAMILY)
        config = ExperimentConfig(family_path=path,
                                  grid=[10, 100, 1000], out_dir=str(tmp_path / "out"))
        report = run_sweep(config)
        assert report.exit_code == EXIT_OK
        gaps = [row["poa_measured"] - 1 for row in report.rows]
        assert all(g > 0 for g in gaps)
        assert gaps[1] <= gaps[0] / 2
        assert gaps[2] <= gaps[1] / 2
        bounds = [row["atomic_poa_bound"] for row in report.rows]
        assert bounds[0] > bounds[1] > bounds[2]

    def test_missing_family_is_input_error(self, tmp_path):
        config = ExperimentConfig(family_path=str(tmp_path / "no.json"),
                                  grid=[1, 2])
        assert run_sweep(config).exit_code == EXIT_INPUT

    def test_empty_grid_is_input_error_with_report(self, tmp_path):
        path = write_family(tmp_path, "fam.json", UNIT_USER_FAMILY)
        out = tmp_path / "out"
        report = run_sweep(ExperimentConfig(family_path=path, grid=[],
                                            out_dir=str(out)))
        assert report.exit_code == EXIT_INPUT
        assert json.loads((out / "report.json").read_text())["exit_code"] == EXIT_INPUT

    def test_point_past_budget_is_lower_bound_only(self, tmp_path, monkeypatch, capsys):
        # 50 unit users on three paths have C(52, 2) = 1326 states, past the
        # budget: the worst cost falls back to best response and the optimum
        # is not computed, so the row carries no measured ratio.
        monkeypatch.setenv("POAKIT_BUDGET", "1000")
        path = write_family(tmp_path, "fam.json", THREE_PATH_UNIT_FAMILY)
        out = tmp_path / "out"
        code = main(["sweep", "--family", path, "--grid", "10,50", "--out", str(out)])
        assert "Traceback" not in capsys.readouterr().out
        doc = json.loads((out / "report.json").read_text())
        small, large = doc["rows"]
        assert small["poa_measured"] is not None and not small["atomic_lower_bound_only"]
        assert large["poa_measured"] is None and large["atomic_lower_bound_only"]
        # One measured point cannot show the decay the family promises.
        assert code == doc["exit_code"] == EXIT_ASSERTION
        lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
        assert lines[2].split(",")[3:4] == [""] and lines[2].split(",")[8] == "True"


class TestSample:
    def test_sample_report_and_distribution(self, tmp_path):
        game_path = str(asset_path("parallel_quadratic_constant.json"))
        config = ExperimentConfig(game_path=game_path, n_samples=50_000,
                                  seed=7, out_dir=str(tmp_path / "out"))
        report = run_sample(config)
        assert report.exit_code == EXIT_OK
        row = report.rows[0]
        assert row["exact_mean"] == pytest.approx(5 - 2.5 * math.sqrt(2), abs=1e-9)
        assert row["exact_status"] == "ok"
        se = 1.5 / math.sqrt(50_000)
        assert abs(row["empirical_mean"] - row["exact_mean"]) <= 3 * se
        csv_text = (tmp_path / "out" / "distribution.csv").read_text(encoding="utf-8")
        assert "exact" in csv_text and "monte-carlo" in csv_text

    def test_profile_document_accepted(self, tmp_path):
        game_path = str(asset_path("parallel_quadratic_constant.json"))
        profile = [[[0.25, 0.75], [0.25, 0.75]]]
        ppath = tmp_path / "profile.json"
        ppath.write_text(json.dumps(profile), encoding="utf-8")
        config = ExperimentConfig(game_path=game_path,
                                  profile_path=str(ppath), n_samples=1000, seed=1)
        report = run_sample(config)
        assert report.exit_code == EXIT_OK

    def test_exact_rows_past_the_state_budget_are_skipped(self, tmp_path, monkeypatch, capsys):
        # Six users of distinct demands on three paths reach more than 100
        # arc-load states; the exact rows only cross-check the samples.  The
        # fold stops at the first source state that passes the cap.
        monkeypatch.setattr(poa, "EXACT_DISTRIBUTION_MAX_STATES", 100)
        sizes = []
        convolve = solvers._convolve
        monkeypatch.setattr(solvers, "_convolve", lambda *args, **kwargs: sizes.append(
            len(out := convolve(*args, **kwargs))) or out)
        game = {"arcs": [{"id": "a", "coeffs": [1, 0]}, {"id": "b", "coeffs": [1, 2]},
                         {"id": "c", "coeffs": [2, 1]}],
                "groups": [{"id": "od", "paths": [["a"], ["b"], ["c"]],
                            "users": [{"demand": d} for d in (1, 2, 3, 5, 7, 11)]}]}
        profile = [[[0.5, 0.25, 0.25]] * 6]
        out = tmp_path / "out"
        code = main(["sample", "--game", write_family(tmp_path, "game.json", game),
                     "--profile", write_family(tmp_path, "profile.json", profile),
                     "--n", "2000", "--seed", "1", "--out", str(out)])
        assert code == EXIT_OK and "Traceback" not in capsys.readouterr().err
        assert 100 < max(sizes) <= 103
        row = json.loads((out / "report.json").read_text(encoding="utf-8"))["rows"][0]
        assert row["exact_mean"] is None
        assert row["exact_status"] == "skipped: state space too large for exact enumeration"
        sources = {line.split(",")[2] for line in
                   (out / "distribution.csv").read_text(encoding="utf-8").splitlines()[1:]}
        assert sources == {"monte-carlo"}

    def test_exact_rows_past_the_user_cap_are_skipped(self, tmp_path):
        game = {"arcs": [{"id": "u", "coeffs": [1, 0]}, {"id": "l", "coeffs": [1, 1]}],
                "groups": [{"id": "od", "paths": [["u"], ["l"]],
                            "users": [{"demand": 1}] * 21}]}
        report = run_sample(ExperimentConfig(
            game_path=write_family(tmp_path, "game.json", game),
            profile_path=write_family(tmp_path, "profile.json", [[[0.5, 0.5]] * 21]),
            n_samples=1000, seed=1))
        assert report.exit_code == EXIT_OK
        row = report.rows[0]
        assert row["exact_mean"] is None and row["exact_status"] == "skipped: more than 20 users"


class TestReproduce:
    def test_full_pass(self):
        report = run_reproduce(ExperimentConfig())
        assert report.exit_code == EXIT_OK
        assert len(report.verdicts) == 4
        assert all(ok for _, ok, _ in report.verdicts)

    def test_perturbed_asset_fails(self, tmp_path, monkeypatch):
        # Copy the assets, weaken the constant arc of the affine-offset game
        # to 0.9, and point the runner at the copies: the optimum split moves
        # and the exact-8/7 check must fail.
        assets = tmp_path / "assets"
        assets.mkdir()
        for name in ("parallel_quadratic_constant.json", "parallel_affine_offset.json",
                     "parallel_linear_double.json", "two_commodity_mixed_degree.json"):
            shutil.copy(asset_path(name), assets / name)
        doc = json.loads((assets / "parallel_affine_offset.json").read_text())
        doc["arcs"][1]["coeffs"] = [1, "9/10"]
        (assets / "parallel_affine_offset.json").write_text(json.dumps(doc))
        monkeypatch.setattr("poakit.runner.asset_path", lambda name: assets / name)
        report = run_reproduce(ExperimentConfig())
        assert report.exit_code == EXIT_ASSERTION
        failed = {name for name, ok, _ in report.verdicts if not ok}
        assert failed == {"parallel_affine_offset"}

    def test_perturbed_asset_fails_under_optimize(self, tmp_path):
        # python -O strips assert statements; the checks must still fail.
        import poakit

        package = tmp_path / "poakit"
        shutil.copytree(Path(poakit.__file__).parent, package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        asset = package / "assets" / "parallel_linear_double.json"
        doc = json.loads(asset.read_text())
        doc["arcs"][1]["coeffs"] = [3, 0]
        asset.write_text(json.dumps(doc))
        run = subprocess.run([sys.executable, "-O", "-m", "poakit.cli", "reproduce"],
                             cwd=tmp_path, capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(tmp_path)})
        assert run.returncode == EXIT_ASSERTION
        failed = [line for line in run.stdout.splitlines() if line.startswith("[FAIL]")]
        assert failed == ["[FAIL] parallel_linear_double: expected optimum cost 3, got 4"]

    def test_missing_asset_reported(self, tmp_path, monkeypatch):
        monkeypatch.setattr("poakit.runner.asset_path", lambda name: tmp_path / name)
        report = run_reproduce(ExperimentConfig())
        assert report.exit_code == EXIT_INPUT
        assert all("asset not found" in detail for _, ok, detail in report.verdicts)


class TestDecomposeRun:
    def test_two_commodity_family_run(self, tmp_path):
        doc = {
            "arcs": [{"id": "a1", "coeffs": [1, 0]}, {"id": "a2", "coeffs": [1, 0]},
                     {"id": "b1", "coeffs": [1, 0, 0, 0]}, {"id": "b2", "coeffs": [8, 0, 0, 1]}],
            "groups": [{"id": "od1", "paths": [["a1"], ["a2"]], "users": [{"demand": 1}]},
                       {"id": "od2", "paths": [["b1"], ["b2"]], "users": [{"demand": 1}]}],
            "demand_laws": {"od1": {"c": 2, "gamma": 1, "user_demand": 1},
                            "od2": {"c": 2, "gamma": 0.5, "user_demand": 1}},
        }
        path = write_family(tmp_path, "fam.json", doc)
        config = ExperimentConfig(family_path=path, grid=[100, 1000],
                                  out_dir=str(tmp_path / "out"))
        report = run_decompose(config)
        assert report.exit_code == EXIT_OK
        assert (tmp_path / "out" / "decompose.csv").exists()


STEEP_ARC_FAMILY = {
    "arcs": [{"id": "s", "coeffs": [1e308, 0]}, {"id": "f", "coeffs": [1, 1]}],
    "groups": [{"id": "g", "paths": [["s"], ["f"]], "users": [{"demand": 1}]}],
    "demand_laws": {"g": {"c": 1, "gamma": 1, "user_demand": 1}},
}


class TestDecomposeFailures:
    def _decompose(self, tmp_path, family, capsys) -> str:
        out = tmp_path / "out"
        assert main(["decompose", "--family", write_family(tmp_path, "family.json", family),
                     "--grid", "1,2", "--out", str(out)]) == EXIT_NONCONVERGED
        [line] = capsys.readouterr().out.splitlines()
        doc = json.loads((out / "report.json").read_text())
        assert doc["exit_code"] == EXIT_NONCONVERGED
        assert [f"[FAIL] {v['name']}: {v['detail']}" for v in doc["verdicts"]] == [line]
        return line

    def test_unconverged_limit_game_says_why(self, tmp_path, capsys):
        # The line search strands flow of order 1e-13 on the 1e308 x arc.
        assert self._decompose(tmp_path, STEEP_ARC_FAMILY, capsys) == (
            "[FAIL] decompose: limit game of g: nonatomic-ne did not converge "
            "(iterations 1, residual 0): flow stranded below the used threshold on a costlier path")

    def test_unconverged_grid_point_is_named(self, tmp_path, monkeypatch, capsys):
        solve = solvers.solve_nonatomic_ne

        def unconverged_at_two(game, config):
            result = solve(game, config)
            result.converged = result.converged and game.total_demand != 2
            return result

        monkeypatch.setattr(solvers, "solve_nonatomic_ne", unconverged_at_two)
        line = self._decompose(tmp_path, UNIT_USER_FAMILY, capsys)
        assert line.startswith("[FAIL] decompose: n=2: nonatomic-ne did not converge (iterations ")


class TestDeterminism:
    def test_sweep_csv_byte_identical(self, tmp_path):
        path = write_family(tmp_path, "fam.json", UNIT_USER_FAMILY)
        texts = []
        for run in ("a", "b"):
            out = tmp_path / run
            config = ExperimentConfig(family_path=path, grid=[5, 25],
                                      seed=3, out_dir=str(out))
            run_sweep(config)
            texts.append((out / "sweep.csv").read_bytes())
        assert texts[0] == texts[1]

    def test_mixed_equilibrium_ignores_hash_seed(self, tmp_path):
        import poakit

        game = write_family(tmp_path, "game.json", TWO_ARC_DIFFERENCE_GAME)
        src = str(Path(poakit.__file__).resolve().parent.parent)
        texts = []
        for hash_seed in ("1", "3"):
            out = tmp_path / hash_seed
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
            argv = ["sample", "--game", game, "--n", "20000", "--seed", "3", "--out", str(out)]
            subprocess.run([sys.executable, "-m", "poakit.cli", *argv], env=env,
                           capture_output=True, check=True)
            texts.append((out / "distribution.csv").read_bytes())
        assert texts[0] == texts[1]

    def test_seed_and_version_in_rows(self, tmp_path):
        path = write_family(tmp_path, "fam.json", UNIT_USER_FAMILY)
        out = tmp_path / "out"
        run_sweep(ExperimentConfig(family_path=path, grid=[5], seed=9,
                                   out_dir=str(out)))
        lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        row = lines[1].split(",")
        assert row[header.index("seed")] == "9"
        assert row[header.index("version")] == "0.1.0"


class TestCli:
    def test_solve_subcommand(self, tmp_path, capsys):
        game_path = str(asset_path("parallel_linear_double.json"))
        code = main(["solve", "--game", game_path, "--out", str(tmp_path / "o")])
        assert code == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    def test_reproduce_subcommand(self, capsys):
        assert main(["reproduce"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 4

    def test_input_error_exit_code(self, tmp_path):
        assert main(["solve", "--game", str(tmp_path / "missing.json")]) == EXIT_INPUT

    def test_grid_parsing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["sweep", "--family", "x.json", "--grid", "3,2,1",
                     "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().out.splitlines() == [
            "[FAIL] usage: argument --grid: grid must be strictly increasing"]
        doc = json.loads((out / "report.json").read_text())
        assert doc["exit_code"] == EXIT_INPUT
        assert doc["config"] == {"mode": "sweep"}

    def test_infinite_random_ratio_threshold_is_an_input_error(self, tmp_path, monkeypatch,
                                                               capsys):
        from poakit.bounds import RandomPoaBound

        monkeypatch.setattr("poakit.runner.random_poa_probability_bound",
                            lambda *args: RandomPoaBound(threshold=math.inf, p_delta=0.5))
        game_path = str(asset_path("parallel_linear_double.json"))
        assert main(["sample", "--game", game_path, "--n", "100",
                     "--out", str(tmp_path)]) == EXIT_INPUT
        assert capsys.readouterr().out.splitlines() == [
            "[FAIL] sample: costs outside the float range: threshold inf is not a finite float"]

    def test_one_parser_serves_every_call(self, tmp_path):
        from poakit.cli import build_parser

        build_parser.cache_clear()
        assert main(["reproduce", "--out", str(tmp_path / "first")]) == EXIT_OK
        assert main(["solve", "--game", str(tmp_path / "missing.json")]) == EXIT_INPUT
        assert build_parser.cache_info().misses == 1

    def test_samples_past_memory_are_an_input_error(self, tmp_path, capsys):
        # The samples are held as int64 counts of their distinct values, so an
        # --n past 2**63 - 1 is refused before any sample is drawn: 2**63 is
        # the least such n, and 10**20 is past numpy's largest array as well.
        game_path = str(asset_path("parallel_affine_offset.json"))
        for n in (str(2**63), "100000000000000000000"):
            out = tmp_path / n
            assert main(["sample", "--game", game_path, "--n", n,
                         "--out", str(out)]) == EXIT_INPUT
            assert capsys.readouterr().out.splitlines() == [
                f"[FAIL] sample: --n {n} is past 2**63 - 1, the most samples an int64 "
                "count holds"]
            doc = json.loads((out / "report.json").read_text())
            assert doc["exit_code"] == EXIT_INPUT

    @pytest.mark.parametrize("workers", [2, 3])
    def test_a_failed_block_stops_every_worker(self, tmp_path, capsys, monkeypatch, workers):
        # Block 1 cannot be allocated.  Every other worker stops before its
        # next block, so at most one draw a worker follows the failure, not
        # the 63 blocks left, and the pool's threads are gone when it returns.
        import poakit.game

        draw = poakit.game.sample_uniforms
        calls = []

        def failing(seed, start, count, width):
            calls.append(start)  # list.append is atomic across threads
            if start == poa.SAMPLE_BLOCK:
                raise MemoryError
            return draw(seed, start, count, width)

        monkeypatch.setattr(poakit.game, "sample_uniforms", failing)
        monkeypatch.setattr(poa, "_sample_workers", lambda: workers)
        threads = threading.active_count()
        n = 64 * poa.SAMPLE_BLOCK
        out = tmp_path / "out"
        assert main(["sample", "--game", str(asset_path("parallel_affine_offset.json")),
                     "--n", str(n), "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().out.splitlines() == [
            f"[FAIL] sample: --n {n}: the distinct sampled values do not fit in memory"]
        assert json.loads((out / "report.json").read_text())["exit_code"] == EXIT_INPUT
        assert len(calls) - 1 - calls.index(poa.SAMPLE_BLOCK) <= workers, calls
        assert threading.active_count() == threads

    def test_sample_memory_does_not_grow_with_n(self, tmp_path):
        # Each shard of samples is reduced to (value, count) pairs as it is
        # drawn, so 16 times the samples leave the peak within a few MB; one
        # float held per sample would add 30 MB between the two runs.
        import poakit

        code = ("import resource, sys, poakit.cli\n"
                "game, n, out = sys.argv[1:]\n"
                "assert poakit.cli.main(['sample', '--game', game, '--n', n, '--out', out]) == 0\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
        src = str(Path(poakit.__file__).resolve().parent.parent)
        game = str(asset_path("two_commodity_mixed_degree.json"))
        peaks_kb = [int(subprocess.run([sys.executable, "-c", code, game, n, str(tmp_path / n)],
                                       cwd=src, capture_output=True, text=True,
                                       check=True).stdout.splitlines()[-1])
                    for n in ("250000", "4000000")]
        assert abs(peaks_kb[1] - peaks_kb[0]) < 10 * 1024, peaks_kb

    # A profile of the wrong shape, or with the wrong number of groups, for
    # parallel_linear_double.json (one group of two users on two paths).
    @pytest.mark.parametrize("doc, line", [
        ([1], "groups[0] is not a list of users"),
        ([[1, 2]], "groups[0].users[0] is not a list of probabilities"),
        (None, "the profile is not a list of groups"),
        ({"a": 1}, "the profile is not a list of groups"),
        ([[[0.5, 0.5], [0.5, 0.5]], [[1.0, 0.0]]], "profile has 2 groups, the game 1"),
    ], ids=["int-group", "int-user", "null", "object", "group-count"])
    def test_profile_shape_errors_name_the_path(self, tmp_path, capsys, doc, line):
        profile = write_family(tmp_path, "profile.json", doc)
        out = tmp_path / "out"
        assert main(["sample", "--game", str(asset_path("parallel_linear_double.json")),
                     "--profile", profile, "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().out.splitlines() == [f"[FAIL] profile: {line}"]
        assert json.loads((out / "report.json").read_text())["exit_code"] == EXIT_INPUT

    def test_cli_import_leaves_numpy_unloaded(self, tmp_path):
        # Each layer is imported where a run first needs it: numpy and the
        # thread pool where samples are drawn, the decompose layer by sweep
        # and decompose, and a document load compiles no solver.  No record
        # is a dataclass, so no start imports dataclasses (and inspect).
        import poakit

        loaded = ("print(sorted(m for m in sys.modules if m.split('.')[0] == 'poakit'),"
                  " 'numpy' in sys.modules, 'concurrent.futures' in sys.modules,"
                  " 'dataclasses' in sys.modules)")
        load = ("import sys\n"
                "from pathlib import Path\n"
                "from poakit import load_family, load_game\n"
                "load_game(Path(sys.argv[1]).read_text())\n"
                "load_family(Path(sys.argv[2]).read_text())\n" + loaded)
        src = str(Path(poakit.__file__).resolve().parent.parent)
        documents = [str(asset_path("two_commodity_mixed_degree.json")),
                     write_family(tmp_path, "family.json", UNIT_USER_FAMILY)]
        runs = [subprocess.run([sys.executable, "-c", code, *documents], cwd=src,
                               capture_output=True, text=True, check=True).stdout.strip()
                for code in (load, "import sys, poakit.cli\n" + loaded)]
        assert runs == [
            "['poakit', 'poakit.decomposition', 'poakit.game'] False False False",
            "['poakit', 'poakit.bounds', 'poakit.cli', 'poakit.game', 'poakit.poa',"
            " 'poakit.runner', 'poakit.solvers'] False False False"]

    def test_solve_on_the_assets_leaves_numpy_unloaded(self, tmp_path):
        # Their scans hold at most 30 states, below VECTOR_MIN_STATES, so a
        # solve never needs numpy, whose import costs a fresh process about 0.15 s.
        import poakit

        code = ("import sys, poakit.cli\n"
                "out, *games = sys.argv[1:]\n"
                "codes = [poakit.cli.main(['solve', '--game', game, '--out', f'{out}/{i}'])\n"
                "         for i, game in enumerate(games)]\n"
                "print(codes, 'numpy' in sys.modules)")
        games = [str(asset_path(name)) for name in ("parallel_affine_offset.json",
                                                    "parallel_linear_double.json",
                                                    "parallel_quadratic_constant.json",
                                                    "two_commodity_mixed_degree.json")]
        src = str(Path(poakit.__file__).resolve().parent.parent)
        run = subprocess.run([sys.executable, "-c", code, str(tmp_path), *games], cwd=src,
                             capture_output=True, text=True, check=True)
        assert run.stdout.splitlines()[-1] == "[0, 0, 0, 0] False"

    def test_fallback_past_the_budget_leaves_numpy_unloaded(self, tmp_path):
        # 40 unit users on 8 links, C(47, 7) states: past the default budget,
        # so sweep and decompose take the best-response restarts, whose
        # starts are drawn without numpy.
        import poakit

        family = write_family(tmp_path, "family.json", {
            "arcs": [{"id": f"a{i}", "coeffs": [1 + i % 3, i % 4]} for i in range(8)],
            "groups": [{"id": "od", "paths": [[f"a{i}"] for i in range(8)],
                        "users": [{"demand": 1}]}],
            "demand_laws": {"od": {"c": 1, "gamma": 1, "user_demand": 1}}})
        code = ("import sys, poakit.cli\n"
                "out, family = sys.argv[1:]\n"
                "codes = [poakit.cli.main([mode, '--family', family, '--grid', '40', '--out',\n"
                "                          f'{out}/{mode}']) for mode in ('sweep', 'decompose')]\n"
                "print(codes, 'numpy' in sys.modules)")
        src = str(Path(poakit.__file__).resolve().parent.parent)
        run = subprocess.run([sys.executable, "-c", code, str(tmp_path), family], cwd=src,
                             capture_output=True, text=True, check=True)
        assert run.stdout.splitlines()[-1] == "[0, 0] False"
        for mode in ("sweep", "decompose"):
            with open(tmp_path / mode / f"{mode}.csv", newline="") as rows:
                assert [row["atomic_lower_bound_only"] for row in csv.DictReader(rows)] == ["True"]

    @pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        assert "usage: poakit" in capsys.readouterr().out

    def test_usage_error_with_out_equals_and_no_mode(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([f"--out={out}"]) == EXIT_INPUT
        doc = json.loads((out / "report.json").read_text())
        assert doc["exit_code"] == EXIT_INPUT and doc["config"] == {"mode": None}
        assert main([]) == EXIT_INPUT  # nothing to write a report into
        assert capsys.readouterr().out.splitlines() == [
            "[FAIL] usage: the following arguments are required: mode"] * 2
        # Options take their full names only: an abbreviated --out is no --out.
        assert main(["reproduce", "--ou", str(tmp_path / "abbreviated")]) == EXIT_INPUT
        assert capsys.readouterr().out.splitlines() == [
            f"[FAIL] usage: unrecognized arguments: --ou {tmp_path / 'abbreviated'}"]
        assert not (tmp_path / "abbreviated").exists()

    @pytest.mark.parametrize("env, args", [
        ({"POAKIT_TOLERANCE": "abc"}, ["solve", "--game", "{asset}"]),
        ({"POAKIT_BUDGET": "1.5"}, ["solve", "--game", "{asset}"]),
        ({"POAKIT_TOLERANCE": "-1"}, ["solve", "--game", "{asset}"]),
        ({}, ["sample", "--game", "{asset}", "--n", "0"]),
        ({}, ["sample", "--game", "{asset}", "--seed", "-1"]),
        ({}, ["sample", "--game", "{asset}", "--seed", str(2**64)]),
        ({}, ["solve", "--game", "{asset}", "--seed", "-5"]),
        ({}, ["sweep", "--family", "{family}", "--grid", "3", "--seed", "-1"]),
        ({"POAKIT_BUDGET": "1"}, ["decompose", "--family", "{family}", "--grid", "3",
                                  "--seed", "-1"]),
        ({"POAKIT_BUDGET": "1"}, ["decompose", "--family", "{family}", "--grid", "3",
                                  "--seed", str(2**128 - 1)]),
        ({}, ["sample", "--game", "{asset}", "--profile", "{missing}"]),
        ({}, ["sample", "--game", "{asset}", "--profile", "{flat}"]),
        ({}, ["solve", "--game", "{directory}"]),
        ({}, ["sample", "--game", "{directory}"]),
        ({}, ["sweep", "--family", "{directory}", "--grid", "3"]),
        ({}, ["decompose", "--family", "{directory}", "--grid", "3"]),
        ({}, ["solve", "--game", "{binary}"]),
        ({}, ["sample", "--game", "{binary}"]),
        ({}, ["solve", "--game", "{groups_item}"]),
        ({}, ["solve", "--game", "{paths_number}"]),
        ({}, ["sample", "--game", "{arcs_item}"]),
        ({}, ["sweep", "--family", "{laws_list}", "--grid", "3"]),
        ({}, ["decompose", "--family", "{user_count_number}", "--grid", "3"]),
        ({}, ["sweep", "--family", "{gamma_null}", "--grid", "3"]),
        ({}, ["sweep", "--family", "{negative_c}", "--grid", "3"]),
        ({}, ["sweep", "--family", "{family}", "--grid", "0,5"]),
        ({}, ["decompose", "--family", "{family}", "--grid", "0,5"]),
        ({}, ["sample", "--game", "{three_path}"]),
        ({"POAKIT_BUDGET": "1"}, ["sample", "--game", "{asset}"]),
        ({"POAKIT_TOLERANCE": "nan"}, ["solve", "--game", "{asset}"]),
        ({"POAKIT_TOLERANCE": "inf"}, ["sweep", "--family", "{family}", "--grid", "3"]),
        ({}, ["sweep", "--family", "{family}", "--grid", "3,2,1"]),
        ({}, ["decompose", "--family", "{family}", "--grid", "x"]),
        ({}, ["solve"]),
        ({}, ["sample", "--game", "{asset}", "--n", "many"]),
        ({}, ["sweep", "--family", "{tiny_user_demand}", "--grid", "1,2"]),
        ({}, ["decompose", "--family", "{tiny_user_demand}", "--grid", "1,2"]),
        ({}, ["sweep", "--family", "{huge_gamma}", "--grid", "1,2"]),
        ({}, ["decompose", "--family", "{huge_gamma}", "--grid", "1,2"]),
        ({}, ["sweep", "--family", "{tiny_c}", "--grid", "1,2"]),
        ({}, ["decompose", "--family", "{tiny_c}", "--grid", "1,2"]),
        ({}, ["sweep", "--family", "{huge_cost_family}", "--grid", "1,2"]),
        ({}, ["decompose", "--family", "{huge_cost_family}", "--grid", "1,2"]),
        ({}, ["solve", "--game", "{huge_demands}"]),
        ({}, ["sample", "--game", "{huge_demands}"]),
        ({}, ["solve", "--game", "{steep_arc}"]),
        ({}, ["sample", "--game", "{steep_arc}"]),
        ({}, ["sample", "--game", "{asset}", "--profile", "{nan_profile}"]),
        ({}, ["sample", "--game", "{asset}", "--profile", "{bool_profile}"]),
        ({}, ["sample", "--game", "{asset}", "--profile", "{negative_profile}"]),
        ({}, ["sample", "--game", "{asset}", "--profile", "{text_profile}"]),
        ({}, ["sweep", "--family", "{ghost_law}", "--grid", "1,2"]),
        ({}, ["decompose", "--family", "{missing_law}", "--grid", "1,2"]),
        ({}, ["solve", "--game", "{paths_false}"]),
        ({}, ["sample", "--game", "{paths_empty_text}"]),
        ({}, ["solve", "--game", "{users_zero}"]),
        ({}, ["sweep", "--family", "{users_empty_object}", "--grid", "1,2"]),
        ({}, ["sweep", "--family", "{infinite_bound_family}", "--grid", "1,2"]),
    ], ids=["tolerance-text", "budget-fraction", "tolerance-negative", "zero-samples",
            "negative-seed", "sample-seed-past-range", "solve-negative-seed",
            "sweep-negative-seed", "decompose-fallback-negative-seed",
            "decompose-fallback-seed-past-key-range", "missing-profile", "flat-profile",
            "solve-directory", "sample-directory", "sweep-directory", "decompose-directory",
            "solve-not-utf8", "sample-not-utf8", "groups-item", "paths-number", "arcs-item",
            "laws-list", "user-count-number", "gamma-null", "negative-c", "sweep-grid-zero",
            "decompose-grid-zero", "sample-three-paths", "sample-past-budget",
            "tolerance-nan", "tolerance-inf", "grid-decreasing", "grid-not-integers",
            "missing-game", "samples-not-integer", "sweep-tiny-user-demand",
            "decompose-tiny-user-demand", "sweep-huge-gamma", "decompose-huge-gamma",
            "sweep-tiny-c", "decompose-tiny-c", "sweep-huge-costs", "decompose-huge-costs",
            "solve-huge-demands", "sample-huge-demands", "solve-steep-arc",
            "sample-steep-arc", "nan-probability", "boolean-probability",
            "negative-probability", "text-probability", "ghost-law",
            "missing-law", "paths-false", "paths-empty-text", "users-zero",
            "users-empty-object", "sweep-infinite-bound"])
    def test_bad_input_exits_three_with_report(self, tmp_path, monkeypatch, capsys, env, args):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe{}")
        paths = {name: write_family(tmp_path, f"{name}.json", doc)
                 for name, doc in {**MALFORMED, **FLOAT_RANGE, **BAD_PROFILES}.items()}
        out = tmp_path / "out"
        argv = [a.format(asset=str(asset_path("parallel_linear_double.json")),
                         missing=str(tmp_path / "missing.json"),
                         flat=write_family(tmp_path, "flat.json", [1]),
                         family=write_family(tmp_path, "family.json", UNIT_USER_FAMILY),
                         three_path=write_family(tmp_path, "three.json", THREE_PATH_GAME),
                         directory=str(tmp_path), binary=str(binary), **paths)
                for a in args]
        argv += ["--out", str(out)]
        assert main(argv) == EXIT_INPUT
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("[FAIL] ")
        if any(f"{{{name}}}" in args for name in FLOAT_RANGE):
            assert "costs outside the float range" in lines[0]
        if any(f"{{{name}}}" in args for name in BAD_PROFILES):
            assert lines == ["[FAIL] profile: groups[0].users[0]: probabilities must be "
                             "finite numbers >= 0"]
        if "--seed" in args:
            assert lines[0].startswith("[FAIL] seed: seed must be in 0 .. 2**64 - 1")
        if args[-2:] == ["--n", "0"]:
            assert lines == ["[FAIL] plan: n_samples must be >= 1"]
        for name, line in MALFORMED_LINES.items():
            if f"{{{name}}}" in args:
                assert lines == [line]
        if "{infinite_bound_family}" in args:
            assert lines == ["[FAIL] sweep: costs outside the float range: "
                             "atomic_poa_bound inf is not a finite float"]
        if args[-2:] == ["--grid", "0,5"]:
            assert lines == [f"[FAIL] {args[0]}: grid must be a nonempty increasing list of n >= 1"]
        if "{three_path}" in args:
            assert lines == ["[FAIL] profile: group 'od' has 3 paths; solver handles <= 2"]
        if env.get("POAKIT_BUDGET") == "1" and args[0] == "sample":
            assert lines == ["[FAIL] sample: state space needs 3+ states, budget is 1"]
        doc = json.loads((out / "report.json").read_text())
        assert doc["exit_code"] == EXIT_INPUT
        assert [v["passed"] for v in doc["verdicts"]] == [False]

    @pytest.mark.parametrize("args, step", [
        (["solve", "--game", "{deep}"], "load"),
        (["sweep", "--family", "{deep}", "--grid", "1,2"], "load"),
        (["decompose", "--family", "{deep}", "--grid", "1,2"], "load"),
        (["sample", "--game", "{asset}", "--profile", "{deep}"], "profile"),
    ], ids=["solve", "sweep", "decompose", "sample-profile"])
    def test_deeply_nested_document_exits_three_with_report(self, tmp_path, capsys, args, step):
        # A document nested past the recursion limit makes json.loads raise
        # RecursionError: an input error, like any other parse failure.
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        out = tmp_path / "out"
        argv = [a.format(asset=str(asset_path("parallel_linear_double.json")), deep=str(deep))
                for a in args]
        assert main([*argv, "--out", str(out)]) == EXIT_INPUT
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"[FAIL] {step}: maximum recursion depth exceeded")
        doc = json.loads((out / "report.json").read_text())
        assert doc["exit_code"] == EXIT_INPUT
        assert [(v["name"], v["passed"]) for v in doc["verdicts"]] == [(step, False)]

    def test_failed_validation_exits_two_with_report(self, tmp_path, monkeypatch, capsys):
        # A tolerance of 1e6 lets the optimum solve stop where it starts, at
        # cost 1 against the atomic optimum 7/8: 12.5 % above it, past the
        # largest slack that validate allows at any tolerance.
        monkeypatch.setenv("POAKIT_TOLERANCE", "1e6")
        out = tmp_path / "out"
        game = str(asset_path("parallel_affine_offset.json"))
        assert main(["solve", "--game", game, "--out", str(out)]) == EXIT_ASSERTION
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["[FAIL] validate: atomic optimum cheaper than non-atomic optimum"]
        doc = json.loads((out / "report.json").read_text())
        assert doc["exit_code"] == EXIT_ASSERTION
        assert [v["passed"] for v in doc["verdicts"]] == [False]

    def test_validation_allows_a_float_optimum_one_ulp_above(self, tmp_path, capsys):
        # Both optima are 436694041901/9; the float solve reads one ulp above.
        game = tmp_path / "one_arc.json"
        game.write_text(json.dumps({
            "arcs": [{"id": "a", "coeffs": [5, 8]}],
            "groups": [{"id": "g", "paths": [["a"]], "users": [{"demand": "295529/3"}]}]}),
            encoding="utf-8")
        assert main(["solve", "--game", str(game), "--out", str(tmp_path / "out")]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == ["[PASS] solved"]

    # Positive numbers that are 0.0 as floats: two users of 10**-200 on two
    # x**2 arcs (atomic optimum 2 * 10**-400), and one user of 10**-400 on x
    # or 2x, as a game and as a family's every grid point.
    @pytest.mark.parametrize("args, detail", [
        (["solve", "--game", "{tiny_demand}"], "group 'od' demand 0.0 is not above 0 as a float"),
        (["sample", "--game", "{tiny_optimum}"],
         "atomic optimum cost 0.0 is not above 0 as a float"),
        (["sample", "--game", "{tiny_optimum}", "--profile", "{even}"],
         "atomic optimum cost 0.0 is not above 0 as a float"),
        (["decompose", "--family", "{tiny_family}", "--grid", "1,2"],
         "group 'od' demand 0.0 is not above 0 as a float"),
    ], ids=["solve", "sample", "sample-profile", "decompose"])
    def test_zero_as_a_float_exits_three_with_report(self, tmp_path, capsys, args, detail):
        e200, e400 = "1/1" + "0" * 200, "1/1" + "0" * 400
        linear = [{"id": "x", "coeffs": [1, 0]}, {"id": "y", "coeffs": [2, 0]}]
        tiny_demand = {"arcs": linear, "groups": [
            {"id": "od", "paths": [["x"], ["y"]], "users": [{"demand": e400}]}]}
        paths = {
            "tiny_demand": write_family(tmp_path, "tiny_demand.json", tiny_demand),
            "tiny_optimum": write_family(tmp_path, "tiny_optimum.json", {
                "arcs": [{"id": "a", "coeffs": [1, 0, 0]}, {"id": "b", "coeffs": [1, 0, 0]}],
                "groups": [{"id": "od", "paths": [["a"], ["b"]],
                            "users": [{"demand": e200}] * 2}]}),
            "even": write_family(tmp_path, "even.json", [[[0.5, 0.5], [0.5, 0.5]]]),
            "tiny_family": write_family(tmp_path, "tiny_family.json", dict(
                tiny_demand, demand_laws={"od": {"c": e400, "gamma": 1, "user_demand": e400}})),
        }
        out = tmp_path / "out"
        assert main([*(a.format(**paths) for a in args), "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().out.splitlines() == [
            f"[FAIL] {args[0]}: costs outside the float range: {detail}"]
        doc = json.loads((out / "report.json").read_text())
        assert doc["exit_code"] == EXIT_INPUT
        assert [v["passed"] for v in doc["verdicts"]] == [False]

    def test_largest_seed_runs_on_every_seeded_path(self, tmp_path, monkeypatch):
        family = write_family(tmp_path, "family.json", UNIT_USER_FAMILY)
        game = str(asset_path("parallel_quadratic_constant.json"))
        assert main(["sample", "--game", game, "--n", "100", "--seed", LARGEST_SEED,
                     "--out", str(tmp_path / "sample")]) == EXIT_OK
        monkeypatch.setenv("POAKIT_BUDGET", "1")  # every grid point takes the restarts
        assert main(["decompose", "--family", family, "--grid", "2,3", "--seed", LARGEST_SEED,
                     "--out", str(tmp_path / "decompose")]) == EXIT_OK

    def test_stranded_flow_solve_exits_four(self, tmp_path, capsys):
        out = tmp_path / "out"
        game = write_family(tmp_path, "game.json", STRANDED_FLOW_GAME)
        assert main(["solve", "--game", game, "--out", str(out)]) == EXIT_NONCONVERGED
        assert capsys.readouterr().out.splitlines() == [
            "[FAIL] solve: nonatomic-so did not converge (iterations 1, residual 0): "
            "flow stranded below the used threshold on a costlier path"]
        doc = json.loads((out / "report.json").read_text())
        assert doc["exit_code"] == EXIT_NONCONVERGED

    @pytest.mark.parametrize("mode", ["solve", "sample", "decompose"])
    def test_unconverged_nonatomic_solve_exits_four(self, tmp_path, monkeypatch, mode):
        import poakit.poa

        solve = poakit.poa.solve_nonatomic_ne

        def unconverged(game, config):
            result = solve(game, config)
            result.converged = False
            return result

        monkeypatch.setattr(poakit.poa, "solve_nonatomic_ne", unconverged)
        monkeypatch.setattr(solvers, "solve_nonatomic_ne", unconverged)
        out = tmp_path / "out"
        game = str(asset_path("two_commodity_mixed_degree.json"))
        profile = write_family(tmp_path, "profile.json", [[[0.5, 0.5]] * 2] * 2)
        args = {"solve": ["--game", game],
                "sample": ["--game", game, "--profile", profile, "--n", "1000"],
                "decompose": ["--family", write_family(tmp_path, "family.json", UNIT_USER_FAMILY),
                              "--grid", "1,2"]}[mode]
        assert main([mode, *args, "--out", str(out)]) == EXIT_NONCONVERGED
        doc = json.loads((out / "report.json").read_text())
        assert doc["exit_code"] == EXIT_NONCONVERGED
        assert [v["passed"] for v in doc["verdicts"]] == [False]

    def test_unconverged_mixed_solve_exits_four(self, tmp_path, monkeypatch, capsys):
        import poakit.runner

        solve = poakit.runner.solve_mixed_ne_small

        def unconverged(game, config):
            result = solve(game, config)
            result.converged = False
            return result

        monkeypatch.setattr(poakit.runner, "solve_mixed_ne_small", unconverged)
        out = tmp_path / "out"
        game = str(asset_path("parallel_linear_double.json"))
        assert main(["sample", "--game", game, "--out", str(out)]) == EXIT_NONCONVERGED
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("[FAIL] mixed-ne")
        doc = json.loads((out / "report.json").read_text())
        assert doc["exit_code"] == EXIT_NONCONVERGED

    @pytest.mark.parametrize("mode", ["solve", "sample", "reproduce"])
    def test_unwritable_out_exits_three_before_any_work(self, tmp_path, monkeypatch, capsys,
                                                        mode):
        monkeypatch.setattr(f"poakit.cli.run_{mode}", lambda config: pytest.fail("work ran"))
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        args = [] if mode == "reproduce" else [
            "--game", str(asset_path("parallel_linear_double.json"))]
        assert main([mode, *args, "--out", str(blocker / "out")]) == EXIT_INPUT
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("[FAIL] out: ")

    @pytest.mark.parametrize("env", [{"POAKIT_BUDGET": "1"}, {"POAKIT_TOLERANCE": "1e6"}],
                             ids=["budget-1", "tolerance-1e6"])
    @pytest.mark.parametrize("mode", ["solve", "sweep", "sample", "decompose", "reproduce"])
    def test_loose_settings_end_in_a_documented_code(self, tmp_path, env, mode):
        # A fresh process, so that any exception that escapes shows as a traceback.
        import poakit

        game = str(asset_path("parallel_linear_double.json"))
        family = write_family(tmp_path, "family.json", UNIT_USER_FAMILY)
        args = {"solve": ["--game", game], "sweep": ["--family", family, "--grid", "1,2"],
                "sample": ["--game", game, "--n", "100"],
                "decompose": ["--family", family, "--grid", "1,2"], "reproduce": []}[mode]
        out = tmp_path / "out"
        run = subprocess.run(
            [sys.executable, "-m", "poakit.cli", mode, *args, "--out", str(out)],
            capture_output=True, text=True,
            env={**os.environ, **env, "PYTHONPATH": str(Path(poakit.__file__).parent.parent)})
        assert "Traceback" not in run.stderr
        assert run.returncode in (EXIT_OK, EXIT_ASSERTION, EXIT_INPUT, EXIT_NONCONVERGED)
        doc = json.loads((out / "report.json").read_text())
        assert doc["exit_code"] == run.returncode
        if mode == "reproduce":  # the budget refuses every check's scan
            assert run.returncode == (EXIT_INPUT if "POAKIT_BUDGET" in env else EXIT_ASSERTION)
            assert len(doc["verdicts"]) == 4

    def test_env_overrides(self, tmp_path, monkeypatch):
        monkeypatch.setenv("POAKIT_BUDGET", "1")
        from conftest import affine_offset_game
        from poakit import dump_game
        path = write_family(tmp_path, "g.json", dump_game(affine_offset_game(2)))
        code = main(["solve", "--game", path])
        assert code == EXIT_OK  # budget fallback keeps solve alive with statuses


_DELETE = object()
_DUPLICATE = object()

# Values of the wrong shape for any field.  Magnitudes stay small so that
# every run stays small.
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3),
    st.sampled_from([0.0, -1.5, 0.5, 2.5, float("inf"), float("nan")]),
    st.text(alphabet="1/-x ", max_size=3), st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.sampled_from(["id", "c", "gamma"]), st.integers(0, 2), max_size=2),
    st.just(_DELETE))

# Environment values: unset, unparsable, out of range, or odd but accepted.
ENV = st.one_of(st.none(), st.sampled_from(["", "abc", "0", "-1", "1.5", "nan", "inf",
                                            "0.5", "1", "1e9", " 7 "]),
                st.text(alphabet="0123456789.-e", max_size=4))


def _node_paths(doc, path=()):
    """The key path of every node of a JSON document, the root included."""
    yield path
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from _node_paths(value, path + (key,))


def _node(doc, path):
    """The node of a JSON document at a key path."""
    for key in path:
        doc = doc[key]
    return doc


def _mutated(doc, path, value):
    """A copy of ``doc`` with the node at ``path`` replaced by ``value``, or
    deleted, or (``_DUPLICATE``, a list item) repeated."""
    if not path:
        return None if value is _DELETE else value
    doc = copy.deepcopy(doc)
    parent = _node(doc, path[:-1])
    if value is _DELETE:
        del parent[path[-1]]
    elif value is _DUPLICATE:
        parent.insert(path[-1], copy.deepcopy(parent[path[-1]]))
    else:
        parent[path[-1]] = value
    return doc


class TestCliProperty:
    GAME = json.loads(asset_path("parallel_linear_double.json").read_text(encoding="utf-8"))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_input_ends_in_a_documented_code_with_report(self, data):
        mode = data.draw(st.sampled_from(["solve", "sample", "sweep", "decompose"]))
        base = self.GAME if mode in ("solve", "sample") else OFFSET_UNIT_FAMILY
        path = data.draw(st.sampled_from(list(_node_paths(base))))
        in_list = path and isinstance(_node(base, path[:-1]), list)
        doc = _mutated(base, path, data.draw(st.one_of(JUNK, st.just(_DUPLICATE))
                                             if in_list else JUNK))
        env = {name: data.draw(ENV, label=name)
               for name in ("POAKIT_TOLERANCE", "POAKIT_BUDGET")}
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            for name, value in env.items():
                if value is None:
                    mp.delenv(name, raising=False)
                else:
                    mp.setenv(name, value)
            document = Path(tmp) / "doc.json"
            document.write_text(json.dumps(doc), encoding="utf-8")
            out = Path(tmp) / "out"
            args = {"solve": ["--game", str(document)],
                    "sample": ["--game", str(document), "--n", "100"],
                    "sweep": ["--family", str(document), "--grid", "1,2"],
                    "decompose": ["--family", str(document), "--grid", "1,2"]}[mode]
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                code = main([mode, *args, "--out", str(out)])
            assert code in (EXIT_OK, EXIT_ASSERTION, EXIT_INPUT, EXIT_NONCONVERGED)
            assert json.loads((out / "report.json").read_text())["exit_code"] == code
            assert all(line.startswith(("[PASS] ", "[FAIL] "))
                       for line in stdout.getvalue().splitlines())

    PROFILE = [[[0.0, 1.0], [0.5, 0.5]]]  # for GAME: one group, two users, two paths

    @settings(max_examples=300, deadline=None)
    @given(path=st.sampled_from(list(_node_paths(PROFILE))),
           value=st.one_of(JUNK, st.sampled_from([-1e-13, 1e308, _DUPLICATE])))
    @example(path=(0, 0, 0), value=-1e-13)  # a negative entry in a row summing to 1 - 1e-13
    def test_any_profile_ends_in_a_documented_code_with_report(self, path, value):
        assume(path or value is not _DUPLICATE)  # the root is no list item
        with tempfile.TemporaryDirectory() as tmp:
            game = Path(tmp) / "game.json"
            game.write_text(json.dumps(self.GAME), encoding="utf-8")
            profile = Path(tmp) / "profile.json"
            profile.write_text(json.dumps(_mutated(self.PROFILE, path, value)),
                               encoding="utf-8")
            out = Path(tmp) / "out"
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                code = main(["sample", "--game", str(game), "--profile", str(profile),
                             "--n", "100", "--out", str(out)])
            assert code in (EXIT_OK, EXIT_ASSERTION, EXIT_INPUT, EXIT_NONCONVERGED)
            assert json.loads((out / "report.json").read_text())["exit_code"] == code
            assert all(line.startswith(("[PASS] ", "[FAIL] "))
                       for line in stdout.getvalue().splitlines())
            if code == EXIT_OK:
                rows = (out / "distribution.csv").read_text(encoding="utf-8").splitlines()
                exact = [float(row.split(",")[1]) for row in rows if ",exact," in row]
                assert exact and all(0 <= p <= 1 for p in exact)

    # Demand scales far from 1, each drawn for the law's c, gamma and user
    # granularity: instances too large, costs past the float range, or fine.
    SCALE = st.sampled_from([1e-300, 1e-30, 1, 3.5, 1e30, 1e300])
    GROWTH = st.sampled_from([0, 1e-300, 0.5, 1, 2, 30, 1e300])

    @settings(max_examples=60, deadline=5000)
    @given(mode=st.sampled_from(["sweep", "decompose"]), c=SCALE, gamma=GROWTH,
           granularity=st.one_of(st.builds(lambda v: {"user_demand": v}, SCALE),
                                 st.builds(lambda c, g: {"user_count": {"c": c, "gamma": g}},
                                           SCALE, GROWTH)))
    def test_any_demand_scale_ends_in_a_documented_code_with_report(self, mode, c, gamma,
                                                                     granularity):
        law = {"c": c, "gamma": gamma, **granularity}
        with tempfile.TemporaryDirectory() as tmp:
            document = Path(tmp) / "family.json"
            document.write_text(json.dumps(dict(OFFSET_UNIT_FAMILY, demand_laws={"od": law})),
                                encoding="utf-8")
            out = Path(tmp) / "out"
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                code = main([mode, "--family", str(document), "--grid", "1,2",
                             "--out", str(out)])
            assert code in (EXIT_OK, EXIT_ASSERTION, EXIT_INPUT, EXIT_NONCONVERGED)
            assert json.loads((out / "report.json").read_text())["exit_code"] == code
            assert all(line.startswith(("[PASS] ", "[FAIL] "))
                       for line in stdout.getvalue().splitlines())


class TestBenchmarkTracer:
    def test_every_wrapped_name_resolves(self, monkeypatch):
        # bench/run.py --trace 1 wraps these names, found with getattr, in
        # every poakit module that binds them; a deleted one breaks the trace.
        import importlib

        import poakit
        from poakit.bounds import BoundInputs

        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        from tracing import Tracer

        tracer = Tracer()
        homes = {(home, name) for home, name, *_ in tracer.specs()}
        originals = {key: getattr(importlib.import_module(f"poakit.{key[0]}"), key[1], None)
                     for key in homes}
        assert [key for key, fn in originals.items() if not callable(fn)] == []
        from_game = vars(BoundInputs)["from_game"]
        tracer.install(poakit)
        try:
            for (home, name), fn in originals.items():
                assert getattr(importlib.import_module(f"poakit.{home}"), name) is not fn
        finally:
            tracer.uninstall()
        for (home, name), fn in originals.items():
            assert getattr(importlib.import_module(f"poakit.{home}"), name) is fn
        assert vars(BoundInputs)["from_game"] is from_game

    def test_a_traced_run_counts_every_layer(self, monkeypatch, tmp_path):
        # The tracer's hooks read .samples, .states_scanned, .iterations and
        # .kind from what the wrapped functions return; a renamed field would
        # end bench/run.py --trace 1 in an AttributeError or count nothing.
        import poakit

        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        from tracing import Tracer

        game = str(asset_path("parallel_linear_double.json"))  # two users
        family = write_family(tmp_path, "family.json", OFFSET_UNIT_FAMILY)
        runs = {"solve": ["--game", game], "sample": ["--game", game, "--n", "100"],
                "sweep": ["--family", family, "--grid", "10,100"],
                "decompose": ["--family", family, "--grid", "1,2"]}
        tracer = Tracer()
        tracer.install(poakit)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [main([mode, *args, "--out", str(tmp_path / mode)])
                         for mode, args in runs.items()]
        finally:
            tracer.uninstall()
        assert codes == [EXIT_OK] * 4
        counts = tracer.values
        assert counts["poa.samples"] == 100
        assert counts["game.uniforms_drawn"] == 200
        assert counts["poa.exact_support"] > 0
        assert counts["solvers.enumerate_states"] > 0
        assert counts["solvers.nonatomic_calls"] > 0 and counts["solvers.nonatomic_moves"] > 0
        assert counts["solvers.mixed_ne_calls"] > 0 and counts["solvers.mixed_ne_sweeps"] > 0
        assert counts["bounds.calls"] > 0
        assert counts["runner.csv_bytes"] > 0
        assert all(counts[span] > 0 for span in ("runner.solve_s", "runner.sample_s",
                                                 "runner.sweep_s", "runner.decompose_s"))
