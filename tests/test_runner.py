"""End-to-end runs: solve, sweep, sample, reproduce, decompose, CLI."""

import contextlib
import copy
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    # Past the scale bounds: 2e300 users, a demand of 2^1e300, costs of 1e-600.
    "tiny_user_demand": dict(UNIT_USER_FAMILY,
                             demand_laws={"od": {"c": 1, "gamma": 1, "user_demand": 1e-300}}),
    "huge_gamma": dict(UNIT_USER_FAMILY,
                       demand_laws={"od": {"c": 1, "gamma": 1e300, "user_demand": 1}}),
    "tiny_c": dict(UNIT_USER_FAMILY,
                   demand_laws={"od": {"c": 1e-300, "gamma": 1, "user_demand": 1}}),
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
}

# Profiles for parallel_linear_double.json (one group, two users, two
# paths) with a row that sums to 1 but holds a NaN or booleans.
BAD_PROFILES = {
    "nan_profile": [[[math.nan, 1.0], [0.5, 0.5]]],
    "bool_profile": [[[True, False], [0.5, 0.5]]],
}

# The non-atomic line search leaves about 0.009 units on l, below the used
# threshold, carrying nearly all of the total cost (8e245 against 4e20).
STRANDED_FLOW_GAME = {
    "arcs": [{"id": "u", "coeffs": [1, 0]}, {"id": "l", "coeffs": [1e250, 1]}],
    "groups": [{"id": "od", "paths": [["u"], ["l"]], "users": [{"demand": 1e10}] * 2}],
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
        config = ExperimentConfig(mode="solve", game_path=game_path,
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
        config = ExperimentConfig(mode="solve", game_path=str(tmp_path / "nope.json"))
        assert run_solve(config).exit_code == EXIT_INPUT

    def test_schema_error_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"arcs": [], "groups": []}), encoding="utf-8")
        config = ExperimentConfig(mode="solve", game_path=str(bad))
        assert run_solve(config).exit_code == EXIT_INPUT

    def test_weighted_game_without_equilibrium_reported(self, tmp_path):
        from conftest import no_equilibrium_game
        from poakit import dump_game
        doc = dump_game(no_equilibrium_game())
        path = write_family(tmp_path, "noeq.json", doc)
        report = run_solve(ExperimentConfig(mode="solve", game_path=path))
        row = report.rows[0]
        assert row["atomic_poa"] is None
        assert "no atomic equilibrium" in row["atomic_status"]

    def test_minimal_single_path_game_all_ratios_one(self, tmp_path):
        doc = {"arcs": [{"id": "a", "coeffs": [1, 0]}],
               "groups": [{"id": "g", "paths": [["a"]], "users": [{"demand": 1}]}]}
        path = write_family(tmp_path, "one.json", doc)
        report = run_solve(ExperimentConfig(mode="solve", game_path=path))
        row = report.rows[0]
        assert row["atomic_poa"] == 1
        assert row["nonatomic_poa"] == pytest.approx(1.0, abs=1e-10)
        assert row["mixed_poa"] == pytest.approx(1.0, abs=1e-10)


class TestSweep:
    def test_fixed_total_demand_family_stays_at_eight_sevenths(self, tmp_path):
        path = write_family(tmp_path, "fam.json", AFFINE_OFFSET_FAMILY)
        config = ExperimentConfig(mode="sweep", family_path=path, grid=[1, 3, 9],
                                  out_dir=str(tmp_path / "out"))
        report = run_sweep(config)
        assert report.exit_code == EXIT_OK
        values = [row["poa_measured"] for row in report.rows]
        assert values == pytest.approx([8 / 7] * 3)
        # non-convergence is reported, never asserted away
        assert any(name == "decay" for name, _, _ in report.verdicts)

    def test_fixed_share_family_stays_at_four_thirds(self, tmp_path):
        path = write_family(tmp_path, "fam.json", LINEAR_DOUBLE_FAMILY)
        config = ExperimentConfig(mode="sweep", family_path=path, grid=[1, 2, 4])
        report = run_sweep(config)
        assert report.exit_code == EXIT_OK
        values = [row["poa_measured"] for row in report.rows]
        assert values == pytest.approx([4 / 3] * 3)

    def test_unit_user_family_decays(self, tmp_path):
        path = write_family(tmp_path, "fam.json", OFFSET_UNIT_FAMILY)
        config = ExperimentConfig(mode="sweep", family_path=path,
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
        config = ExperimentConfig(mode="sweep", family_path=str(tmp_path / "no.json"),
                                  grid=[1, 2])
        assert run_sweep(config).exit_code == EXIT_INPUT

    def test_empty_grid_is_input_error_with_report(self, tmp_path):
        path = write_family(tmp_path, "fam.json", UNIT_USER_FAMILY)
        out = tmp_path / "out"
        report = run_sweep(ExperimentConfig(mode="sweep", family_path=path, grid=[],
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
        config = ExperimentConfig(mode="sample", game_path=game_path, n_samples=50_000,
                                  seed=7, out_dir=str(tmp_path / "out"))
        report = run_sample(config)
        assert report.exit_code == EXIT_OK
        row = report.rows[0]
        assert row["exact_mean"] == pytest.approx(5 - 2.5 * math.sqrt(2), abs=1e-9)
        se = 1.5 / math.sqrt(50_000)
        assert abs(row["empirical_mean"] - row["exact_mean"]) <= 3 * se
        csv_text = (tmp_path / "out" / "distribution.csv").read_text(encoding="utf-8")
        assert "exact" in csv_text and "monte-carlo" in csv_text

    def test_profile_document_accepted(self, tmp_path):
        game_path = str(asset_path("parallel_quadratic_constant.json"))
        profile = [[[0.25, 0.75], [0.25, 0.75]]]
        ppath = tmp_path / "profile.json"
        ppath.write_text(json.dumps(profile), encoding="utf-8")
        config = ExperimentConfig(mode="sample", game_path=game_path,
                                  profile_path=str(ppath), n_samples=1000, seed=1)
        report = run_sample(config)
        assert report.exit_code == EXIT_OK


class TestReproduce:
    def test_full_pass(self):
        report = run_reproduce(ExperimentConfig(mode="reproduce"))
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
        report = run_reproduce(ExperimentConfig(mode="reproduce"))
        assert report.exit_code == EXIT_ASSERTION
        failed = {name for name, ok, _ in report.verdicts if not ok}
        assert failed == {"parallel_affine_offset"}

    def test_missing_asset_reported(self, tmp_path, monkeypatch):
        monkeypatch.setattr("poakit.runner.asset_path", lambda name: tmp_path / name)
        report = run_reproduce(ExperimentConfig(mode="reproduce"))
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
        config = ExperimentConfig(mode="decompose", family_path=path, grid=[100, 1000],
                                  out_dir=str(tmp_path / "out"))
        report = run_decompose(config)
        assert report.exit_code == EXIT_OK
        assert (tmp_path / "out" / "decompose.csv").exists()


class TestDeterminism:
    def test_sweep_csv_byte_identical(self, tmp_path):
        path = write_family(tmp_path, "fam.json", UNIT_USER_FAMILY)
        texts = []
        for run in ("a", "b"):
            out = tmp_path / run
            config = ExperimentConfig(mode="sweep", family_path=path, grid=[5, 25],
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
        run_sweep(ExperimentConfig(mode="sweep", family_path=path, grid=[5], seed=9,
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

    def test_cli_import_leaves_numpy_unloaded(self):
        # numpy is imported where samples are drawn, not on every start.
        import poakit

        code = "import sys, poakit.cli; sys.exit('numpy' in sys.modules)"
        src = str(Path(poakit.__file__).resolve().parent.parent)
        assert subprocess.run([sys.executable, "-c", code], cwd=src).returncode == 0

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
        ({}, ["sweep", "--family", "{family}", "--grid", "0,5"]),
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
    ], ids=["tolerance-text", "budget-fraction", "tolerance-negative", "zero-samples",
            "negative-seed", "sample-seed-past-range", "solve-negative-seed",
            "sweep-negative-seed", "decompose-fallback-negative-seed",
            "decompose-fallback-seed-past-key-range", "missing-profile", "flat-profile",
            "solve-directory", "sample-directory", "sweep-directory", "decompose-directory",
            "solve-not-utf8", "sample-not-utf8", "groups-item", "paths-number", "arcs-item",
            "laws-list", "user-count-number", "gamma-null", "sweep-grid-zero",
            "tolerance-nan", "tolerance-inf", "grid-decreasing", "grid-not-integers",
            "missing-game", "samples-not-integer", "sweep-tiny-user-demand",
            "decompose-tiny-user-demand", "sweep-huge-gamma", "decompose-huge-gamma",
            "sweep-tiny-c", "decompose-tiny-c", "sweep-huge-costs", "decompose-huge-costs",
            "solve-huge-demands", "sample-huge-demands", "solve-steep-arc",
            "sample-steep-arc", "nan-probability", "boolean-probability"])
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
                         directory=str(tmp_path), binary=str(binary), **paths)
                for a in args]
        argv += ["--out", str(out)]
        assert main(argv) == EXIT_INPUT
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("[FAIL] ")
        if any(f"{{{name}}}" in args for name in FLOAT_RANGE):
            assert "costs outside the float range" in lines[0]
        if any(f"{{{name}}}" in args for name in BAD_PROFILES):
            assert lines[0].startswith("[FAIL] profile: ")
        if "--seed" in args:
            assert lines[0].startswith("[FAIL] seed: seed must be in 0 .. 2**64 - 1")
        doc = json.loads((out / "report.json").read_text())
        assert doc["exit_code"] == EXIT_INPUT
        assert [v["passed"] for v in doc["verdicts"]] == [False]

    def test_failed_validation_exits_two_with_report(self, tmp_path, monkeypatch, capsys):
        # A tolerance of 0.5 leaves the non-atomic optimum above the atomic one.
        monkeypatch.setenv("POAKIT_TOLERANCE", "0.5")
        out = tmp_path / "out"
        game = str(asset_path("parallel_affine_offset.json"))
        assert main(["solve", "--game", game, "--out", str(out)]) == EXIT_ASSERTION
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["[FAIL] validate: atomic optimum cheaper than non-atomic optimum"]
        doc = json.loads((out / "report.json").read_text())
        assert doc["exit_code"] == EXIT_ASSERTION
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
            "[FAIL] solve: non-atomic solver did not converge within budget"]
        doc = json.loads((out / "report.json").read_text())
        assert doc["exit_code"] == EXIT_NONCONVERGED

    @pytest.mark.parametrize("mode", ["solve", "sample", "decompose"])
    def test_unconverged_nonatomic_solve_exits_four(self, tmp_path, monkeypatch, mode):
        import poakit.decomposition
        import poakit.poa

        solve = poakit.poa.solve_nonatomic_ne

        def unconverged(game, config):
            result = solve(game, config)
            result.converged = False
            return result

        monkeypatch.setattr(poakit.poa, "solve_nonatomic_ne", unconverged)
        monkeypatch.setattr(poakit.decomposition, "solve_nonatomic_ne", unconverged)
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

    def test_env_overrides(self, tmp_path, monkeypatch):
        monkeypatch.setenv("POAKIT_BUDGET", "1")
        from conftest import affine_offset_game
        from poakit import dump_game
        path = write_family(tmp_path, "g.json", dump_game(affine_offset_game(2)))
        code = main(["solve", "--game", path])
        assert code == EXIT_OK  # budget fallback keeps solve alive with statuses


_DELETE = object()

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


def _mutated(doc, path, value):
    """A copy of ``doc`` with the node at ``path`` replaced by ``value``, or deleted."""
    if not path:
        return None if value is _DELETE else value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


class TestCliProperty:
    GAME = json.loads(asset_path("parallel_linear_double.json").read_text(encoding="utf-8"))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_any_input_ends_in_a_documented_code_with_report(self, data):
        mode = data.draw(st.sampled_from(["solve", "sample", "sweep", "decompose"]))
        base = self.GAME if mode in ("solve", "sample") else OFFSET_UNIT_FAMILY
        path = data.draw(st.sampled_from(list(_node_paths(base))))
        doc = _mutated(base, path, data.draw(JUNK))
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
