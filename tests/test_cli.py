"""Command line behavior: every subcommand, exit codes, file round-trips."""

import csv
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ratecraft
from ratecraft import (
    MatchProfile,
    QuestionBank,
    QuestionDistribution,
    load_design,
    save_design,
)
from ratecraft.cli import main
from ratecraft.responses import (
    estimate_known,
    estimate_unknown,
    read_qualities_csv,
    read_ratings_csv,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture()
def design_file(tmp_path, capsys):
    out = tmp_path / "design.json"
    code, _, err = run(
        capsys, "optimize-beta", "--M", "4", "--grid", "200", "--out", str(out)
    )
    assert code == 0, err
    return out


@pytest.fixture()
def bank_file(tmp_path, threshold_bank):
    path = tmp_path / "psi.csv"
    threshold_bank.to_csv(path)
    return path


class TestOptimizeBeta:
    def test_solves_and_reports(self, tmp_path, capsys):
        out = tmp_path / "d.json"
        code, stdout, _ = run(
            capsys, "optimize-beta", "--M", "3", "--grid", "120", "--out", str(out)
        )
        assert code == 0
        assert "rate=" in stdout and "residual=" in stdout
        design = load_design(out)
        assert design["beta"].M == 3
        assert design["w_kind"] == "kendall"
        assert design["rate"] == pytest.approx(np.log(2.0), abs=1e-6)

    def test_design_file_round_trips_bit_for_bit(self, design_file, tmp_path):
        design = load_design(design_file)
        copy = tmp_path / "copy.json"
        save_design(
            copy,
            design["beta"],
            design["g"],
            design["w_kind"],
            design["rate"],
            design["residual"],
        )
        assert copy.read_bytes() == design_file.read_bytes()

    def test_linear_matching_and_weights(self, tmp_path, capsys):
        out = tmp_path / "d.json"
        code, _, _ = run(
            capsys, "optimize-beta", "--M", "4", "--g", "linear", "--w", "bottom",
            "--grid", "150", "--out", str(out),
        )
        assert code == 0
        design = load_design(out)
        assert design["g"].kind == "linear"
        assert design["w_kind"] == "bottom"

    def test_converts_each_design_vector_once(self, tmp_path, capsys):
        """Count the np.array, np.asarray and np.fromiter calls made from
        the package that convert the breakpoints, the levels or the
        matching intensities, each told apart by a local of the calling
        frame that equals the vector or holds it as a field."""
        package = str(Path(ratecraft.__file__).parent)
        converters = (np.array, np.asarray, np.fromiter)
        frames = []

        def profile(frame, event, arg):
            if event == "c_call" and any(arg is f for f in converters):
                if frame.f_code.co_filename.startswith(package):
                    frames.append(dict(frame.f_locals))

        out = tmp_path / "d.json"
        sys.setprofile(profile)
        try:
            code = main(["optimize-beta", "--M", "200", "--g", "linear", "--out", str(out)])
        finally:
            sys.setprofile(None)
        assert code == 0
        design = load_design(out)
        vectors = {"s": design["beta"].s, "t": design["beta"].t, "values": design["g"].values}

        def holds(value, name):
            if isinstance(value, (tuple, list)):
                return tuple(value) == vectors[name]
            return getattr(value, name, None) == vectors[name]

        counts = {name: sum(any(holds(v, name) for v in local.values()) for local in frames)
                  for name in vectors}
        assert counts == {"s": 1, "t": 1, "values": 1}

    def test_iteration_cap_is_solver_failure(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "optimize-beta", "--M", "40", "--g", "linear",
            "--max-outer", "1", "--out", str(tmp_path / "d.json"),
        )
        assert code == 2
        assert "solver failed" in err

    def test_bad_M_is_input_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "optimize-beta", "--M", "0", "--out", str(tmp_path / "d.json")
        )
        assert code == 1
        assert "error" in err

    def test_unknown_flag_is_input_error(self, tmp_path, capsys):
        code, _, _ = run(capsys, "optimize-beta", "--nope", "1")
        assert code == 1

    def test_unknown_command_is_input_error(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1


class TestRate:
    def test_reports_adjacent_pairs(self, design_file, capsys):
        code, stdout, _ = run(capsys, "rate", "--design", str(design_file))
        assert code == 0
        lines = stdout.strip().split("\n")
        assert lines[0] == "pair,t_lo,t_hi,g_lo,g_hi,rate"
        assert len(lines) == 1 + 3 + 3  # M-1 pairs, three summary lines
        assert lines[-1] == "equalized true"
        overall = float(lines[-3].split()[1])
        pair_rates = [float(line.split(",")[-1]) for line in lines[1:4]]
        assert overall == pytest.approx(min(pair_rates))

    def test_matching_override_changes_rates(self, design_file, capsys):
        _, plain, _ = run(capsys, "rate", "--design", str(design_file))
        code, linear, _ = run(
            capsys, "rate", "--design", str(design_file), "--g", "linear"
        )
        assert code == 0
        assert linear != plain
        assert "equalized false" in linear

    def test_missing_design_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "rate", "--design", str(tmp_path / "no.json"))
        assert code == 1

    def test_nan_breakpoint_is_input_error(self, design_file, tmp_path, capsys):
        payload = json.loads(design_file.read_text())
        payload["s"][1] = math.nan
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(payload))  # json writes the token NaN
        code, _, err = run(capsys, "rate", "--design", str(bad))
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_non_list_levels_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "scalar.json"
        bad.write_text(json.dumps({"t": 5, "s": 3, "M": 1}))
        code, _, err = run(capsys, "rate", "--design", str(bad))
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "list of numbers" in err


class TestDouble:
    def test_doubles_level_count(self, design_file, tmp_path, capsys):
        out = tmp_path / "d7.json"
        code, stdout, _ = run(
            capsys, "double", "--design", str(design_file), "--out", str(out)
        )
        assert code == 0
        refined = load_design(out)
        assert refined["beta"].M == 7
        base = load_design(design_file)
        # rate roughly quarters with each doubling
        assert refined["rate"] / base["rate"] == pytest.approx(0.24, abs=0.04)

    def test_repeated_doubling(self, design_file, tmp_path, capsys):
        out = tmp_path / "d13.json"
        code, _, _ = run(
            capsys, "double", "--design", str(design_file), "--times", "2",
            "--out", str(out),
        )
        assert code == 0
        assert load_design(out)["beta"].M == 13

    def test_rejects_varying_matching(self, tmp_path, capsys):
        src = tmp_path / "lin.json"
        run(capsys, "optimize-beta", "--M", "3", "--g", "linear", "--grid", "120",
            "--out", str(src))
        code, _, err = run(
            capsys, "double", "--design", str(src), "--out", str(tmp_path / "o.json")
        )
        assert code == 1
        assert "constant matching" in err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("times", ["0", "-1"])
    def test_rejects_times_below_one(self, design_file, tmp_path, capsys, times):
        out = tmp_path / "o.json"
        code, _, err = run(
            capsys, "double", "--design", str(design_file), "--times", times, "--out", str(out)
        )
        assert code == 1
        assert err == f"error: --times must be an integer of at least 1, got {times}\n"
        assert not out.exists()

    def test_unknown_weight_kind_is_input_error(self, design_file, tmp_path, capsys):
        payload = json.loads(design_file.read_text())
        payload["w"]["kind"] = "bogus"
        bad = tmp_path / "bogus.json"
        bad.write_text(json.dumps(payload))
        out = tmp_path / "o.json"
        code, _, err = run(capsys, "double", "--design", str(bad), "--out", str(out))
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "weight kind" in err
        assert not out.exists()


class TestPartition:
    def test_kendall_breakpoints_equispaced(self, tmp_path, capsys):
        out = tmp_path / "part.csv"
        code, stdout, _ = run(
            capsys, "partition", "--w", "kendall", "--M", "4", "--grid", "200",
            "--out", str(out),
        )
        assert code == 0
        assert "asymptotic_value=0.75" in stdout
        rows = read_rows(out)
        assert rows[0] == ["index", "breakpoint"]
        breaks = [float(r[1]) for r in rows[1:]]
        assert breaks == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0], abs=1 / 200)

    def test_grid_too_small_is_input_error(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "partition", "--w", "kendall", "--M", "50", "--grid", "10",
            "--method", "dp", "--out", str(tmp_path / "p.csv"),
        )
        assert code == 1

    def test_grid_above_limit_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        code, _, err = run(
            capsys, "partition", "--w", "bottom", "--M", "3", "--grid", "5000",
            "--out", str(out),
        )
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "4096" in err
        assert not out.exists()


class TestFitH:
    def test_threshold_bank_fits_exactly(self, tmp_path, bank_file,
                                         quartile_beta, capsys):
        target = tmp_path / "target.json"
        save_design(target, quartile_beta, MatchProfile.uniform(4), "kendall")
        out = tmp_path / "h.json"
        code, stdout, _ = run(
            capsys, "fit-h", "--beta", str(target), "--psi", str(bank_file),
            "--out", str(out),
        )
        assert code == 0
        assert "objective=" in stdout
        h = QuestionDistribution.from_json(out)
        assert h.probabilities == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-9)

    def test_single_question_constraint(self, tmp_path, bank_file,
                                        quartile_beta, capsys):
        target = tmp_path / "target.json"
        save_design(target, quartile_beta, MatchProfile.uniform(4), "kendall")
        out = tmp_path / "h1.json"
        code, _, _ = run(
            capsys, "fit-h", "--beta", str(target), "--psi", str(bank_file),
            "--constraint", "single_question", "--out", str(out),
        )
        assert code == 0
        h = QuestionDistribution.from_json(out)
        assert sorted(h.probabilities) == pytest.approx([0.0, 0.0, 1.0])

    def test_missing_table_is_input_error(self, tmp_path, quartile_beta, capsys):
        target = tmp_path / "target.json"
        save_design(target, quartile_beta, MatchProfile.uniform(4), "kendall")
        code, _, err = run(
            capsys, "fit-h", "--beta", str(target), "--psi",
            str(tmp_path / "no.csv"), "--out", str(tmp_path / "h.json"),
        )
        assert code == 1
        assert "cannot read" in err

    @pytest.mark.parametrize("row", ["nan,q,0.5", "0.5,q,nan"])
    def test_non_finite_psi_row_is_input_error(self, tmp_path, quartile_beta,
                                               row, capsys):
        target = tmp_path / "target.json"
        save_design(target, quartile_beta, MatchProfile.uniform(4), "kendall")
        psi = tmp_path / "psi.csv"
        psi.write_text(f"theta,question,psi\n0.25,q,0.2\n{row}\n0.75,q,0.9\n")
        out = tmp_path / "h.json"
        code, _, err = run(
            capsys, "fit-h", "--beta", str(target), "--psi", str(psi),
            "--out", str(out),
        )
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()


    @pytest.mark.parametrize("row", ["0.5,grade_1", "0.5,q,0.5,7"])
    def test_wrong_field_count_is_input_error(self, tmp_path, quartile_beta,
                                              row, capsys):
        target = tmp_path / "target.json"
        save_design(target, quartile_beta, MatchProfile.uniform(4), "kendall")
        psi = tmp_path / "psi.csv"
        psi.write_text(f"theta,question,psi\n0.25,q,0.2\n{row}\n0.75,q,0.9\n")
        out = tmp_path / "h.json"
        code, _, err = run(
            capsys, "fit-h", "--beta", str(target), "--psi", str(psi),
            "--out", str(out),
        )
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert ":3:" in err
        assert not out.exists()


class TestEstimatePsi:
    @pytest.fixture()
    def ratings_file(self, tmp_path):
        path = tmp_path / "ratings.csv"
        rows = [["item_id", "question", "response"]]
        rng = np.random.default_rng(5)
        for item, theta in (("a", 0.2), ("b", 0.8)):
            for q, power in (("root", 0.5), ("plain", 1.0)):
                for _ in range(40):
                    rows.append([item, q, str(int(rng.random() < theta**power))])
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        return path

    @pytest.fixture()
    def qualities_file(self, tmp_path):
        path = tmp_path / "qualities.csv"
        path.write_text("item_id,theta\na,0.2\nb,0.8\n")
        return path

    def test_known_mode_builds_table(self, tmp_path, ratings_file,
                                     qualities_file, capsys):
        out = tmp_path / "psi.csv"
        code, stdout, _ = run(
            capsys, "estimate-psi", "--mode", "known", "--ratings",
            str(ratings_file), "--qualities", str(qualities_file),
            "--out", str(out),
        )
        assert code == 0
        assert "thetas=2" in stdout and "questions=2" in stdout
        bank = QuestionBank.from_csv(out)
        assert bank.thetas == (0.2, 0.8)
        assert bank.totals is not None and bank.totals.sum() == 160

    def test_unknown_mode_builds_table(self, tmp_path, ratings_file, capsys):
        out = tmp_path / "psi.csv"
        code, _, _ = run(
            capsys, "estimate-psi", "--mode", "unknown", "--ratings",
            str(ratings_file), "--items", "2", "--per-item", "80",
            "--out", str(out),
        )
        assert code == 0
        bank = QuestionBank.from_csv(out)
        assert bank.n_thetas == 2
        # rank anchors replace the unknown qualities
        assert bank.thetas == (0.25, 0.75)

    def test_mode_flag_requirements(self, tmp_path, ratings_file, capsys):
        code, _, err = run(
            capsys, "estimate-psi", "--mode", "known", "--ratings",
            str(ratings_file), "--out", str(tmp_path / "o.csv"),
        )
        assert code == 1 and "--qualities" in err
        code, _, err = run(
            capsys, "estimate-psi", "--mode", "unknown", "--ratings",
            str(ratings_file), "--out", str(tmp_path / "o.csv"),
        )
        assert code == 1 and "--items" in err

    @pytest.mark.parametrize("theta", ["-1", "nan", "0", "1"])
    def test_quality_out_of_range_names_file_and_line(self, tmp_path, ratings_file,
                                                      theta, capsys):
        qualities = tmp_path / "qualities.csv"
        qualities.write_text(f"item_id,theta\nb,0.8\na,{theta}\n")
        out = tmp_path / "psi.csv"
        code, _, err = run(
            capsys, "estimate-psi", "--mode", "known", "--ratings",
            str(ratings_file), "--qualities", str(qualities), "--out", str(out),
        )
        assert code == 1
        assert err.startswith(f"error: {qualities}:3: ") and err.count("\n") == 1
        assert "strictly inside (0, 1)" in err
        assert not out.exists()

    @pytest.mark.parametrize("rows, flags, problem", [
        ("a,q1,1\nb,q2,0\n", ("--mode", "known"), "no responses for item 'a', question 'q2'"),
        ("a,q1,1\nc,q1,0\n", ("--mode", "known"), "no quality given for item 'c'"),
        ("a,q1,1\nb,q1,0\n", ("--mode", "unknown", "--items", "3", "--per-item", "1"),
         "expected 3 items, found 2"),
        ("a,q1,1\nb,q1,0\n", ("--mode", "unknown", "--items", "2", "--per-item", "2"),
         "item 'a' has 1 responses, expected 2"),
    ], ids=["missing-cell", "no-quality", "item-count", "response-count"])
    def test_content_errors_name_the_ratings_file(self, tmp_path, qualities_file,
                                                  rows, flags, problem, capsys):
        ratings = tmp_path / "ratings.csv"
        ratings.write_text("item_id,question,response\n" + rows)
        out = tmp_path / "psi.csv"
        code, _, err = run(
            capsys, "estimate-psi", *flags, "--ratings", str(ratings),
            "--qualities", str(qualities_file), "--out", str(out),
        )
        assert code == 1
        assert err == f"error: {ratings}: {problem}\n"
        assert not out.exists()


    @pytest.mark.parametrize("counts, problem", [
        (("--items", "0", "--per-item", "80"), "--items must be an integer of at least 1, got 0"),
        (("--items", "-2", "--per-item", "0"), "--items must be an integer of at least 1, got -2"),
        (("--items", "2", "--per-item", "0"), "--per-item must be an integer of at least 1, got 0"),
    ])
    def test_counts_below_one_are_flag_errors(self, tmp_path, counts, problem, capsys):
        # the ratings file does not exist: the flags are checked before it is read
        out = tmp_path / "psi.csv"
        code, _, err = run(
            capsys, "estimate-psi", "--mode", "unknown", "--ratings",
            str(tmp_path / "absent.csv"), *counts, "--out", str(out),
        )
        assert code == 1
        assert err == f"error: {problem}\n"
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["known", "unknown"])
    def test_banks_match_the_library_estimators(self, tmp_path, ratings_file,
                                                 qualities_file, mode, capsys):
        ratings = read_ratings_csv(ratings_file)
        assert len(set(ratings)) < len(ratings)
        if mode == "known":
            flags = ("--qualities", str(qualities_file))
            bank = estimate_known(ratings, read_qualities_csv(qualities_file))
        else:
            flags = ("--items", "2", "--per-item", "80")
            bank = estimate_unknown(ratings, 2, 80)
        out, expected = tmp_path / "psi.csv", tmp_path / "expected.csv"
        code, _, err = run(
            capsys, "estimate-psi", "--mode", mode, "--ratings", str(ratings_file),
            *flags, "--out", str(out),
        )
        assert code == 0, err
        bank.to_csv(expected)
        assert out.read_bytes() == expected.read_bytes()


class TestSimulate:
    def test_step_design_series_and_summary(self, design_file, tmp_path, capsys):
        out = tmp_path / "series.csv"
        summary = tmp_path / "summary.csv"
        code, stdout, _ = run(
            capsys, "simulate", "--design", str(design_file), "--steps", "30",
            "--items", "10", "--buyers", "5", "--replicates", "2",
            "--record-at", "15", "30", "--out", str(out),
            "--summary-out", str(summary),
        )
        assert code == 0
        assert "design=step" in stdout
        rows = read_rows(out)
        assert rows[0] == ["replicate", "k", "metric", "value"]
        assert len(rows) == 1 + 2 * 2
        srows = read_rows(summary)
        assert srows[0] == ["k", "metric", "mean", "se", "replicates"]
        assert len(srows) == 1 + 2

    def test_mixture_design_needs_psi(self, tmp_path, bank_file, quartile_beta,
                                      capsys):
        target = tmp_path / "target.json"
        save_design(target, quartile_beta, MatchProfile.uniform(4), "kendall")
        hfile = tmp_path / "h.json"
        run(capsys, "fit-h", "--beta", str(target), "--psi", str(bank_file),
            "--out", str(hfile))
        code, _, err = run(
            capsys, "simulate", "--design", str(hfile), "--steps", "10",
            "--items", "8", "--out", str(tmp_path / "s.csv"),
        )
        assert code == 1 and "--psi" in err
        code, stdout, _ = run(
            capsys, "simulate", "--design", str(hfile), "--psi", str(bank_file),
            "--steps", "10", "--items", "8", "--record-at", "10",
            "--out", str(tmp_path / "s.csv"),
        )
        assert code == 0
        assert "design=mixture" in stdout

    def test_parallel_replicates_match_serial(self, design_file, tmp_path, capsys):
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        common = ["simulate", "--design", str(design_file), "--steps", "20",
                  "--items", "8", "--buyers", "4", "--replicates", "3",
                  "--record-at", "20"]
        assert run(capsys, *common, "--out", str(serial))[0] == 0
        assert run(capsys, *common, "--jobs", "2", "--out", str(parallel))[0] == 0
        assert parallel.read_bytes() == serial.read_bytes()

    def test_env_seed_overrides_flag(self, design_file, tmp_path, capsys,
                                     monkeypatch):
        common = ["simulate", "--design", str(design_file), "--steps", "15",
                  "--items", "8", "--record-at", "15"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(capsys, *common, "--seed", "7", "--out", str(a))
        monkeypatch.setenv("RATECRAFT_SEED", "7")
        run(capsys, *common, "--seed", "5", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_bad_env_seed_is_input_error(self, design_file, tmp_path, capsys,
                                         monkeypatch):
        monkeypatch.setenv("RATECRAFT_SEED", "soon")
        code, _, err = run(
            capsys, "simulate", "--design", str(design_file), "--steps", "5",
            "--out", str(tmp_path / "s.csv"),
        )
        assert code == 1 and "RATECRAFT_SEED" in err

    def test_design_file_sniffing_errors(self, tmp_path, capsys):
        missing = run(
            capsys, "simulate", "--design", str(tmp_path / "no.json"),
            "--out", str(tmp_path / "s.csv"),
        )
        assert missing[0] == 1
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{not json")
        assert run(capsys, "simulate", "--design", str(garbled),
                   "--out", str(tmp_path / "s.csv"))[0] == 1
        alien = tmp_path / "alien.json"
        alien.write_text(json.dumps({"answer": 42}))
        code, _, err = run(capsys, "simulate", "--design", str(alien),
                           "--out", str(tmp_path / "s.csv"))
        assert code == 1 and "neither" in err
        scalar = tmp_path / "scalar.json"
        scalar.write_text("5")
        code, _, err = run(capsys, "simulate", "--design", str(scalar),
                           "--out", str(tmp_path / "s.csv"))
        assert code == 1 and "JSON object" in err

    def test_non_list_levels_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "scalar.json"
        bad.write_text(json.dumps({"t": 5, "s": 3, "M": 1}))
        out = tmp_path / "s.csv"
        code, _, err = run(capsys, "simulate", "--design", str(bad),
                           "--out", str(out))
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "list of numbers" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--steps", "--buyers"])
    def test_count_beyond_int64_is_input_error(self, design_file, tmp_path, capsys, flag):
        out = tmp_path / "s.csv"
        code, _, err = run(capsys, "simulate", "--design", str(design_file),
                           flag, "9999999999999999999999", "--out", str(out))
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "at most 9223372036854775807, got 9999999999999999999999" in err
        assert not out.exists()


class TestFigure:
    def test_beta_panel(self, tmp_path, capsys):
        out = tmp_path / "beta.csv"
        code, _, _ = run(
            capsys, "figure", "beta-panel", "--M", "3", "--grid", "60",
            "--out", str(out),
        )
        assert code == 0
        rows = read_rows(out)
        assert rows[0] == ["design", "theta", "beta"]
        assert len(rows) == 1 + 4 * 1001
        labels = {r[0] for r in rows[1:]}
        assert labels == {
            "w=kendall,g=uniform", "w=kendall,g=linear",
            "w=bottom,g=uniform", "w=extremes,g=uniform",
        }

    def test_h_panel(self, tmp_path, capsys):
        out = tmp_path / "h.csv"
        code, _, _ = run(
            capsys, "figure", "h-panel", "--M", "8", "--grid", "100",
            "--out", str(out),
        )
        assert code == 0
        rows = read_rows(out)
        assert rows[0] == ["series", "x", "value"]
        series = {r[0] for r in rows[1:]}
        assert series == {"beta", "fitted", "naive", "mass_fitted", "mass_naive"}
        masses = [float(r[2]) for r in rows[1:] if r[0] == "mass_fitted"]
        assert sum(masses) == pytest.approx(1.0, abs=1e-9)

    def test_sim_panel(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code, _, _ = run(
            capsys, "figure", "sim-panel", "--M", "4", "--grid", "80",
            "--steps", "20", "--replicates", "2", "--out", str(out),
        )
        assert code == 0
        rows = read_rows(out)
        assert rows[0] == ["design", "k", "metric", "mean", "se"]
        assert {r[0] for r in rows[1:]} == {"optimal", "fitted", "naive"}


def test_console_script_installed():
    exe = shutil.which("ratecraft")
    assert exe is not None
    proc = subprocess.run(
        [exe, "--help"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert "optimize-beta" in proc.stdout


SCIPY_PROBE = r"""
import sys
from pathlib import Path


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


import ratecraft.cli as cli

assert not scipy_modules(), ("import", scipy_modules())
d = Path(sys.argv[1])


def run(*argv):
    code = cli.main([str(a) for a in argv])
    assert code == 0, (argv, code)


run("optimize-beta", "--M", 20, "--grid", 100, "--out", d / "d.json")
run("rate", "--design", d / "d.json")
run("double", "--design", d / "d.json", "--out", d / "dd.json")
run("partition", "--w", "spearman", "--M", 5, "--grid", 50, "--out", d / "p.csv")
run("estimate-psi", "--mode", "known", "--ratings", d / "ratings.csv",
    "--qualities", d / "qualities.csv", "--out", d / "est.csv")
run("simulate", "--design", d / "d.json", "--steps", 5, "--items", 20,
    "--buyers", 5, "--death", 0.1, "--out", d / "sim.csv")
run("fit-h", "--beta", d / "d.json", "--psi", d / "psi.csv", "--out", d / "h.json")
assert not scipy_modules(), ("constant matching and fit", scipy_modules())

run("optimize-beta", "--M", 20, "--grid", 100, "--g", "linear", "--out", d / "l.json")
assert "scipy.linalg" in sys.modules
print("ok")
"""


def test_scipy_loads_only_where_used(tmp_path, bank_file):
    """Importing the CLI and every subcommand that needs no Newton level
    solve, the question fit included, leave scipy unloaded; a level solve
    under linear matching still runs and loads scipy.linalg."""
    (tmp_path / "qualities.csv").write_text("item_id,theta\na,0.2\nb,0.8\n")
    (tmp_path / "ratings.csv").write_text(
        "item_id,question,response\na,q,0\na,q,1\nb,q,1\nb,q,1\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("ok\n")
