import dataclasses
import json
import math
import shlex
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cvwerner import acceptance, bounds, cli, exact, gaussian, nongauss, ppt
from cvwerner.states import WernerParams
from helpers_oracles import closed_forms_decimal


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_discord0(capsys):
    code, out, _ = run_cli(capsys, "compute", "discord0", "--p", "0.5", "--lambda", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["measure"] == "discord0"
    assert doc["units"] == "nats"
    assert doc["results"]["discord"] == pytest.approx(0.224717318691, abs=1e-10)
    assert "error_budget" in doc and "wall_time_s" in doc


def test_compute_ppt_bounds(capsys):
    code, out, _ = run_cli(capsys, "compute", "ppt-bounds", "--lambda", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["upper"] == pytest.approx(0.5 * math.log(2), abs=1e-10)


def test_failed_ppt_cross_check_prints_bare_numbers(capsys):
    # The capped direct sum misses mass at lam = 0.997 (see ppt.DIRECT_SUM_ROWS).
    code, out, err = run_cli(capsys, "compute", "ppt-bounds", "--lambda", "0.997")
    assert code == 3
    assert out == ""
    assert "vs direct sum" in err
    assert "np.float64" not in err


def test_compute_region(capsys):
    code, out, _ = run_cli(capsys, "compute", "region", "--mu", "0.8", "--p", "0.05")
    assert code == 0
    assert json.loads(out)["results"]["region"] == "separable"


def test_unknown_measure_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["compute", "no-such-measure", "--p", "0.5"])
    assert err.value.code == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_domain_error_exits_3(capsys):
    code, _, err = run_cli(capsys, "compute", "discord0", "--p", "1.5", "--lambda", "0.5")
    assert code == 3
    assert "error" in err.lower()


def test_missing_parameter_exits_3(capsys):
    code, _, err = run_cli(capsys, "compute", "discord0", "--p", "0.5")
    assert code == 3
    assert "--lam" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "discord0", "--p", "0.5", "--lambda", "0.5", "--mu", "0.7"),
        ("sweep", "delta0", "--p", "0.5", "--lambda", "0.3", "--mu", "0:0.8:0.4"),
        ("compute", "ppt-bounds", "--lambda", "0.5", "--mu", "0.7"),
    ],
    ids=["compute", "sweep", "ppt-bounds"],
)
def test_unread_input_exits_3(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == f"error: measure '{argv[1]}' does not take --mu\n"


def test_unread_setting_exits_3(capsys, tmp_path):
    code, out, err = run_cli(capsys, "compute", "discord0", "--p", "0.5", "--lambda", "0.5",
                             "--cutoff", "10")
    assert (code, out) == (3, "")
    assert "does not take --cutoff" in err
    code, _, err = run_cli(capsys, "figure", "fig-ppt", "--cutoff", "10",
                           "--outdir", str(tmp_path / "figs"))
    assert code == 3
    assert "measure 'ppt-bounds' does not take --cutoff" in err
    assert not (tmp_path / "figs").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "gaussian-discord", "--p", "0.5", "--lambda", "0.5"),
        ("sweep", "gap", "--p", "0.5", "--lambda", "0.5"),
        ("figure", "fig-gaussian"),
    ],
    ids=["compute", "sweep", "figure"],
)
@pytest.mark.parametrize("source", ["flag", "config"])
def test_quadrature_tolerance_is_not_a_flag(capsys, tmp_path, argv, source):
    # The rule checks itself against gaussian.EPS_INT; no flag tunes that.
    if source == "flag":
        extra, unrecognized = ["--eps-int", "1e-6"], "--eps-int 1e-6"
    else:
        extra, unrecognized = ["--config", _config(tmp_path, "eps-int = 1e-6\n")], "--eps-int=1e-6"
    with pytest.raises(SystemExit) as err:
        cli.main([*argv, *extra])
    assert err.value.code == 2
    assert f"unrecognized arguments: {unrecognized}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "measure, budget",
    [("gaussian-discord", {"eps_int": 1e-07, "evaluations": 9}), ("gap", {"eps_int": 1e-07})],
)
def test_quadrature_error_budget_reports_the_fixed_tolerance(capsys, measure, budget):
    code, out, _ = run_cli(capsys, "compute", measure, "--p", "0.5", "--lambda", "0.5")
    assert code == 0
    assert json.loads(out)["error_budget"] == budget


@pytest.mark.parametrize(
    "report",
    [
        lambda: bounds.bounds_report(WernerParams(0.5, 0.5, 0.5)),
        lambda: bounds.bounds_report(WernerParams(0.0, 0.58, 0.0)),
        lambda: bounds.bounds_report(WernerParams(1.0, 0.0, 0.7), 6),
        lambda: ppt.bounds(0.0),
        lambda: ppt.bounds(0.5),
        lambda: exact.discord_report(0.5, 0.5),
        lambda: exact.discord_report(0.0, 0.0),
        lambda: nongauss.discord_gap(0.5, 0.5),
        lambda: nongauss.discord_gap(1.0, 0.0),
        lambda: gaussian.gaussian_discord(0.5, 0.5),
        lambda: gaussian.gaussian_discord(0.0, 0.5),
    ],
    ids=[
        "bounds", "bounds-p0-mu0", "bounds-p1", "ppt-0", "ppt", "discord0", "discord0-0",
        "gap", "gap-p1", "gaussian-discord", "gaussian-discord-p0",
    ],
)
def test_report_numbers_are_plain_python_numbers(report):
    # np.float64 subclasses float, so only the exact type tells them apart.
    rep = report()
    for field in dataclasses.fields(rep):
        value = getattr(rep, field.name)
        if not isinstance(value, str):
            assert type(value) in (float, int), field.name


GOLDEN = Path(__file__).with_name("cli_golden.json")


def _assert_matches(found, expected, where):
    if isinstance(expected, dict):
        assert isinstance(found, dict) and sorted(found) == sorted(expected), where
        for key in expected:
            _assert_matches(found[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, float):
        assert found == pytest.approx(expected, rel=1e-11, abs=0.0), where
    else:
        assert found == expected, where


@pytest.mark.parametrize("measure", sorted(json.loads(GOLDEN.read_text())))
def test_default_outputs_match_golden(capsys, measure):
    # tests/cli_golden.json holds each measure's `compute` report at one
    # interior point, without its wall_time_s; a change that must keep every
    # default output regenerates it only on purpose.
    case = json.loads(GOLDEN.read_text())[measure]
    code, out, err = run_cli(capsys, *case["argv"])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    del doc["wall_time_s"]
    _assert_matches(doc, case["output"], measure)


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "bounds", "--p", "0.2", "--lambda", "0.9", "--mu", "0.5", "--format", "csv"),
        ("compute", "discord0", "--p", "0.5", "--lambda", "0.5", "--seed", "1"),
        ("sweep", "discord0", "--p", "0:1:0.5", "--lambda", "0.5", "--seed", "1"),
        ("figure", "fig-ppt", "--p", "0.3"),
        ("verify", "--lambda", "0.5"),
        ("verify", "--cutoff", "4"),
        ("verify", "--eps-int", "1e-6"),
    ],
    ids=[
        "compute-format",
        "compute-seed",
        "sweep-seed",
        "figure-p",
        "verify-lambda",
        "verify-cutoff",
        "verify-eps-int",
    ],
)
def test_flag_of_another_subcommand_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as err:
        cli.main(list(argv))
    assert err.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "bounds", "--p", "0.5", "--lambda", "0.5", "--mu", "0.5", "--eps-tail", "0"),
        ("compute", "ppt-bounds", "--lambda", "0.5", "--eps-tail", "0"),
        ("compute", "ppt-bounds", "--lambda", "0.5", "--eps-tail", "-1"),
    ],
    ids=["bounds-0", "ppt-bounds-0", "ppt-bounds-negative"],
)
def test_bad_tolerance_reaches_library_exits_3(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error:") and "must be finite and positive" in err


@pytest.mark.parametrize("spec", ["1:0:0.1", "0:1:nan", "0:inf:0.5"])
def test_sweep_rejects_empty_or_non_finite_range(capsys, spec):
    code, out, err = run_cli(capsys, "sweep", "discord0", "--p", spec, "--lambda", "0.5")
    assert (code, out) == (3, "")
    assert err.startswith(f"error: range '{spec}' must have")


def test_sweep_missing_input_exits_3_before_any_row(capsys):
    code, out, err = run_cli(capsys, "sweep", "discord0", "--p", "0:1:0.5")
    assert (code, out) == (3, "")
    assert err == "error: measure 'discord0' needs --lam\n"


def test_sweep_monotone_and_deterministic(capsys, tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys,
        "sweep",
        "discord0",
        "--p",
        "0:1:0.01",
        "--lambda",
        "0.5",
        "--out",
        str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    header = lines[0].split(",")
    assert lines[0].startswith("p,lam,")
    assert "discord_nats" in header
    assert len(lines) == 102  # header + 101 rows
    col = header.index("discord_nats")
    values = [float(line.split(",")[col]) for line in lines[1:]]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    # deterministic: rerun gives identical bytes
    out2 = tmp_path / "sweep2.csv"
    run_cli(capsys, "sweep", "discord0", "--p", "0:1:0.01", "--lambda", "0.5", "--out", str(out2))
    assert out2.read_text() == out_file.read_text()


def test_sweep_csv_round_trip(capsys, tmp_path):
    out_file = tmp_path / "sweep.csv"
    run_cli(capsys, "sweep", "discord0", "--p", "0:1:0.2", "--lambda", "0.3", "--out", str(out_file))
    text = out_file.read_text()
    lines = text.splitlines()
    rebuilt = [lines[0]]
    for line in lines[1:]:
        cells = []
        for cell in line.split(","):
            cells.append(cli.NUM_FMT % float(cell))
        rebuilt.append(",".join(cells))
    assert "\n".join(rebuilt) + "\n" == text


def test_sweep_row_errors_exit_4(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "bounds", "--p", "0.5", "--lambda", "0.5", "--mu", "0.5:1.0:0.25"
    )
    assert code == 4
    lines = out.splitlines()
    assert lines[0].endswith(",error")
    assert any("mu=1" in line for line in lines[1:])


def test_sweep_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "discord0", "--p", "0:1:0.5", "--lambda", "0.5", "--format", "json"
    )
    assert code == 0
    docs = json.loads(out)
    assert len(docs) == 3
    assert docs[1]["inputs"]["p"] == 0.5


def test_sweep_bounds_json_rows_have_the_compute_report_shape(capsys):
    # Each row holds only its inputs, results and cutoff, and its error if
    # it failed; its results have the keys of the `compute bounds` report.
    _, out, _ = run_cli(capsys, "compute", "bounds", "--p", "0.5", "--lambda", "0.5", "--mu", "0.5")
    report_keys = set(json.loads(out)["results"])
    code, out, _ = run_cli(
        capsys, "sweep", "bounds", "--p", "0:1:0.5", "--lambda", "0.5", "--mu", "0.5:1.0:0.25",
        "--format", "json",
    )
    assert code == 4
    docs = json.loads(out)
    assert len(docs) == 9
    failed = [doc for doc in docs if doc["inputs"]["mu"] == 1.0]
    assert len(failed) == 3
    for doc in docs:
        if doc in failed:
            assert set(doc) == {"inputs", "results", "cutoff", "error"}
            assert doc["results"] == {}
        else:
            assert set(doc) == {"inputs", "results", "cutoff"}
            assert set(doc["results"]) == report_keys


_GAP_P = (1e-6, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999999)
_GAP_LAM = (1e-4, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99)


def test_gaussian_discord_and_gap_print_the_same_gap(capsys):
    # `gaussian-discord` once printed its gap as D_G - D, which cancels: at
    # p = 0.999999, lam = 0.5 it read 2.96969449054e-06 against 2.96969449049e-06.
    differ = []
    for p in _GAP_P:
        for lam in _GAP_LAM:
            point = ("--p", repr(p), "--lambda", repr(lam))
            gaps = []
            for measure in ("gaussian-discord", "gap"):
                code, out, _ = run_cli(capsys, "compute", measure, *point)
                assert code == 0
                gaps.append(json.loads(out)["results"]["gap"])
            if gaps[0] != gaps[1]:
                differ.append((p, lam, *gaps))
    assert differ == []


def test_figure_ppt(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "figure", "fig-ppt", "--outdir", str(tmp_path))
    assert code == 0
    csv_path = tmp_path / "fig-ppt.csv"
    stub = tmp_path / "plot_fig_ppt.py"
    assert csv_path.exists() and stub.exists()
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 101  # header + lam in 0:0.99:0.01
    header = lines[0].split(",")
    lam_col, u_col = header.index("lam"), header.index("upper")
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[u_col]) == pytest.approx(float(cells[lam_col]) * math.log(2), abs=1e-10)


def test_figure_bounds_mu4_boundaries(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "figure", "fig-bounds-mu4", "--outdir", str(tmp_path))
    assert code == 0
    stub = (tmp_path / "plot_fig-bounds-mu4.py".replace("-", "_")).read_text()
    assert "axvline" in stub  # region boundaries included


def test_figure_io_error_exits_5(capsys, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code, _, err = run_cli(capsys, "figure", "fig-ppt", "--outdir", str(blocker / "sub"))
    assert code == 5
    assert "figure output failed" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "discord0", "--p", "0.5", "--lambda", "0.5"),
        ("sweep", "discord0", "--p", "0:1:0.5", "--lambda", "0.5"),
    ],
    ids=["compute", "sweep"],
)
def test_out_io_error_exits_5(capsys, tmp_path, argv):
    code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "missing" / "x.out"))
    assert code == 5
    assert f"error: {argv[0]} output failed" in err


def test_config_file_presets_and_flag_override(capsys, tmp_path):
    cfg = tmp_path / "config.txt"
    cfg.write_text("p = 0.5\nlambda = 0.5  # squeezing\n")
    code, out, _ = run_cli(capsys, "compute", "discord0", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["results"]["discord"] == pytest.approx(0.224717318691, abs=1e-10)
    code, out, _ = run_cli(
        capsys, "compute", "discord0", "--config", str(cfg), "--p", "1.0"
    )
    assert json.loads(out)["results"]["discord"] == pytest.approx(0.749780192825, abs=1e-10)


def _config(tmp_path, text):
    cfg = tmp_path / "config.txt"
    cfg.write_text(text)
    return str(cfg)


def test_config_single_value_in_sweep(capsys, tmp_path):
    cfg = _config(tmp_path, "p = 0.5\nlambda = 0.5\n")
    code, out, _ = run_cli(capsys, "sweep", "discord0", "--config", cfg)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("0.5,0.5,0.224717318691,")


def test_config_range_in_sweep(capsys, tmp_path):
    cfg = _config(tmp_path, "p = 0:1:0.5\nlambda = 0.5\n")
    code, out, _ = run_cli(capsys, "sweep", "discord0", "--config", cfg)
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["0", "0.5", "1"]


def test_config_format_and_flag_override(capsys, tmp_path):
    cfg = _config(tmp_path, "p = 0:1:0.5\nlambda = 0.5\nformat = json\n")
    code, out, _ = run_cli(capsys, "sweep", "discord0", "--config", cfg)
    assert code == 0
    assert len(json.loads(out)) == 3
    code, out, _ = run_cli(capsys, "sweep", "discord0", "--config", cfg, "--format", "csv")
    assert code == 0
    assert out.startswith("p,lam,discord_nats,")


def test_config_figure_outdir(capsys, tmp_path):
    outdir = tmp_path / "figs"
    cfg = _config(tmp_path, f"outdir = {outdir}\n")
    code, _, _ = run_cli(capsys, "figure", "fig-ppt", "--config", cfg)
    assert code == 0
    assert (outdir / "fig-ppt.csv").exists() and (outdir / "plot_fig_ppt.py").exists()


def test_config_key_of_another_subcommand_exits_2(capsys, tmp_path):
    cfg = _config(tmp_path, "p = 0.5\nlambda = 0.5\nformat = json\n")
    with pytest.raises(SystemExit) as err:
        cli.main(["compute", "discord0", "--config", cfg])
    assert err.value.code == 2
    assert "--format=json" in capsys.readouterr().err


def test_config_missing_file_exits_3(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "compute", "discord0", "--config", str(tmp_path / "absent.txt")
    )
    assert code == 3
    assert err.startswith("error:") and "absent.txt" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("source", ["config", "flag"])
def test_config_bad_value_exits_2_like_flag(capsys, tmp_path, source):
    if source == "config":
        argv = ["--config", _config(tmp_path, "p = 0.5\nlambda = abc\n")]
    else:
        argv = ["--p", "0.5", "--lambda", "abc"]
    with pytest.raises(SystemExit) as err:
        cli.main(["compute", "discord0", *argv])
    assert err.value.code == 2
    assert "invalid float value: 'abc'" in capsys.readouterr().err


def test_config_unknown_key_exits_2(capsys, tmp_path):
    cfg = _config(tmp_path, "p = 0.5\nlambda = 0.5\nsqueeze = 3\n")
    with pytest.raises(SystemExit) as err:
        cli.main(["compute", "discord0", "--config", cfg])
    assert err.value.code == 2
    assert "--squeeze" in capsys.readouterr().err


def test_cutoff_above_dense_limit_exits_3(capsys):
    code, _, err = run_cli(
        capsys, "compute", "bounds", "--p", "0.5", "--lambda", "0.9999", "--mu", "0.5"
    )
    assert code == 3
    assert err.startswith("error:") and "17000" in err


def test_cutoff_below_one_exits_3(capsys):
    point = ("compute", "bounds", "--p", "0.5", "--lambda", "0.5", "--mu", "0.5")
    code, out, err = run_cli(capsys, *point, "--cutoff", "0")
    assert code == 3
    assert out == "" and err == "error: cutoff n_max=0 outside [1, inf)\n"
    # Cutoff 1 holds the vacuum count alone, which is all of the state at lam = mu = 0.
    vacuum = ("compute", "bounds", "--p", "0.5", "--lambda", "0", "--mu", "0")
    code, out, _ = run_cli(capsys, *vacuum, "--cutoff", "1")
    assert code == 0
    assert json.loads(out)["results"]["upper"] == 0.0


def test_gaussian_discord_beyond_sized_grid_exits_0(capsys):
    # The quadrature grid once grew with lam and stopped at 0.9993 with exit 3.
    code, out, err = run_cli(capsys, "compute", "gaussian-discord", "--p", "0.5", "--lambda", "0.99999")
    assert code == 0 and err == ""
    assert json.loads(out)["results"]["gaussian_discord"] > 5.9


def test_delta0_is_positive_at_weak_squeezing(capsys):
    # It once printed -7.50497378234e-12 here, with exit 0.
    code, out, _ = run_cli(capsys, "compute", "delta0", "--p", "0.5", "--lambda", "1e-6")
    assert code == 0
    results = json.loads(out)["results"]
    ref = closed_forms_decimal(0.5, 1e-6)
    for key in ("delta0", "gaussian_reference_entropy"):
        # 12 significant digits
        assert results[key] == pytest.approx(ref[key], rel=1e-11, abs=0.0), key


def test_gaussian_discord_reports_its_evaluations_as_an_integer(capsys):
    code, out, _ = run_cli(capsys, "compute", "gaussian-discord", "--p", "0.5", "--lambda", "0.5")
    assert code == 0
    evaluations = json.loads(out)["error_budget"]["evaluations"]
    assert type(evaluations) is int and evaluations == 9


def test_verify_wiring(capsys, monkeypatch):
    stub_results = [
        acceptance.CheckResult("alpha", True, "fine", 0.1),
        acceptance.CheckResult("beta", False, "broken", 0.2),
    ]
    monkeypatch.setattr(acceptance, "run_all", lambda **kw: stub_results)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    assert "[PASS] alpha" in out and "[FAIL] beta" in out
    assert "1/2 checks passed" in out

    calls = []
    monkeypatch.setattr(acceptance, "run_all", lambda **kw: calls.append(kw) or stub_results[:1])
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert "1/1 checks passed" in out
    run_cli(capsys, "verify", "--seed", "5")
    assert calls == [{}, {"seed": 5}]


def _readme_cli_examples():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```")[1]
    lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    # The bracketed verify line runs the whole battery; test_acceptance covers it.
    return [line for line in lines if line.startswith("cvwerner ") and "[" not in line]


@pytest.mark.parametrize("line", _readme_cli_examples())
def test_readme_cli_example_runs(capsys, tmp_path, monkeypatch, line):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, *shlex.split(line)[1:])
    assert code == 0, err


def test_failed_identity_is_a_failed_check(monkeypatch):
    def truncated(params, n_max=None, eps_tail=1e-12):
        raise bounds.TruncationError("eigenvalue branches sum to 0.9")

    monkeypatch.setattr(bounds, "bounds_report", truncated)
    result = acceptance.check_mid_identity()
    assert not result.passed
    assert result.detail == "TruncationError: eigenvalue branches sum to 0.9"


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


def test_gap_at_zero_squeezing_is_strict_json(capsys):
    code, out, _ = run_cli(capsys, "compute", "gap", "--p", "0.5", "--lambda", "0")
    assert code == 0
    results = _strict_json(out)["results"]
    assert results["ratio_low_squeezing"] == 1.0
    assert results["gap_normalized"] == 0.0


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "bounds", "--p", "0.5", "--lambda", "0.5", "--mu", "0.5", "--cutoff", "30",
         "--eps-tail", "nan"),
        ("compute", "ppt-bounds", "--lambda", "0", "--eps-tail", "nan"),
        ("sweep", "ppt-bounds", "--lambda", "0", "--eps-tail", "nan", "--format", "json"),
        ("sweep", "discord0", "--p", "nan", "--lambda", "0.5", "--format", "json"),
    ],
    ids=["bounds-cutoff", "ppt-bounds-lam0", "sweep-ppt-bounds-lam0", "sweep-p"],
)
def test_nan_the_library_would_not_read_exits_3(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error:") and "nan" in err


@pytest.mark.parametrize(
    "axes, message",
    [
        (("--p", "0:1:1e-300", "--lambda", "0.5"),
         "range '0:1:1e-300' asks for 1e+300 values, above the limit 100000"),
        (("--p", "0:1e308:1e-10", "--lambda", "0.5"),
         "range '0:1e308:1e-10' asks for inf values, above the limit 100000"),
        (("--p", "0:1:1e-3", "--lambda", "0:0.999:1e-3", "--mu", "0:0.999:1e-3"),
         "sweep asks for 1001000000 rows, above the limit 100000"),
    ],
    ids=["one-range", "overflowing-range", "product"],
)
def test_sweep_row_limit_exits_3_before_allocating(capsys, axes, message):
    measure = "bounds" if "--mu" in axes else "discord0"
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "sweep", measure, *axes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (3, "")
    assert err == f"error: {message}\n"
    assert peak < 20e6
