"""Command-line surface: wire formats, exit codes, determinism."""

import json

import pytest

from susyxyz.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_fn_wire_format(capsys):
    code, out = run(capsys, "fn", "--n", "2", "--variable", "Z")
    assert code == 0
    obj = json.loads(out)
    assert obj == {"variable": "Z", "num": ["27", "1"], "den": ["25", "1"]}


def test_fn_zeta_variable(capsys):
    code, out = run(capsys, "fn", "--n", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["variable"] == "zeta"
    assert obj["num"] == ["1"] and obj["den"] == ["1"]


def test_corr_exact_strings(capsys):
    code, out = run(capsys, "corr", "--n", "1", "--zeta", "0")
    assert code == 0
    obj = json.loads(out)
    assert obj["cx"] == "2/3" and obj["cy"] == "2/3" and obj["cz"] == "-1/3"
    assert obj["sum_rule_residual"] == "0"


def test_tau_dump_and_check(capsys, tmp_path):
    path = tmp_path / "tau.json"
    code, _ = run(capsys, "tau", "--n-min", "-2", "--n-max", "2", "--output", str(path))
    assert code == 0
    entries = json.loads(path.read_text())["entries"]
    assert [e["n"] for e in entries] == [-2, -1, 0, 1, 2]
    by_n = {e["n"]: e for e in entries}
    assert by_n[2]["s"]["coefficients"] == ["1", "1"]
    assert by_n[-1]["sbar"]["coefficients"] == ["1/2", "-3/2"]
    code, out = run(capsys, "tau", "--n-max", "3", "--check")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["corr", "--n", "-1", "--zeta", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["ed-verify", "--L", "4"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["finf", "--tau", "-1.0"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["qsolve", "--n", "0", "--check", "wronskain"])
    assert exc.value.code == 2
    assert "wronskain" in capsys.readouterr().err


def test_ed_verify_small(capsys):
    code, out = run(capsys, "ed-verify", "--L", "3", "--zeta-grid", "1/5,-2/5")
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True
    assert len(rep["samples"]) == 2


def test_pvi_verify_small(capsys):
    code, out = run(capsys, "pvi-verify", "--n-max", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True
    for entry in rep["orbit"]:
        assert entry["hamiltonian_bridge_residual"] == "0/1"
        assert entry["hamilton_residuals"] == ["0/1", "0/1"]


def test_theta_suite_cli(capsys):
    code, out = run(capsys, "theta-suite", "--tau", "1.0", "--seed", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True and rep["seed"] == 3


def test_finf_cli(capsys):
    code, out = run(capsys, "finf", "--tau", "1.0")
    assert code == 0
    rep = json.loads(out)
    assert rep["diff"] < 1e-9


def test_qsolve_cli(capsys):
    code, out = run(capsys, "qsolve", "--n", "1", "--tau", "1.0")
    assert code == 0
    rep = json.loads(out)
    assert rep["nullspace_gap"] > 1e6
    assert rep["f_bridge_residual"] < 1e-6


def test_qsolve_check_selection(capsys):
    code, out = run(capsys, "qsolve", "--n", "0", "--check", "wronskian")
    assert code == 0
    rep = json.loads(out)
    assert "wronskian" in rep and "ddt" not in rep


def test_plot_data_csv(capsys, tmp_path):
    path = tmp_path / "curves.csv"
    code, _ = run(capsys, "plot-data", "--n", "1,2", "--zeta-range=-2:2:5",
                  "--output", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "zeta,f_1,f_2,f_inf"
    assert len(lines) == 6


def test_output_dir_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SUSYXYZ_OUTPUT_DIR", str(tmp_path))
    code, _ = run(capsys, "fn", "--n", "0", "--output", "f0.json")
    assert code == 0
    assert json.loads((tmp_path / "f0.json").read_text())["num"] == []


def test_ed_verify_length_limit_is_L_MAX(capsys):
    from susyxyz.edoracle import L_MAX

    code, out = run(capsys, "ed-verify", "--L", "15", "--zeta-grid", "2/5")
    assert code == 0
    (sample,) = json.loads(out)["samples"]
    assert sample["gap"] > 1e-8 and sample["residual"] < 1e-10 * 15
    with pytest.raises(SystemExit) as exc:
        main(["ed-verify", "--L", str(L_MAX + 2)])
    assert exc.value.code == 2
    assert f"<= {L_MAX}" in capsys.readouterr().err


def test_ed_verify_transfer_reports_skipped_lengths(capsys):
    from susyxyz.edoracle import L_MAX_TRANSFER

    L = L_MAX_TRANSFER + 2
    code, out = run(capsys, "ed-verify", "--L", str(L), "--zeta-grid", "2/5",
                    "--transfer")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert [(t["L"], t["tau_im"], t["skipped"]) for t in report["transfer"]] == [
        (L, 0.5, "SizeLimit"),
        (L, 1.0, "SizeLimit"),
    ]


def test_failed_assertion_exits_1(capsys):
    # an unattainable tolerance must flip the exit code, never crash
    code, out = run(capsys, "ed-verify", "--L", "3", "--zeta-grid", "1/5",
                    "--f-tol", "1e-30")
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_deterministic_output(capsys):
    _, out1 = run(capsys, "theta-suite", "--tau", "1.0", "--seed", "7")
    _, out2 = run(capsys, "theta-suite", "--tau", "1.0", "--seed", "7")
    assert out1 == out2


def test_verify_all_quick(capsys):
    code, out = run(capsys, "verify-all", "--quick")
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True
    for key in ("tau", "fn_table", "ed_verify", "pvi_verify", "theta_suite",
                "f_infinity", "qsolve"):
        assert rep[key] is True
