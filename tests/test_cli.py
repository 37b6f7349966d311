"""Command-line surface: wire formats, exit codes, determinism."""

import json
import os
import subprocess
import sys

import pytest

import susyxyz
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


def test_qsolve_without_an_isolated_null_space_exits_1(capsys):
    # at n = 14, tau = 0.5i the singular-value gap is below GAP_THRESHOLD:
    # still a JSON report, with ok false and the gap next to its threshold
    code, out = run(capsys, "qsolve", "--n", "14", "--tau", "0.5")
    assert code == 1
    rep = json.loads(out)
    assert rep["ok"] is False
    assert rep["nullspace_gap"] < rep["gap_threshold"] == 1e6


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


@pytest.mark.parametrize("grid", ["1,-1", ""])
def test_ed_verify_without_a_checked_sample_exits_1(capsys, grid):
    code, out = run(capsys, "ed-verify", "--L", "3", f"--zeta-grid={grid}")
    assert code == 1
    rep = json.loads(out)
    assert rep["ok"] is False
    assert all("skipped" in s for s in rep["samples"])


def _python(script: str) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(os.path.abspath(susyxyz.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)


def test_cli_runs_its_exact_commands_without_numpy():
    loaded = _python(
        "import sys, susyxyz.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))\n"
    )
    assert loaded.returncode == 0, loaded.stderr
    assert loaded.stdout.strip() == "[]"

    commands = [
        ["tau", "--check", "--n-max", "3"],
        ["fn", "--n", "3", "--variable", "Z"],
        ["corr", "--n", "2", "--zeta", "1/3"],
        ["pvi-verify", "--n-max", "1"],
        ["theta-suite"],
        ["finf", "--tau", "1.5"],
        ["plot-data", "--n", "1", "--zeta-range=0:1:2"],
    ]
    blocked = _python(
        "import contextlib, io, json, sys\n"
        "sys.modules['numpy'] = sys.modules['scipy'] = None\n"
        "from susyxyz.cli import main\n"
        "codes = []\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(main(argv))\n"
        "print(json.dumps(codes))\n"
    )
    assert blocked.returncode == 0, blocked.stderr
    assert json.loads(blocked.stdout) == [0] * len(commands)


SECTIONS = ("tau", "fn_table", "ed_verify", "pvi_verify", "theta_suite", "f_infinity",
            "qsolve")


@pytest.mark.parametrize("key", SECTIONS)
def test_verify_all_reports_a_failed_section(capsys, monkeypatch, key):
    from susyxyz import corrfn, edoracle, pvi, qsolver, taurec, thetanum

    if key == "fn_table":
        monkeypatch.setitem(corrfn.REFERENCE_F_IN_Z, 2, (["28", "1"], ["25", "1"]))
    else:
        owner, name = {
            "tau": (taurec.TauTable, "check"),
            "ed_verify": (edoracle, "ed_verify"),
            "pvi_verify": (pvi, "pvi_verify"),
            "theta_suite": (thetanum, "identity_report"),
            "f_infinity": (thetanum, "baxter_f_infinity"),
            "qsolve": (qsolver, "qsolve_report"),
        }[key]
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, **k: {**real(*a, **k), "ok": False})
    code, out = run(capsys, "verify-all", "--quick")
    assert code == 1
    rep = json.loads(out)
    assert rep[key] is False and rep["ok"] is False
    assert all(rep[other] is True for other in SECTIONS if other != key)


def test_deterministic_output(capsys):
    _, out1 = run(capsys, "theta-suite", "--tau", "1.0", "--seed", "7")
    _, out2 = run(capsys, "theta-suite", "--tau", "1.0", "--seed", "7")
    assert out1 == out2


def test_verify_all_quick(capsys):
    code, out = run(capsys, "verify-all", "--quick")
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True
    for key in SECTIONS:
        assert rep[key] is True
