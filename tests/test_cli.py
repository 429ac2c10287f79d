import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qig
from qig import cli
from qig.harness import CHECKS, overridable, suites
from qig.sampling import SIGNIFICANCE


def run_cli(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def parse_reports(out):
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines[-1].get("summary") is True
    return lines[:-1], lines[-1]


def strip_elapsed(report):
    return {k: v for k, v in report.items() if k != "elapsed"}


def test_parse_dimensions():
    assert cli.parse_dimensions("3") == (3,)
    assert cli.parse_dimensions("2..5") == (2, 3, 4, 5)
    # parsing only: Settings rejects these (test_dimensions_below_two_rejected)
    assert cli.parse_dimensions("5..2") == ()
    assert cli.parse_dimensions("0..3") == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        cli.parse_dimensions("two")


def test_dimensions_below_two_rejected(tmp_path, capsys):
    # the rule lives in Settings, so a config file cannot bypass it
    config = tmp_path / "verify.json"
    for dims in ([], [1], [0], [2, 1]):
        config.write_text(json.dumps({"dimensions": dims}))
        for argv in (["classify", "--config", str(config)], ["classify", "--n", "1"],
                     ["classify", "--n", "5..2"], ["classify", "--n", "0..3"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
            assert "dimensions, each >= 2" in capsys.readouterr().err


def test_parse_override():
    assert cli.parse_override("geodesic=1e-6") == ("geodesic", 1e-6)
    with pytest.raises(Exception):
        cli.parse_override("geodesic")


def test_metric_suite_passes(capsys):
    code, out = run_cli(["metric", "--seed", "42"], capsys)
    reports, summary = parse_reports(out)
    assert code == 0
    assert summary["fail"] == 0 and summary["error"] == 0
    assert summary["checks"] == len(reports)
    assert all(r["status"] == "pass" for r in reports)
    assert all(r["suite"] == "metric" for r in reports)


def test_reports_deterministic_modulo_elapsed(capsys):
    _, out1 = run_cli(["classify", "--seed", "7", "--trials", "50"], capsys)
    _, out2 = run_cli(["classify", "--seed", "7", "--trials", "50"], capsys)
    r1, s1 = parse_reports(out1)
    r2, s2 = parse_reports(out2)
    assert [strip_elapsed(r) for r in r1] == [strip_elapsed(r) for r in r2]
    assert s1 == s2


def test_all_runs_every_suite(capsys):
    code, out = run_cli(["all", "--trials", "20", "--n", "2..3"], capsys)
    reports, summary = parse_reports(out)
    assert code == 0
    assert set(r["suite"] for r in reports) == set(suites())
    assert summary["suites"] == suites()


def test_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit):
        cli.main(["no-such-suite"])
    # override keys are suite names that declare the knob; others exit 2
    for argv in (["metric", "--tol", "metric_pulback=0", "--trials", "20"],
                 ["coin", "--tol", "coin=1e-3"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "valid keys: born, classify, compose" in capsys.readouterr().err


def test_trial_count_below_one_rejected(tmp_path, capsys):
    # a check that runs no trials shows nothing, so it must not report a pass;
    # nor may a bound that cannot fail (inf) or cannot pass (NaN, 0 or below)
    trials, tolerances = tmp_path / "trials.json", tmp_path / "tolerances.json"
    trials.write_text(json.dumps({"trials": {"metric": 0}}))
    tolerances.write_text(json.dumps({"tolerances": {"born": float("inf")}}))
    few, bad_tol = "trial count below 1", "tolerance not a finite number > 0 for born"
    for argv, message in ((["metric", "--trials", "0"], few), (["haar", "--trials", "-3"], few),
                          (["metric", "--config", str(trials)], few),
                          (["born", "--tol", "born=inf", "--trials", "20"], bad_tol),
                          (["born", "--tol", "born=nan", "--trials", "20"], bad_tol),
                          (["born", "--tol", "born=0"], bad_tol),
                          (["born", "--tol", "born=-1"], bad_tol),
                          (["born", "--config", str(tolerances)], bad_tol)):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_tolerance_override_can_force_failure(capsys):
    code, out = run_cli(["born", "--tol", "born=1e-30", "--trials", "20"],
                        capsys)
    _, summary = parse_reports(out)
    assert code == 1
    assert summary["fail"] >= 1


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "report.jsonl"
    code, out = run_cli(["metric", "--out", str(path), "--trials", "20"],
                        capsys)
    assert code == 0
    assert out == ""
    reports, summary = parse_reports(path.read_text())
    assert summary["checks"] == len(reports)


def test_config_file_and_env_var(tmp_path, capsys, monkeypatch):
    config = tmp_path / "verify.json"
    config.write_text(json.dumps({"seed": 99, "dimensions": [2, 3],
                                  "trials": {"metric": 25}}))
    code, out = run_cli(["metric", "--config", str(config)], capsys)
    _, summary = parse_reports(out)
    assert code == 0
    assert summary["seed"] == 99

    monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(config))
    code, out = run_cli(["metric"], capsys)
    _, summary = parse_reports(out)
    assert summary["seed"] == 99

    # explicit --seed wins over the config value
    code, out = run_cli(["metric", "--seed", "5", "--trials", "25"], capsys)
    _, summary = parse_reports(out)
    assert summary["seed"] == 5

    # unknown keys in the config's trials or tolerances are errors
    for bad in ({"trials": {"metric_trials": 25}}, {"tolerances": {"geodesic": 1.0}}):
        config.write_text(json.dumps(bad))
        with pytest.raises(SystemExit) as exc:
            cli.main(["metric", "--config", str(config)])
        assert exc.value.code == 2


@pytest.mark.parametrize("config, flags, message", [
    (None, ["--config", "{tmp}/missing.json"], "cannot read the config: "),
    ([2, 3], [], "verify.json must hold a JSON object"),
    ({"dimensions": 3}, [], "config dimensions must be a JSON array, not 3"),
    ({"trials": [1]}, [], "config trials must be a JSON object, not [1]"),
    (None, ["--out", "{tmp}/missing/report.jsonl"], "cannot write the report: "),
    # harness.Settings checks the types of what the config gives
    ({"seed": 1.7}, [], "seed must be an integer >= 0, not 1.7"),
    ({"seed": True}, [], "seed must be an integer >= 0, not True"),
    ({"trials": {"metric": 2.5}}, [], "trial count below 1 or not an integer for metric"),
    ({"trials": {"metric": "5"}}, [], "trial count below 1 or not an integer for metric"),
    ({"dimensions": [2.5, 3]}, [], "need integer dimensions, each >= 2; got [2.5, 3]"),
    ({"tolerances": {"metric": "1e-3"}}, [], "tolerance not a finite number > 0 for metric"),
    ({"sed": 3}, [], "unknown config key(s) sed; valid keys: dimensions, seed, tolerances, trials"),
    # the config is checked as given, before a flag replaces one of its values
    ({"trials": {"metric": "5"}}, ["--trials", "2"], "trial count below 1 or not an integer"),
    ({"tolerances": {"metric": 0}}, ["--tol", "metric=1e-3"], "tolerance not a finite number"),
    ({"seed": "x"}, ["--seed", "3"], "seed must be an integer >= 0, not 'x'"),
    ({"dimensions": [1]}, ["--n", "2"], "need integer dimensions, each >= 2; got [1]"),
])
def test_bad_config_or_out_path_exits_2(tmp_path, capsys, config, flags, message):
    # exit status 1 means a check failed; bad input must not look like that
    path = tmp_path / "verify.json"
    path.write_text(json.dumps(config))
    argv = ["metric"] + (["--config", str(path)] if config is not None else [])
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + [flag.format(tmp=tmp_path) for flag in flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "verify: error: " in err and message in err and "Traceback" not in err


def test_report_fields(capsys):
    _, out = run_cli(["coin", "--seed", "1"], capsys)
    reports, _ = parse_reports(out)
    for r in reports:
        assert {"suite", "check", "status", "seed", "max_residual", "tolerance",
                "margin", "trials", "elapsed"} <= set(r)
        assert r["status"] in ("pass", "fail", "error")

    # trials reports what ran: --trials reaches every declared count, and
    # the fixed-sample checks keep theirs; a declared tolerance is top-level
    _, out = run_cli(["simulate", "--trials", "20"], capsys)
    reports, _ = parse_reports(out)
    assert {r["check"]: r["trials"] for r in reports} == {
        "simulate.reproducibility": 20, "simulate.frequencies": 100_000}
    _, out = run_cli(["haar", "--trials", "20", "--tol", "haar=1e-9"], capsys)
    reports, _ = parse_reports(out)
    metric = next(r for r in reports if r["check"] == "haar.metric_invariance")
    assert metric["trials"] == 2000
    assert metric["tolerance"] == 1e-9 and "tolerance" not in metric["details"]
    # --tol reaches only a declared tol; the statistical checks' bounds are fixed
    for r in reports:
        if r["check"] != "haar.metric_invariance":
            assert r["tolerance"] == SIGNIFICANCE, r


@pytest.mark.parametrize("suite", overridable("trials"))
def test_trials_reach_every_declared_count(suite, capsys):
    counts = []
    for trials in ("4", "6"):
        _, out = run_cli([suite, "--n", "2", "--trials", trials], capsys)
        reports, _ = parse_reports(out)
        counts.append({r["check"]: r["trials"] for r in reports})
    for name, record in CHECKS.items():
        if record["suite"] == suite and record["trials"] is not None:
            assert counts[0][name] != counts[1][name], name


def test_one_trial_runs_every_check(capsys):
    # a check that halves its trial count rounds up, so --trials 1 runs one or more samples
    code, out = run_cli(["all", "--trials", "1"], capsys)
    reports, summary = parse_reports(out)
    assert [r["check"] for r in reports if r["trials"] == 0 or r["status"] == "error"] == []
    # a grid of at most two points shows no variation; see CHANGES.md
    assert [r["check"] for r in reports if r["status"] != "pass"] == ["measure.counterexamples"]
    assert code == 1 and summary["error"] == 0


def run_python(code):
    """The stdout of ``code`` run by a fresh interpreter that imports this ``qig``."""
    src = str(Path(qig.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, path] if path else [src]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True).stdout


@pytest.mark.parametrize("argv", [None, ["metric", "--trials", "2"],
                                  ["classify", "--trials", "2", "--n", "2"],
                                  ["haar", "--trials", "2"]])
def test_scipy_is_loaded_on_demand(argv):
    # scipy is needed only on demand, and verify never demands it: importing
    # the cli or running a suite, the haar p-values included, loads no scipy module
    call = f"cli.main({argv!r})" if argv else "pass"
    code = ("import contextlib, io, json, sys\n"
            "from qig import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    {call}\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    out = run_python(code)
    assert json.loads(out) == []


def test_verify_all_runs_without_scipy():
    # the library needs numpy alone: with scipy made unimportable, verify all
    # passes every check, and no scipy module is loaded
    code = ("import contextlib, io, json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from qig import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "    code = cli.main(['all'])\n"
            "loaded = sorted(m for m, module in sys.modules.items()\n"
            "                if m.split('.')[0] == 'scipy' and module is not None)\n"
            "print(json.dumps([code, out.getvalue().splitlines()[-1], loaded]))")
    out = run_python(code)
    exit_code, summary, loaded = json.loads(out)
    summary = json.loads(summary)
    assert exit_code == 0
    assert summary["checks"] == summary["pass"] == len(CHECKS) == 28
    assert loaded == []


def test_verify_all_runs_on_one_core():
    # no BLAS thread works, or spins, for verify: the process's CPU time over
    # the run and the half second after it is at most the run's wall time
    code = ("import os, time\n"
            "from qig import cli\n"
            "time.sleep(0.5)\n"
            "wall, cpu = time.perf_counter(), time.process_time()\n"
            "cli.main(['all', '--out', os.devnull])\n"
            "wall = time.perf_counter() - wall\n"
            "time.sleep(0.5)\n"
            "print(wall, time.process_time() - cpu)")
    wall, cpu = map(float, run_python(code).split()[-2:])
    assert cpu <= 1.1 * wall, (cpu, wall)
