"""Golden reports: ``verify`` runs compared with the fixtures in ``tests/golden/``.

Each fixture holds one header line, the ``verify`` arguments and the Python
and numpy versions that wrote it, then one report line per check with
``elapsed`` removed.  Where the versions match, every field must be equal.
Elsewhere last digits may differ: strings, integers and booleans (status,
trials, bound, sample indices, counts) must still be equal, floats must
agree to ``RTOL`` (values within ``ATOL`` of zero are round-off), and
``margin`` and the ``worst`` quotients, a compared residual over a bound,
are not compared themselves.  A change that moves a report regenerates the
fixtures, so that the diff shows each changed line:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
import platform
from pathlib import Path

import numpy as np
import pytest

from qig import cli, harness

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = {"all_seed12345": ["all", "--seed", "12345"], "all_seed0": ["all", "--seed", "0"],
         "all_seed7": ["all", "--seed", "7"], "classify_n6-9": ["classify", "--n", "6..9"]}
RTOL, ATOL = 1e-6, 1e-12
QUOTIENTS = {"margin", "worst"}


def versions():
    return {"python": platform.python_version(), "numpy": np.__version__}


def without_elapsed(report):
    return {k: v for k, v in report.items() if k != "elapsed"}


def reports(argv):
    """The report lines of ``verify ARGV``, run in-process, without ``elapsed``."""
    args = cli.build_parser().parse_args(argv)
    names = harness.suites() if args.suite == "all" else [args.suite]
    return [without_elapsed(r) for r in harness.run_suite(names, cli.load_settings(args))]


def regenerate():
    for case, argv in CASES.items():
        lines = [{"argv": argv, **versions()}, *reports(argv)]
        (GOLDEN / f"{case}.jsonl").write_text(
            "".join(json.dumps(line, allow_nan=False) + "\n" for line in lines))


def close(got, want):
    """Whether ``got`` matches ``want`` up to the last digits of its floats."""
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            k in QUOTIENTS or close(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(close, got, want))
    if isinstance(want, float) and type(got) is float:
        return math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL)
    return type(got) is type(want) and got == want


def assert_matches_fixture(got, case):
    """Assert that report lines ``got`` match the fixture of ``case``, line by line."""
    header, *want = map(json.loads, (GOLDEN / f"{case}.jsonl").read_text().splitlines())
    assert header["argv"] == CASES[case]
    got = json.loads(json.dumps(got, allow_nan=False))
    assert [r["check"] for r in got] == [r["check"] for r in want]
    if {k: header[k] for k in ("python", "numpy")} == versions():
        for g, w in zip(got, want):
            assert g == w
    else:
        for g, w in zip(got, want):
            assert close(g, w), (g, w)


@pytest.mark.parametrize("case", CASES)
def test_report_matches_its_fixture(case, monkeypatch):
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
    assert_matches_fixture(reports(CASES[case]), case)


def test_each_line_reruns_alone_in_any_order():
    # a line's check and seed rerun it: each check of ``verify all --seed 12345``, run by
    # itself in reverse registry order, reports its line of the same fixture
    settings = harness.Settings(seed=12345)
    alone = {name: without_elapsed(harness.run_check(harness.CHECKS[name], settings))
             for name in reversed(harness.CHECKS)}
    order = [name for suite in harness.suites() for name, record in harness.CHECKS.items()
             if record["suite"] == suite]
    assert_matches_fixture([alone[name] for name in order], "all_seed12345")


def test_close_allows_last_digits_only():
    want = {"check": "c", "status": "pass", "max_residual": 0.25, "margin": 0.5, "trials": 3,
            "details": {"worst": {"a": 0.5}, "first_failure": {"sample": 4}, "p": [1e-16]}}
    assert close(json.loads(json.dumps(want)), want)
    assert close({**want, "max_residual": 0.25 * (1 + 1e-9), "margin": 0.7}, want)
    assert close({**want, "details": {**want["details"], "p": [3e-16]}}, want)
    for key, value in (("status", "fail"), ("trials", 4), ("max_residual", 0.2501),
                       ("details", {**want["details"], "first_failure": {"sample": 5}}),
                       ("max_residual", None), ("trials", 3.0)):
        assert not close({**want, key: value}, want), key


if __name__ == "__main__":
    regenerate()
