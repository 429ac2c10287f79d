"""End-to-end acceptance suite.

Each test covers one acceptance criterion at full scale, reusing the
verification checks behind the ``verify`` command with their default
settings, and prints a single pass/fail line to the terminal.
"""

import json
import time

import pytest

from qig import cli
from qig.harness import CHECKS, Settings, run_check

SETTINGS = Settings()


def run_criterion(capsys, number, description, check_names, budget_seconds):
    start = time.perf_counter()
    failures = []
    worsts = {}
    for name in check_names:
        report = run_check(CHECKS[name], SETTINGS)
        worsts[name] = report["max_residual"]
        if report["status"] != "pass":
            failures.append((name, report["max_residual"], report["details"]))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < budget_seconds
    with capsys.disabled():
        print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - "
              f"{description} ({elapsed:.1f}s)")
    assert not failures, failures
    assert elapsed < budget_seconds, (elapsed, budget_seconds)


def test_criterion_1_bayes_metric_expansion(capsys):
    run_criterion(
        capsys, 1,
        "log Bayes factor matches 2n ds^2 and the Monte-Carlo oracle",
        ["coin.expansion", "coin.monte_carlo"], 30)


def test_criterion_2_embedding_function_determination(capsys):
    run_criterion(
        capsys, 2,
        "F ODE matches cos^2, invariant density flat, counterexamples rejected",
        ["measure.ode_vs_closed_form", "measure.invariant_density",
         "measure.counterexamples"], 10)


def test_criterion_3_unitary_antiunitary_classification(capsys):
    run_criterion(
        capsys, 3,
        "realify/classify round-trips, generic rejection, witness agreement",
        ["classify.roundtrip", "classify.rejects_generic",
         "classify.witness_agreement"], 120)


def test_criterion_4_born_rule_and_simulation(capsys):
    run_criterion(
        capsys, 4,
        "arrangement distribution equals Born rule; sampling and repeatability",
        ["born.exact", "simulate.frequencies", "simulate.reproducibility"], 60)


def test_criterion_5_composite_rule(capsys):
    run_criterion(
        capsys, 5,
        "tensor/phase-rep agreement, Born factorization, energy additivity",
        ["compose.dual_route", "compose.born_factorization",
         "compose.energy_additivity"], 30)


def test_criterion_6_subsystem_and_degenerate(capsys):
    run_criterion(
        capsys, 6,
        "subsystem expectations and degenerate grouping example",
        ["compose.subsystem_observable", "compose.degenerate_grouping"], 10)


def test_criterion_7_invariant_metric_and_measure(capsys):
    run_criterion(
        capsys, 7,
        "gauge maps preserve the metric and the uniform measure",
        ["haar.metric_invariance", "haar.uniformity",
         "haar.negative_control"], 120)


def test_criterion_8_dynamics(capsys):
    run_criterion(
        capsys, 8,
        "stationary evolution matches HJ action shift; residual convergence",
        ["dynamics.correspondence", "dynamics.hj_residuals"], 30)


def test_criterion_9_full_suite_deterministic(capsys, tmp_path):
    start = time.perf_counter()
    outputs = []
    codes = []
    for k in range(2):
        path = tmp_path / f"report_{k}.jsonl"
        codes.append(cli.main(["all", "--out", str(path)]))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        outputs.append([{key: v for key, v in line.items() if key != "elapsed"}
                        for line in lines])
    elapsed = time.perf_counter() - start
    ok = codes == [0, 0] and outputs[0] == outputs[1] and elapsed / 2 < 300
    with capsys.disabled():
        print(f"criterion 9: {'PASS' if ok else 'FAIL'} - "
              f"verify all deterministic and within budget ({elapsed / 2:.1f}s/run)")
    assert codes == [0, 0]
    assert outputs[0] == outputs[1]
    assert elapsed / 2 < 300
