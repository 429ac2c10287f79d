"""Self-tests of the benchmark: the tracer counts right and the gates can fail.

Usage (from the root of a checkout):

    python3 perfbench/selftest.py           # about half a minute
    python3 perfbench/selftest.py --full    # adds verify-default at seed 12345, a few minutes

1. On a short run, the traced call count of every wrapped function
   equals cProfile's ``ncalls`` for the same run.
2. Planted wrong outputs make the benchmark report failures
   (``pass_frac`` < 1) and exit nonzero: a wrong ``born_probs``
   (|amp| in place of |amp|^2) in ``api-calls``, a report line flipped
   to ``fail``, and a residual that differs between two repeats.
3. With ``--full``: on ``verify-default`` at seed 12345 the traced counts
   equal cProfile's for every function, and the hot ones are printed.

Exit status 0 iff every expectation holds.
"""

import argparse
import contextlib
import cProfile
import io
import json
import sys

import numpy as np

import run
import tracer as tracing

sys.path.insert(0, str(run.SRC))
import qig  # noqa: E402
import qig.cli  # noqa: E402

HOT = ("qspace.as_pure_state", "measurement.arrangement_probs",
       "measurement.simulate_measurement", "qspace.as_qvector", "qspace.from_complex",
       "transforms.classify", "transforms.block_decomposition")


def bench(workload, seconds=1):
    """Run the benchmark in-process; returns (exit code, result line)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "1",
                         "--seconds", str(seconds), "--trace", "0"])
    return code, json.loads(out.getvalue().splitlines()[-1])


@contextlib.contextmanager
def patched(obj, attr, value):
    original = getattr(obj, attr)
    setattr(obj, attr, value)
    try:
        yield
    finally:
        setattr(obj, attr, original)


def tamper_report(edit):
    """A ``cli.main`` that runs the real one, then rewrites its report with ``edit``."""
    real_main, runs = qig.cli.main, []

    def main(argv):
        code = real_main(argv)
        path = argv[argv.index("--out") + 1]
        with open(path) as fh:
            lines = [json.loads(line) for line in fh]
        edit(lines, len(runs))
        runs.append(path)
        with open(path, "w") as fh:
            fh.writelines(json.dumps(line) + "\n" for line in lines)
        return code

    return main


def flip_status(lines, rep):
    lines[0]["status"] = "fail"


def drift_second_repeat(lines, rep):
    if rep == 1:
        lines[0]["max_residual"] = (lines[0]["max_residual"] or 0.0) + 1e-15


def wrong_born_probs(v, basis):
    p = np.abs(basis.vectors.conj() @ np.asarray(v, dtype=complex))
    return p / p.sum()


def expect_failure(label, code, result):
    frac = result["metrics"]["pass_frac"]["value"]
    ok = code != 0 and result["failed"] > 0 and not result["correct"] and frac < 1.0
    print(f"{'ok  ' if ok else 'FAIL'} planted {label}: exit {code}, "
          f"failed {result['failed']}/{result['attempted']}, pass_frac {frac:.6f}")
    return ok


def traced_counts(tr, argv):
    """Functions whose traced count differs from cProfile's over one CLI run."""
    tr.reset()
    profile = cProfile.Profile()
    profile.enable()
    try:
        run.run_report(qig, argv, run.OUT / "selftest-full.jsonl")
    finally:
        profile.disable()
    return tracing.cprofile_mismatches(tr, profile)


def main(argv=None):
    args = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    args.add_argument("--full", action="store_true",
                      help="also compare counts on verify-default at seed 12345")
    args = args.parse_args(argv)
    run.OUT.mkdir(exist_ok=True)
    results = []

    short = {"argv": run.SELFTEST_ARGV,
             "checks": tuple(c for c in run.ALL_CHECKS if c.startswith("compose."))}
    with patched(qig.measurement, "born_probs", wrong_born_probs):
        results.append(expect_failure("|amp| Born rule in api-calls", *bench("api-calls")))
    with patched(run, "WORKLOADS", {**run.WORKLOADS, "verify-default": short}):
        for label, edit in (("report line flipped to fail", flip_status),
                            ("residual drift between repeats", drift_second_repeat)):
            with patched(qig.cli, "main", tamper_report(edit)):
                results.append(expect_failure(label, *bench("verify-default", seconds=0)))
        code, result = bench("verify-default", seconds=0)
        clean = code == 0 and result["correct"]
        print(f"{'ok  ' if clean else 'FAIL'} untampered short run passes: exit {code}")
        results.append(clean)

    tr = tracing.Tracer()
    tr.install({layer: getattr(qig, layer) for layer in tracing.LAYERS})
    mismatches = run.tracer_selftest(qig, tr, 1)
    traced = sum(tr.calls.values())
    print(f"{'ok  ' if not mismatches else 'FAIL'} traced counts equal cProfile's on a "
          f"short run ({traced:,} calls); mismatches {mismatches}")
    results.append(not mismatches)

    if args.full:
        mismatches = traced_counts(tr, run.WORKLOADS["verify-default"]["argv"])
        for name in HOT:
            print(f"     verify-default seed 12345: {name} {tr.calls[name]:,} calls")
        print(f"{'ok  ' if not mismatches else 'FAIL'} traced counts equal cProfile's on "
              f"verify-default, {len(tr.calls)} functions; mismatches {mismatches}")
        results.append(not mismatches)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
