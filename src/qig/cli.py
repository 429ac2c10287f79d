"""``verify`` command line: run verification suites, emit JSON-line reports.

Usage:
    verify metric --n 3 --seed 42
    verify classify --n 2..5 --trials 1000 --seed 7
    verify all --config verify.json --out report.jsonl

One JSON object is printed per check, then a summary object.  Exit
status is 0 iff every check passed.  Reports are byte-reproducible for
a given seed and configuration except for the elapsed-time fields:
``harness.run_check`` hands each check a generator seeded by the master
seed and the check's name.
Every check line carries the bound applied (``tolerance``) and ``margin``.

Overrides are keyed by suite name: ``--tol SUITE=VALUE`` and the config
file's ``tolerances`` and ``trials`` dicts set that knob for every check
of the suite that declares it, and ``--trials N`` sets every declared
trial count.  ``--tol`` reaches a declared ``tol``, never a fixed bound.
A key that is not a suite declaring the knob is an error (exit status 2;
the message lists the valid keys), and so is any value that
``harness.Settings``, which holds the defaults, rejects: the config file's
as given, then each flag's as it replaces a value.  So are a config
file that cannot be read or parsed, or that is not a JSON object of
``seed``, an array of ``dimensions`` and objects of ``trials`` and
``tolerances``, and an ``--out`` path that cannot be written.  The
statistical checks keep fixed sample sizes and bounds, because their
false-alarm rate depends on them.
"""

import argparse
import dataclasses
import json
import os
import sys

from .harness import Settings, overridable, reject_unknown, run_suite, suites

CONFIG_ENV_VAR = "QIG_VERIFY_CONFIG"


def parse_dimensions(text):
    """Parse "3" or "2..5" into a tuple of dimensions (``Settings`` checks them)."""
    lo, dots, hi = text.partition("..")
    return tuple(range(int(lo), int(hi if dots else lo) + 1))


def parse_override(text):
    name, _, value = text.partition("=")
    if not _:
        raise argparse.ArgumentTypeError("tolerance override must be suite=value")
    return name, float(value)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Run the deterministic verification suites.")
    parser.add_argument("suite", choices=suites() + ["all"],
                        help="which suite to run")
    parser.add_argument("--n", type=parse_dimensions, default=None,
                        metavar="N or LO..HI", help="dimension(s) to test")
    parser.add_argument("--trials", type=int, default=None,
                        help="set every declared per-check trial count")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed (per-check seeds derive from it)")
    parser.add_argument("--tol", action="append", type=parse_override,
                        default=[], metavar="SUITE=VALUE",
                        help="tolerance override for a suite's checks, repeatable")
    parser.add_argument("--config", default=None,
                        help=f"JSON config file (default ${CONFIG_ENV_VAR})")
    parser.add_argument("--out", default=None,
                        help="write the report stream to a file instead of stdout")
    return parser


def load_settings(args):
    config = {}
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    if path:
        with open(path) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError(f"config {path} must hold a JSON object")
    reject_unknown("config", config, sorted(f.name for f in dataclasses.fields(Settings)))
    # Settings checks the config as given, then each flag given replaces its value
    settings = Settings(**config)
    flags = {k: v for k, v in (("seed", args.seed), ("dimensions", args.n)) if v is not None}
    if args.trials is not None:
        flags["trials"] = {**settings.trials, **dict.fromkeys(overridable("trials"), args.trials)}
    if args.tol:
        flags["tolerances"] = {**settings.tolerances, **dict(args.tol)}
    return dataclasses.replace(settings, **flags)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = load_settings(args)
    except OSError as exc:
        parser.error(f"cannot read the config: {exc}")
    except (TypeError, ValueError) as exc:
        parser.error(str(exc))
    names = suites() if args.suite == "all" else [args.suite]
    try:
        stream = open(args.out, "w") if args.out else sys.stdout
    except OSError as exc:
        parser.error(f"cannot write the report: {exc}")

    counts = {"pass": 0, "fail": 0, "error": 0}
    try:
        for report in run_suite(names, settings):
            counts[report["status"]] += 1
            stream.write(json.dumps(report, allow_nan=False) + "\n")
            stream.flush()
        summary = {"summary": True, "suites": names, "seed": settings.seed,
                   "checks": sum(counts.values()), **counts}
        stream.write(json.dumps(summary, allow_nan=False) + "\n")
    finally:
        if args.out:
            stream.close()
    return 0 if counts["fail"] == 0 and counts["error"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
