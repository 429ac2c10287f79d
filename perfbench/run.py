"""Benchmark of qig: three workloads, end-to-end metrics and a traced per-layer run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 25 --trace 0

The command runs one workload in this process, serially, with one caller
and no thread pool, against the ``src/qig`` of the checkout.  Before the
last line it prints a run header; the last line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` they are the per-layer ones.  The exit status is 0
iff every output was correct.
"""

import argparse
import contextlib
import cProfile
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import api_calls
import hostspeed
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5

# The 28 checks of ``verify all`` at the commit that defined this benchmark.
ALL_CHECKS = (
    "metric.pullback", "metric.qspace_euclidean", "metric.geodesic",
    "coin.expansion", "coin.monte_carlo",
    "measure.ode_vs_closed_form", "measure.invariant_density",
    "measure.counterexamples", "measure.ode_convergence",
    "classify.roundtrip", "classify.rejects_generic",
    "classify.witness_agreement", "classify.composition",
    "born.exact", "simulate.frequencies", "simulate.reproducibility",
    "compose.dual_route", "compose.born_factorization", "compose.energy_additivity",
    "compose.subsystem_observable", "compose.degenerate_grouping",
    "dynamics.correspondence", "dynamics.unitary_evolution", "dynamics.hj_residuals",
    "haar.metric_invariance", "haar.uniformity", "haar.negative_control",
    "haar.rotation_invariance",
)

# Each harness workload passes only the suite, --n, --seed and --out to the
# CLI; these survive the planned check-registry refactor, --trials and
# --config do not.  The harness workloads run at the CLI's default master
# seed, whatever the benchmark's --seed: at the commit that defined this
# benchmark, metric.geodesic fails at most other seeds (44 of seeds 0..59)
# because its shrink-by-3 criterion misfires when the first-order deviation
# vanishes, and simulate.frequencies has a designed false alarm at seed 37.
# The benchmark's --seed makes the api-calls inputs.
HARNESS_SEED = 12345

# Shares are of traced self time at the commit that defined this benchmark
# (2-core x86_64 VM, Python 3.11, numpy 2.4.6); validators count in their
# own module, so qspace holds as_pure_state's time whoever calls it.
WORKLOADS = {
    # Why: the run users and Tier-1 make (verify all at CLI defaults, n = 2..5);
    # batching transforms or measurement, or validating once, shows here.
    # Shares: qspace 28.1%, transforms 27.3%, measurement 27.3%, sampling 8.0%,
    # harness 4.3%, measure 2.3%, simplex 1.5%, composite 1.1%, dynamics 0.2%.
    "verify-default": {"argv": ("all",), "checks": ALL_CHECKS},
    # Why: classify at n = 6..9, where transforms and sampling QR do nearly all the
    # work on larger blocks and measurement gets no calls, so a measurement-side
    # change must leave it alone.
    # Shares: transforms 72.0%, qspace 20.7%, sampling 6.0%, harness 1.3%, others 0.
    "classify-wide": {"argv": ("classify", "--n", "6..9"),
                      "checks": tuple(c for c in ALL_CHECKS if c.startswith("classify."))},
    # Why: how a library user calls qig, one scalar call at a time; a batch kernel
    # that slows its scalar wrapper shows here, harness-level batching does not.
    # Shares: transforms 31.3%, qspace 28.3%, measure 20.0%, simplex 7.0%,
    # sampling 5.5%, composite 4.8%, measurement 2.7%, dynamics 0.4%.
    "api-calls": None,
}

TRACED_FUNCTIONS = (
    "transforms.classify", "transforms.block_decomposition",
    "transforms.gauge_invariance_witness", "measurement.simulate_measurement",
    "measurement.arrangement_probs", "measurement.born_probs",
    "sampling.haar_unitary", "sampling.haar_orthogonal", "measure.solve_F_ode",
    "qspace.as_pure_state", "qspace.as_qvector", "qspace.from_complex",
)
# A short run for the tracer self-test: one api-calls round and one small suite.
SELFTEST_ARGV = ("compose", "--n", "2")


# ------------------------------------------------------------------ header


def run_header(seed, workload):
    """Environment of the run; records settings, sets none."""
    env = {"GIT_CEILING_DIRECTORIES": str(ROOT.parent), **os.environ}
    git = {}
    for key, cmd in (("rev", ["git", "rev-parse", "HEAD"]),
                     ("dirty", ["git", "--no-optional-locks", "status", "--porcelain",
                                "--untracked-files=no"])):
        try:
            out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                 timeout=30)
            git[key] = out.stdout.strip() if out.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            git[key] = None
    if git["dirty"] is not None:
        git["dirty"] = bool(git["dirty"])
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    import scipy
    return {
        "workload": workload, "seed": seed, "git": git,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "threads_env": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "loadavg_1m_start": os.getloadavg()[0],
    }


# ------------------------------------------------------------------- setup


def import_times(code, repeats):
    """Median of each time ``code`` prints, over ``repeats`` fresh interpreters.

    After the imports each interpreter probes the host (see
    :mod:`hostspeed`), and its times are scaled to nominal host speed.
    """
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), str(Path(__file__).parent)] + ([path] if path else [])))
    rows = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", code + PROBE_CODE], cwd=ROOT, env=env,
                             check=True, capture_output=True, text=True, timeout=120)
        *times, probe = (float(x) for x in out.stdout.split())
        rows.append([t * hostspeed.NOMINAL_PROBE_S / probe for t in times])
    return [statistics.median(column) for column in zip(*rows)]


SETUP_CODE = ("import time; t = time.perf_counter(); import qig.cli; "
              "print(time.perf_counter() - t)")
SETUP_SPLIT_CODE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import scipy.stats; t2 = time.perf_counter(); import qig.cli; t3 = time.perf_counter(); "
    "print(t1 - t0, t2 - t1, t3 - t2)")
PROBE_CODE = "; import hostspeed; hostspeed.probe(); print(hostspeed.probe(20))"


# ----------------------------------------------------------------- harness


def run_report(qig, argv, path, sampled=False):
    """One CLI run writing its report to ``path``.

    Returns (start, wall, cpu, exit code, speed samples); wall and CPU
    time exclude the probes' time.
    """
    with hostspeed.Sampler() if sampled else contextlib.nullcontext() as sampler:
        start, cpu = time.perf_counter(), time.process_time()
        try:
            code = qig.cli.main([*argv, "--seed", str(HARNESS_SEED), "--out", str(path)])
        except Exception as exc:  # noqa: BLE001 - a crashed run is a failed run
            print(f"verify {' '.join(argv)} raised {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            code = None
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    samples = sampler.samples if sampled else []
    probe_s = sum(d for _, d in samples)
    return start, wall - probe_s, cpu - probe_s, code, samples


def read_report(path):
    """Parsed JSON lines of a report, or None if it is missing or malformed."""
    try:
        return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    except (OSError, ValueError):
        return None


def gate_report(lines, expected, code):
    """Check one report; returns its verdict.

    The verdict holds, per expected check, the line with ``elapsed``
    stripped; every check line's (name, elapsed seconds) in report order;
    the set of failed checks (missing, duplicated or not ``pass``); and
    whether the summary line agrees with the check lines and the exit code.
    """
    lines = lines or []
    checks = [line for line in lines if not line.get("summary")]
    names = [line.get("check") for line in checks]
    stripped, failed = {}, set()
    for name in expected:
        found = [line for line in checks if line.get("check") == name]
        if len(found) != 1 or found[0].get("status") != "pass":
            failed.add(name)
            continue
        stripped[name] = json.dumps({k: v for k, v in found[0].items() if k != "elapsed"},
                                    sort_keys=True)
    summary = lines[-1] if lines and lines[-1].get("summary") else {}
    statuses = [line.get("status") for line in checks]
    summary_ok = (code == 0 and len(checks) == len(lines) - 1
                  and summary.get("checks") == len(checks) == len(set(names))
                  and summary.get("seed") == HARNESS_SEED
                  and all(summary.get(s) == statuses.count(s) for s in ("pass", "fail", "error")))
    stripped["summary"] = json.dumps(summary, sort_keys=True)
    digest = hashlib.sha256("\n".join(stripped[k] for k in sorted(stripped)).encode()).hexdigest()
    sequence = [(line.get("check"), float(line.get("elapsed") or 0.0)) for line in checks]
    return {"stripped": stripped, "sequence": sequence, "failed": failed,
            "summary_ok": summary_ok, "digest": digest}


class HarnessRun:
    """Repeated CLI runs of one workload, gated and compared with the first."""

    def __init__(self, qig, name):
        self.qig, self.name = qig, name
        self.argv = WORKLOADS[name]["argv"]
        self.expected = WORKLOADS[name]["checks"]
        self.reps = []

    def rep(self, sampled=True):
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{self.name}-{len(self.reps)}.jsonl"
        path.unlink(missing_ok=True)
        start, wall, cpu, code, samples = run_report(self.qig, self.argv, path, sampled)
        verdict = gate_report(read_report(path), self.expected, code)
        verdict.update(start=start, wall=wall, cpu=cpu, samples=samples)
        if self.reps:
            first = self.reps[0]["stripped"]
            verdict["failed"] |= {k for k, v in verdict["stripped"].items()
                                  if k != "summary" and first.get(k) != v}
            verdict["summary_ok"] &= first["summary"] == verdict["stripped"]["summary"]
        self.reps.append(verdict)
        return verdict

    def unit_times(self):
        """Per sampled rep and expected check, the check's time at nominal
        host speed; with the time each rep spent outside checks.

        A check's host speed is the mean time of the probes that fell
        inside it (of the whole rep's, when none did); the probes' own time
        is removed.
        """
        rows, between = [], []
        for r in self.reps:
            if not r["samples"]:
                continue
            starts, durations = np.array(r["samples"]).T
            t, scaled = r["start"], {}
            for name, elapsed in r["sequence"]:
                inside = (starts >= t) & (starts < t + elapsed)
                speed = (durations[inside] if inside.any() else durations).mean()
                scaled[name] = ((elapsed - durations[inside].sum())
                                * hostspeed.NOMINAL_PROBE_S / speed)
                t += elapsed
            rows.append([scaled.get(name, np.nan) for name in self.expected])
            outside = r["wall"] + durations.sum() - sum(e for _, e in r["sequence"])
            between.append(outside * hostspeed.NOMINAL_PROBE_S / durations.mean())
        return rows, between

    @property
    def attempted(self):
        return len(self.reps) * (len(self.expected) + 1)

    @property
    def failed(self):
        return sum(len(r["failed"]) + (not r["summary_ok"]) for r in self.reps)


# ----------------------------------------------------------------- metrics


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pass_time(unit_times, between, reduce):
    """Per-unit times over a run's passes, and the pass time they add up to.

    ``unit_times`` holds one row per pass and one column per unit of work
    (a check, or a call of an api-calls round), scaled to nominal host
    speed; ``between`` the scaled time each pass spent outside its units.
    ``reduce`` takes each column to one value: the least for checks, whose
    scaling rests on many probes, and the median for calls, whose scaling
    rests on the two probes around a round.
    """
    units = reduce(np.asarray(unit_times, dtype=float), axis=0)
    return units, float(np.nansum(units) + max(reduce(between), 0.0))


def end_to_end(units, wall, cpu, attempted, failed, setup_s):
    """The end-to-end metrics of one untraced run; ``units`` as from :func:`pass_time`."""
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (cpu, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "pass_frac": (1.0 - failed / attempted, "fraction"),
        "calls_per_s": (units.size / wall, "1/s"),
        "call_us_p50": (float(np.nanpercentile(units, 50)) * 1e6, "us"),
        "call_us_p99": (float(np.nanpercentile(units, 99)) * 1e6, "us"),
    }


def tracer_selftest(qig, tr, seed):
    """Names whose traced call count differs from cProfile's on a short run."""
    tr.reset()
    profile = cProfile.Profile()
    profile.enable()
    try:
        api_calls.Loop(api_calls.make_cases(seed, qig), qig, seed).round()
        OUT.mkdir(exist_ok=True)
        run_report(qig, SELFTEST_ARGV, OUT / "selftest.jsonl")
    finally:
        profile.disable()
    return tracing.cprofile_mismatches(tr, profile)


def per_layer(tr, overhead_s, unit_times, setup):
    """The per-layer metrics of one traced pass.

    ``overhead_s`` is the traced pass's wall time minus its untraced
    twin's; ``unit_times`` maps a check name or api call label to the
    untraced times of its units, as from :func:`pass_time`.
    """
    metrics = {
        "setup.import_numpy_s": (setup[0], "s"),
        "setup.import_scipy_s": (setup[1], "s"),
        "setup.import_qig_s": (setup[2], "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    for layer, (calls, self_s) in tracing.layer_totals(tr).items():
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_s"] = (self_s, "s")
    for name in TRACED_FUNCTIONS:
        metrics[f"{name}.calls"] = (tr.calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (tr.self_s.get(name, 0.0), "s")
    v_calls = sum(tr.calls.get(name, 0) for name in tracing.VALIDATORS)
    kernel_calls = sum(count for name, count in tr.calls.items()
                       if name.split(".", 1)[0] in tracing.LIBRARY
                       and name not in tracing.VALIDATORS)
    metrics["validation.calls"] = (v_calls, "count")
    metrics["validation.self_s"] = (sum(tr.self_s.get(n, 0.0) for n in tracing.VALIDATORS), "s")
    metrics["validation.calls_per_kernel_call"] = (v_calls / max(kernel_calls, 1), "ratio")
    for name in ALL_CHECKS:
        metrics[f"harness.{name}.wall_s"] = (float(sum(unit_times.get(name, [0.0]))), "s")
    for label in api_calls.CALLS:
        metrics[f"api.{label}.us_p50"] = (
            float(np.median(unit_times.get(label, [0.0]))) * 1e6, "us")
    return metrics


# -------------------------------------------------------------------- main


def measure(qig, workload, seed, seconds, trace):
    """Run the workload; returns (attempted, failed, metrics, detail).

    Untraced, the workload repeats for ``seconds`` of wall time, checks
    included (at least two passes of a harness workload, so that repeats
    can be compared).  Traced, one untraced pass (half of ``seconds`` of
    api-calls rounds) is followed by the same work traced.
    """
    start = time.perf_counter()
    if WORKLOADS[workload] is None:
        untraced = api_calls.Loop(api_calls.make_cases(seed, qig), qig, seed)
        while time.perf_counter() - start < (seconds / 2 if trace else seconds):
            untraced.round()
        walls, cpus = untraced.round_walls, untraced.round_cpus
        labels = untraced.labels
        unit_times, between = untraced.unit_times()
        reduce = np.nanmedian
    else:
        untraced = HarnessRun(qig, workload)
        while len(untraced.reps) < (1 if trace else 2) or (
                not trace and time.perf_counter() - start < seconds):
            untraced.rep()
        walls = [r["wall"] for r in untraced.reps]
        cpus = [r["cpu"] for r in untraced.reps]
        labels = untraced.expected
        unit_times, between = untraced.unit_times()
        reduce = np.nanmin
    units, wall = pass_time(unit_times, between, reduce)
    detail = {"passes": len(walls), "pass_walls": [round(w, 4) for w in walls]}
    if isinstance(untraced, HarnessRun):
        detail["digests"] = sorted({r["digest"] for r in untraced.reps})
        detail["probe_ms_quantiles"] = [round(float(q) * 1e3, 4) for q in np.quantile(
            [d for r in untraced.reps for _, d in r["samples"]], (0.02, 0.5))]
    if not trace:
        # CPU time follows from the measured CPU-to-wall ratio, which exceeds
        # 1 when the kernels run BLAS threads
        cpu = wall * sum(cpus) / sum(walls)
        setup_s = statistics.median(import_times(SETUP_CODE, SETUP_REPEATS))
        return (untraced.attempted, untraced.failed,
                end_to_end(units, wall, cpu, untraced.attempted, untraced.failed, setup_s),
                detail)

    tr = tracing.Tracer()
    tr.install({layer: getattr(qig, layer) for layer in tracing.LAYERS})
    if isinstance(untraced, HarnessRun):
        untraced.rep(sampled=False)     # the traced rep must reproduce the untraced one
        traced_wall = untraced.reps[-1]["wall"]
    else:
        traced = api_calls.Loop(untraced.cases, qig, seed)
        for _ in walls:
            traced.round()
        traced_wall = sum(traced.round_walls)
        untraced.attempted += traced.attempted
        untraced.failed += traced.failed
    by_label = {}
    for label, t in zip(labels, units):
        by_label.setdefault(label, []).append(t)
    metrics = per_layer(tr, traced_wall - sum(walls), by_label,
                        import_times(SETUP_SPLIT_CODE, 3))
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{workload}-{seed}.json").write_text(json.dumps(
        {name: [n, tr.self_s[name]] for name, n in sorted(tr.calls.items()) if n}, indent=1))
    mismatches = tracer_selftest(qig, tr, seed)
    detail["tracer_cprofile_mismatches"] = mismatches
    return (untraced.attempted + 1, untraced.failed + bool(mismatches), metrics, detail)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "qig" / "__init__.py").is_file():
        print(f"no qig sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qig
    import qig.cli

    if Path(qig.__file__).resolve().parent != SRC / "qig":
        print(f"imported qig from {qig.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    header = run_header(args.seed, args.workload)
    attempted, failed, metrics, detail = measure(qig, args.workload, args.seed,
                                                 args.seconds, args.trace)
    header["loadavg_1m_end"] = os.getloadavg()[0]
    print(json.dumps({"header": header, "detail": detail}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
