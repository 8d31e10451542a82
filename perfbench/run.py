"""The stieltjes benchmark: seeded closed-loop workloads, end-to-end metrics
from untraced runs and per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload transform-stream --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --smoke --trace 0

Run from anywhere; it imports the library from the `src` directory next to
this one and exits with status 2, printing no result, when that is missing.
One process, one caller, closed loop: each op starts when the previous one
ends.  Every op's result is checked outside the timed region; an op that
raises or fails its check counts as failed.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
Exit status 1 means a check could not run.  See NOTES.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOAD_NAMES = ("transform-stream", "fingerprint-grid", "muntz-invert", "cli-oneshot")
# seconds one round takes at the seed commit on a 2-core box; fixes how many
# rounds the traced run replays, so its counts depend only on seed and --seconds
NOMINAL_ROUND_S = {"transform-stream": 0.85, "fingerprint-grid": 0.3,
                   "muntz-invert": 2.8, "cli-oneshot": 3.6}
SETUP_REPS = 3
PROBE_REPS = 3
# an input draw no timed round uses; one untimed round on it lets lazily
# filled process caches (mpmath constants at high precision, scipy
# tables) fill before timing, as they would in a long-lived caller
WARMUP_ROUND = 2**31


class CheckError(Exception):
    """A check could not be run, so correctness is unknown."""


# ---------------------------------------------------------------------------
# machine facts


def _blas_threads():
    """Threads of the OpenBLAS that numpy loaded, read from the library."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
    }


# ---------------------------------------------------------------------------
# running ops


class Tally:
    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.known = 0
        self.bound_ratio_max = 0.0
        self.failures: list[str] = []

    @property
    def attempted(self):
        return len(self.latencies)


def run_rounds(wl, tally, first_round, rounds=None, seconds=None, recorder=None):
    """Run whole rounds until `rounds` are done or `seconds` have passed."""
    start = time.monotonic()
    r = first_round
    while True:
        for op in wl.round(r):
            if recorder is not None:
                recorder.op = tally.attempted
            t0 = time.perf_counter()
            try:
                result = op.run()
                error = None
            except Exception as exc:  # an op that raises is a failed op
                error = exc
            elapsed = time.perf_counter() - t0
            if recorder is not None:
                recorder.op = None
            tally.latencies.append(elapsed)
            if error is not None:
                tally.failed += 1
                tally.failures.append(f"{op.kind}: raised {type(error).__name__}: {error}")
                continue
            try:
                verdict = op.check(result)
            except Exception as exc:
                raise CheckError(f"check of {op.kind} could not run: "
                                 f"{traceback.format_exc()}") from exc
            if verdict.bound_ratio is not None:
                tally.bound_ratio_max = max(tally.bound_ratio_max, verdict.bound_ratio)
            if not verdict.ok:
                tally.failed += 1
                tally.known += verdict.known
                tag = "known defect" if verdict.known else "FAILED"
                tally.failures.append(f"{op.kind}: {tag}: {verdict.detail}")
        r += 1
        if rounds is not None and r - first_round >= rounds:
            return
        if seconds is not None and time.monotonic() - start >= seconds:
            return


def timed_s(tally) -> float:
    """Timed wall time: the sum of the ops' own times (checks run outside)."""
    return sum(tally.latencies)


def probe(argv, env, reps, parse) -> list[float]:
    """Run a short child `reps` times; parse(stdout, spawn time, wall) each."""
    from workloads import spawn

    out = []
    for _ in range(reps):
        t0 = time.monotonic()
        code, stdout, stderr, _ = spawn(argv, env)
        wall = time.monotonic() - t0
        if code != 0:
            raise CheckError(f"probe {argv[1:]} failed: {stderr.strip()[-500:]}")
        out.append(parse(stdout, t0, wall))
    return out


def end_to_end(name, seed, seconds, smoke):
    from workloads import WORKLOADS

    # spawn to ready, in fresh processes (time.monotonic is system-wide)
    setups = probe([sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload",
                    name, "--seed", str(seed)] + (["--smoke"] if smoke else []),
                   dict(os.environ), 1 if smoke else SETUP_REPS,
                   lambda out, t0, wall: float(out.split()[-1]) - t0)
    wl = WORKLOADS[name](seed, smoke)
    if wl.warmup:
        run_rounds(wl, Tally(), WARMUP_ROUND, rounds=1)
    tally = Tally()
    run_rounds(wl, tally, 0, rounds=1 if smoke else None, seconds=None if smoke else seconds)
    lat = tally.latencies
    p90 = float(np.percentile(lat, 90))
    metrics = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "ops_per_s": (tally.attempted / timed_s(tally), "ops/s",
                      f"{tally.attempted} ops in {timed_s(tally):.1f} s"),
        "latency_p50_ms": (float(np.percentile(lat, 50)) * 1e3, "ms", f"{len(lat)} samples"),
        "latency_p90_ms": (p90 * 1e3, "ms",
                           f"{len(lat)} samples, {sum(v > p90 for v in lat)} beyond"),
        "ok_share": (1.0 - tally.failed / tally.attempted, "ratio",
                     f"{tally.attempted - tally.failed} of {tally.attempted} ops"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB",
                        "largest child" if name == "cli-oneshot" else "workload process"),
    }
    info = {
        "failed_share": (tally.failed / tally.attempted, "ratio",
                         f"{tally.failed} failed of {tally.attempted} attempted, "
                         f"{tally.known} of them the known defect"),
        "setup_samples_s": setups,
    }
    return tally, metrics, info


def trace_rounds(name, seconds, smoke) -> int:
    if smoke:
        return 1
    return max(1, int(seconds / (2.0 * NOMINAL_ROUND_S[name])))


def traced(name, seed, seconds, smoke, spans_path):
    """Run each round twice, untraced and traced, in alternating order so
    that drift and second-run effects cancel; per-layer metrics come from
    the traced runs only."""
    from tracer import Recorder, layer_summary
    from workloads import WORKLOADS, cli_env

    wl = WORKLOADS[name](seed, smoke)
    rounds = trace_rounds(name, seconds, smoke)
    if wl.warmup:
        run_rounds(wl, Tally(), WARMUP_ROUND, rounds=1)
    plain, tally, rec = Tally(), Tally(), Recorder()
    for r in range(rounds):
        for tracing in ((False, True) if r % 2 == 0 else (True, False)):
            if not tracing:
                run_rounds(wl, plain, r, rounds=1)
                continue
            rec.install(wl.traced_callables())
            wl.recorder = rec
            try:
                run_rounds(wl, tally, r, rounds=1, recorder=rec)
            finally:
                wl.recorder = None
                rec.uninstall()

    env = cli_env()
    reps = 1 if smoke else PROBE_REPS
    interpreter_s = statistics.median(probe([sys.executable, "-c", "pass"], env, reps,
                                            lambda out, t0, wall: wall))
    import_s = statistics.median(probe(
        [sys.executable, "-c", "import time; t = time.perf_counter(); import stieltjes; "
         "print(time.perf_counter() - t)"], env, reps, lambda out, t0, wall: float(out)))

    L = layer_summary(rec.spans)
    dm, quad, tr = L["dist_model"], L["quadrature"], L["transforms"]
    fp, mu, inv, orc, sp = L["fingerprint"], L["muntz"], L["inversion"], L["oracle"], L["specio"]
    ratio = lambda a, b, k=1.0: a / b * k if b else 0.0
    points = int(dm["size"])
    cells = int(fp["size:compute_fingerprint"])
    qn_evals = int(mu["n:qn_eval"])
    plain_rate = plain.attempted / timed_s(plain)
    traced_rate = tally.attempted / timed_s(tally)
    metrics = {
        "dist_model.points": (points, "count"),
        "dist_model.busy_s": (dm["busy_s"], "s"),
        "dist_model.ns_per_point": (ratio(dm["busy_s"], points, 1e9), "ns"),
        "quadrature.calls": (int(quad["top_calls"]), "count"),
        "quadrature.integrand_calls": (rec.integrand_calls, "count"),
        "quadrature.self_s": (quad["self_s"], "s"),
        "quadrature.points_per_call": (ratio(rec.integrand_points, quad["top_calls"]), "count"),
        "transforms.requests": (int(tr["top_calls"]), "count"),
        "transforms.self_s": (tr["self_s"], "s"),
        "transforms.bound_ratio_max": (tally.bound_ratio_max, "ratio"),
        "fingerprint.cells": (cells, "count"),
        "fingerprint.cell_ms": (ratio(fp["s:compute_fingerprint"], cells, 1e3), "ms"),
        "fingerprint.compare_s": (fp["s:compare"], "s"),
        "muntz.coeff_s": (mu["s:coefficient_triangle"], "s"),
        "muntz.qn_evals": (qn_evals, "count"),
        "muntz.qn_eval_us": (ratio(mu["s:qn_eval"], qn_evals, 1e6), "us"),
        "muntz.prec_bits": (rec.muntz_prec, "bits"),
        "inversion.oracle_calls": (int(orc["top_calls"]), "count"),
        "inversion.oracle_s": (orc["busy_s"], "s"),
        "inversion.self_s": (inv["self_s"], "s"),
        "inversion.prec_bits": (rec.inversion_prec, "bits"),
        "specio.parse_us": (ratio(sp["s:parse_spec"], sp["n:parse_spec"], 1e6), "us"),
        "cli.interpreter_s": (interpreter_s, "s"),
        "cli.import_s": (import_s, "s"),
        "cli.self_s": (rec.cli_self_s, "s"),
        "trace.overhead_share": (1.0 - traced_rate / plain_rate, "ratio"),
    }
    metrics = {k: (v, unit, f"{rounds} traced rounds, {tally.attempted} ops")
               for k, (v, unit) in metrics.items()}
    info = {"untraced_ops_per_s": plain_rate, "traced_ops_per_s": traced_rate,
            "spans": len(rec.spans), "spans_file": os.path.relpath(spans_path, ROOT)}
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    rec.dump(spans_path, {"workload": name, "seed": seed, "rounds": rounds})
    return tally, metrics, info


# ---------------------------------------------------------------------------
# entry points


def run_one(args) -> int:
    if args.trace:
        spans_path = os.path.join(ROOT, ".bench_out", f"spans-{args.workload}-seed{args.seed}.json")
        tally, metrics, info = traced(args.workload, args.seed, args.seconds, args.smoke,
                                      spans_path)
    else:
        tally, metrics, info = end_to_end(args.workload, args.seed, args.seconds, args.smoke)
    facts = machine_facts()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"load: 1 process, 1 caller, closed loop")
    print("machine " + json.dumps(facts))
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:28s} {value:>16.6g} {unit:6s} ({note})")
    for name, val in info.items():
        if isinstance(val, tuple):
            print(f"  {name:28s} {val[0]:>16.6g} {val[1]:6s} ({val[2]})")
        else:
            print(f"  {name:28s} {val}")
    for line in tally.failures[:20]:
        print(f"  failure: {line}")
    result = {
        "correct": tally.failed == tally.known,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; the last line gathers them all."""
    results, code = {}, 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            code = proc.returncode
            continue
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    if code:
        return code
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one light round per workload, for tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "stieltjes", "__init__.py")):
        sys.stderr.write(f"error: no stieltjes sources under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)

    if args.setup_probe:
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed, args.smoke)
        print(repr(time.monotonic()))
        return 0
    try:
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except CheckError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
