"""wasserlim benchmark: seeded closed-loop workloads with checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
The workloads are ``transport-euclid``, ``curvature-dyadic`` and
``cli-files``: bench/workloads.py defines them, bench/rationale.json says
why each exists and what each layer should move, and bench/baseline.json
holds the first measured baseline.

One client runs operations back to back until their summed wall time
reaches ``--seconds``, stopping only at the end of a cycle through the
workload's operation kinds. Inputs come from ``--seed`` and the operation
index, are made before each timed interval and are checked after it, so
neither counts as operation time.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. Set-up
time is the median of SETUP_REPEATS fresh processes, each timed from its
start until it could run its first operation.

``--trace 1`` runs every operation twice on the same inputs, once plain
and once with a span around each call into a wasserlim layer (the order
alternates), and reports the per-layer metrics of BENCHMARK.json per
operation, plus the tracing overhead: the plain rate minus the traced
rate, in operations per second. Spans are written to
.bench_work/spans-<workload>.npz.

Every run also writes its full record, environment included, to
.bench_work/result-<workload>-seed<N>-trace<T>.json. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics. The exit code is nonzero, and no such line is printed, when
the run cannot be made at all.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
THREAD_VARS = ("WASSERLIM_THREADS",) + BLAS_VARS
#: Units of the values printed beside the metrics of BENCHMARK.json.
EXTRA_UNITS = {"ops_failed_frac": "1", "trace.ops_per_s_plain": "1/s",
               "trace.ops_per_s_traced": "1/s"}


def pin_threads() -> dict:
    """Clear WASSERLIM_THREADS and cap BLAS threads at nproc, before numpy
    loads; returns the settings inherited from the shell."""
    inherited = {var: os.environ.get(var) for var in THREAD_VARS}
    os.environ.pop("WASSERLIM_THREADS", None)
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return inherited


def import_package():
    """Import wasserlim from this checkout's src/, and only from there."""
    src = ROOT / "src"
    if not (src / "wasserlim" / "__init__.py").is_file():
        sys.exit(f"bench: no wasserlim sources under {src}")
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent)]
    import wasserlim

    if Path(wasserlim.__file__).resolve().parent != (src / "wasserlim").resolve():
        sys.exit(f"bench: wasserlim was imported from {wasserlim.__file__}, not {src}")


def environment(seed: int, inherited: dict) -> dict:
    import numpy
    import scipy

    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "click": metadata.version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "threads_inherited": inherited,
    }


def measure_setup(args) -> list[float]:
    """Wall seconds from the start of a fresh process to its readiness."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            sys.exit(f"bench: set-up probe failed with exit code {proc.returncode}")
    return samples


def timed(fn, inp):
    gc.collect()
    t0 = time.perf_counter()
    try:
        out = fn(inp)
    except Exception:  # an operation that raises is a failed operation
        out = traceback.format_exc(limit=3)
    return out, time.perf_counter() - t0


def run_ops(wl, seconds: float, tracer):
    """The timed phase: returns one record per operation, plus the first
    checked (inputs, output) of each kind for the checker self-test."""
    records, samples = [], {}
    measured = 0.0
    i = 0
    while i % len(wl.kinds) or measured < seconds or i < 2:
        kind = wl.kinds[i % len(wl.kinds)]
        inp = wl.prepare(i)
        if tracer is None:
            out, t = timed(wl.run, inp)
            rec = {"kind": kind, "t": t}
            measured += t
        else:
            # The traced output is the one checked. Which execution goes
            # first alternates, so neither always inherits the other's caches.
            rec = {"kind": kind}
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    with tracer.installed(i):
                        out, rec["t_traced"] = timed(wl.run, inp)
                else:
                    plain, rec["t"] = timed(wl.run, inp)
            measured += rec["t"] + rec["t_traced"]
            if isinstance(plain, str):
                out = plain
        if isinstance(out, str):
            rec["problems"] = [f"raised: {out.strip().splitlines()[-1]}"]
        else:
            output = wl.collect(inp, out)
            rec["problems"] = wl.check(inp, output)
            if not rec["problems"]:
                samples.setdefault(kind, (inp, output))
        records.append(rec)
        i += 1
    return records, samples


def self_test(wl, samples) -> list[str]:
    """Planted wrong results that the checks failed to reject."""
    missed = []
    for kind, (inp, output) in samples.items():
        for label, bad in wl.planted(inp, output).items():
            if not wl.check(inp, bad):
                missed.append(f"{kind}: {label}")
    if not samples:
        missed.append("no checked operation to plant errors in")
    return missed


def end_to_end(records, setup_samples) -> dict:
    times = [r["t"] for r in records]
    return {
        "ops_per_s": len(times) / sum(times),
        "op_p50_s": statistics.median(times),
        "op_p90_s": statistics.quantiles(times, n=10, method="inclusive")[8],
        "ops_failed_frac": sum(bool(r["problems"]) for r in records) / len(records),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, records, probe) -> dict:
    """Every per-layer metric, per operation, from the traced executions."""
    from tracing import COUNTERS
    from workloads import TransportEuclid

    n = len(records)
    totals = tracer.totals()
    out = {}
    for span, (secs, calls) in totals.items():
        out[f"{span}.self_s"] = secs / n
        out[f"{span}.calls"] = calls / n
    for key in COUNTERS:
        out[key] = tracer.counts[key] / n
    for kind in TransportEuclid.kinds:
        ops = [i for i, r in enumerate(records) if r["kind"] == kind]
        durations = tracer.root_durations("transport.wasserstein_p", ops)
        out[f"transport.solve_s.{kind}"] = statistics.median(durations) if durations else 0.0
    plain = n / sum(r["t"] for r in records)
    out["trace.ops_per_s_plain"] = plain
    out["trace.ops_per_s_traced"] = n / sum(r["t_traced"] for r in records)
    out["trace.overhead_ops_per_s"] = plain - out["trace.ops_per_s_traced"]
    out["transport.scale_probe_wrong"] = sum(
        bool(p["problems"]) for p in probe if p["known_defect"])
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    inherited = pin_threads()
    import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        if args.setup_probe:
            WORKLOADS[args.workload](args.seed, workdir)
            print("ready", flush=True)
            return 0
        setup_samples = measure_setup(args) if args.trace == 0 else []
        wl = WORKLOADS[args.workload](args.seed, workdir)
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        records, samples = run_ops(wl, args.seconds, tracer)
        probe = wl.probe()
        missed = self_test(wl, samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checked = records + [p for p in probe if not p["known_defect"]]
    failed = sum(bool(r["problems"]) for r in checked)
    WORK.mkdir(exist_ok=True)
    if args.trace:
        values = per_layer(tracer, records, probe)
        wanted = spec["per_layer"]
        tracer.write(WORK / f"spans-{args.workload}.npz")
    else:
        values = end_to_end(records, setup_samples)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"bench: {args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(records)} failed={failed}/{len(checked)}")
    units = dict({m["name"]: m["unit"] for m in wanted}, **EXTRA_UNITS)
    for name, unit in units.items():
        if name in values:
            print(f"  {name:<44} {values[name]:.6g} {unit}")
    if args.trace == 0:
        print(f"  setup samples (s): {', '.join(f'{s:.4f}' for s in setup_samples)}")
    else:
        plain = values["trace.ops_per_s_plain"]
        print(f"  tracing overhead: {values['trace.overhead_ops_per_s'] / plain:.1%} "
              f"of the plain rate")
    for p in probe:
        verdict = "ok" if not p["problems"] else (
            "WRONG (known defect: small distance scales)" if p["known_defect"] else "WRONG")
        print(f"  scale probe s={p['scale']:g}: W_2 = {float(p['value'])!r} {verdict}")
    problems = [f"op {k} ({r['kind']}): {msg}" for k, r in enumerate(records)
                for msg in r["problems"]]
    problems += [f"scale probe s={p['scale']:g}: {msg}" for p in probe
                 if not p["known_defect"] for msg in p["problems"]]
    for line in problems[:20]:
        print(f"  FAILED {line}")
    for label in missed:
        print(f"  SELF-TEST: check accepted a planted error: {label}")

    env = environment(args.seed, inherited)
    print("env: " + json.dumps(env, sort_keys=True))
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "env": env, "metrics": values, "setup_samples": setup_samples,
              "ops": records, "scale_probe": probe, "self_test_missed": missed}
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0 and not missed, "attempted": len(checked),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
