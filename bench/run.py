"""Benchmark of omrouter: one workload, end to end or per layer.

    python3 bench/run.py --workload route --seed 1 --seconds 20 --trace 0

Workloads (see bench/README.md for why each exists):

* ``route``: ``omrouter route`` at stratified microwave powers;
* ``spectra``: the figure, spectrum and validate commands, closed form and
  oracle, on seeded operating points;
* ``branch_map``: branch enumeration and the ramped steady-state solve on
  random parameter sets.

The workload runs in a fresh single-threaded child process (``worker.py``)
as a closed loop with one client, and every op's output is checked.  With
``--trace 0`` the result holds the end-to-end metrics; ``setup_s`` is the
median time of several fresh interpreters that import omrouter and resolve
the reference configuration.  With ``--trace 1`` the result holds the
per-layer metrics of a second, traced loop over the same ops.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
with the environment, goes to ``bench/results/``; ``bench/compare.py``
compares two sets of such records.  Run from the root of a checkout that
holds ``src/omrouter``; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORK = BENCH / "work"

WORKLOADS = ("route", "spectra", "branch_map")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# setup_s: fresh interpreters timed after one untimed one that fills the
# bytecode and file caches; the reported value is their median.
SETUP_RUNS = 15
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import omrouter; "
              "omrouter.parse_config(env={}).system_params()")

# Every invocation ends within this many seconds, including its children.
TIME_LIMIT = 175.0

END_TO_END_UNITS = {
    "ops_per_s": "op/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "passed_ratio": "1",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def child_env() -> dict[str, str]:
    """Environment of every child: one BLAS/OpenMP thread, and no
    ``OMROUTER_*`` variables, which would change the configuration."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("OMROUTER_")}
    env.update({name: "1" for name in THREAD_VARS})
    return env


def measure_setup(deadline: float) -> list[float]:
    times = []
    for i in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
        if i > 0:
            times.append(elapsed)
    return times


def git_commit() -> str | None:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(
                encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_worker(args, deadline: float) -> dict:
    tag = f"{args.workload}-seed{args.seed}"
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(WORK / tag)]
    if args.trace:
        cmd += ["--spans", str(RESULTS / f"spans-{tag}.json")]
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True,
                              text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def report(record: dict) -> None:
    """Human-readable summary, printed before the JSON line."""
    env, run = record["environment"], record["run"]
    print(f"workload {record['workload']}  seed {env['seed']}  "
          f"trace {record['trace']}  commit {env['git_commit']}  "
          f"python {env['python']}  numpy {env['numpy']}  "
          f"blas {env['blas']}  cpus {env['cpu_count']}  "
          f"load {env['loadavg_start'][0]:.2f}")
    kinds = ", ".join(f"{k} {v}" for k, v in run["kinds"].items())
    print(f"  ops {run['attempted']} ({kinds}), "
          f"passed {run['passed']}, failed {run['failed']}, failed_ratio "
          f"{run['failed'] / run['attempted']:.4f}")
    for reason in run["unexpected"]:
        print(f"  failure: {reason}")
    for probe in run["probes"]:
        print(f"  known-defect probe ({probe['kind']}): {probe['status']}"
              + (f", {probe['reason']}" if probe["reason"] else ""))
    for name, metric in record["metrics"].items():
        note = ""
        if name == "latency_p50_ms":
            note = (f"  (median of {run['block_ops']}-op block means; "
                    f"single ops {run['latency_op_p50_ms']:.6g} ms)")
        elif name == "latency_tail_ms":
            note = (f"  (p90 of n={run['attempted']}; "
                    f"p{run['extreme_tail_percentile']:.2f}, "
                    f"{run['extreme_tail_beyond']} beyond, "
                    f"{run['extreme_tail_ms']:.6g} ms)")
        elif name == "setup_s":
            note = f"  (median of {SETUP_RUNS} interpreters)"
        print(f"  {name:<40} {metric['value']:.6g} {metric['unit']}{note}")
    print("  waiting time: none, one thread serves one closed-loop client "
          "with no queue")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="omrouter benchmark: one workload, end to end "
                    "(--trace 0) or per layer (--trace 1).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed op time to measure, in whole cycles")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "omrouter" / "__init__.py").is_file():
        print(f"no omrouter sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT
    environment = {"seed": args.seed, "loadavg_start": os.getloadavg(),
                   "cpu_count": os.cpu_count(), "git_commit": git_commit(),
                   "python": platform.python_version()}
    try:
        setup = [] if args.trace else measure_setup(deadline)
        run = run_worker(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    environment.update(run.pop("versions"))

    if args.trace:
        metrics = run.pop("per_layer")
    else:
        values = {k: run[k] for k in
                  ("ops_per_s", "latency_p50_ms", "latency_tail_ms",
                   "peak_rss_mb")}
        values["passed_ratio"] = run["passed"] / run["attempted"]
        values["setup_s"] = statistics.median(setup)
        run["setup_runs_s"] = setup
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    # a probe may show its known defect or pass, once the defect is fixed
    correct = run["failed"] == 0 and all(
        probe["status"] != "failed" for probe in run["probes"])
    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "correct": correct,
              "environment": environment, "metrics": metrics, "run": run}

    RESULTS.mkdir(exist_ok=True)
    name = f"result-{args.workload}-trace{args.trace}-seed{args.seed}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n",
                                encoding="utf-8")
    report(record)
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
