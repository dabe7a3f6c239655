"""One benchmark workload in a fresh process: warm-up, closed loop, checks.

``bench/run.py`` starts this script with the BLAS and OpenMP thread counts
set to 1.  It runs one client in a closed loop: the next op starts when the
previous one and its output check have finished.  Only the ops are timed;
the checks run between the timed intervals.  The loop stops at the first
cycle boundary after the timed intervals add up to ``--seconds``.  With
``--trace 1`` the untraced loop gets half of that time, and a second loop
over the same ops, with spans installed, gets the other half.

After the loops, each of the workload's probe ops, which hit a known
defect, runs once untimed, and the result records whether it still shows
the defect.

The last line of standard output is a JSON object with the run's counts,
metrics and versions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import omrouter  # noqa: E402
from tracing import PER_LAYER_UNITS, Tracer, layer_metrics  # noqa: E402
from workloads import OP_DIR, WORKLOADS  # noqa: E402

# Oracle ops in the first cycles are also compared with the closed form;
# not in the traced loop, whose spans would count the comparison's calls.
SPOT_CHECK_CYCLES = 2
# Untimed ops run first, so that lazy imports and caches settle.
WARMUP_OPS = 4
# latency_p50_ms is the median over blocks of this many consecutive ops of
# the mean op latency in the block.  On a shared host single ops take one
# of two speeds, fast or slow, in a mix that changes from minute to minute;
# the median of single ops jumps between the two as the mix passes one
# half, the median of block means moves with the mix.
BLOCK_OPS = 16
# The gated latency tail is this percentile.  The highest percentile with
# TAIL_BEYOND samples beyond it (p98.9 on branch_map) is recorded too, but
# host noise spreads it by 0.3 to 0.5 of its median from run to run.
TAIL_PERCENTILE = 90
TAIL_BEYOND = 10
# Reasons of unexpected failures kept in the result, at most.
MAX_REASONS = 5


def run_loop(workload, seconds: float, workdir: Path,
             tracer: Tracer | None = None) -> dict:
    op_dir = workdir / OP_DIR
    latencies: list[float] = []
    kinds: dict[str, int] = {}
    unexpected: list[str] = []
    passed = bytes_written = minor_faults = 0
    busy = sys_seconds = 0.0
    k = 0
    while True:
        op = workload.op(k)
        if op_dir.exists():
            shutil.rmtree(op_dir)
        if tracer is not None:
            tracer.begin_op(k)
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        try:
            outcome = op.run()
        except Exception as exc:  # an op that raises is a failed op
            outcome = exc
        elapsed = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        sys_seconds += after.ru_stime - before.ru_stime
        minor_faults += after.ru_minflt - before.ru_minflt
        busy += elapsed
        latencies.append(elapsed)
        kinds[op.kind] = kinds.get(op.kind, 0) + 1

        if isinstance(outcome, Exception):
            reason = f"{type(outcome).__name__}: {outcome}"
        else:
            try:
                reason = op.check(outcome)
                if (reason is None and op.spot_check is not None
                        and tracer is None
                        and k < SPOT_CHECK_CYCLES * workload.cycle):
                    reason = op.spot_check()
            except (OSError, ValueError, KeyError) as exc:
                reason = f"check: {type(exc).__name__}: {exc}"
        if reason is None:
            passed += 1
        elif len(unexpected) < MAX_REASONS:
            unexpected.append(f"op {k} ({op.kind}): {reason}")
        if op_dir.exists():
            bytes_written += sum(e.stat().st_size
                                 for e in os.scandir(op_dir) if e.is_file())
        k += 1
        if k % workload.cycle == 0 and busy >= seconds:
            break

    ordered = sorted(latencies)
    n = len(ordered)
    blocks = [statistics.fmean(latencies[i:i + BLOCK_OPS])
              for i in range(0, n - BLOCK_OPS + 1, BLOCK_OPS)]
    extreme = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return {
        "attempted": n,
        "passed": passed,
        "failed": n - passed,
        "unexpected": unexpected,
        "kinds": kinds,
        "op_seconds": busy,
        "sys_seconds": sys_seconds,
        "minor_faults": minor_faults,
        "bytes_written": bytes_written,
        "ops_per_s": passed / busy,
        "latency_p50_ms": 1e3 * statistics.median(blocks or latencies),
        "latency_op_p50_ms": 1e3 * statistics.median(ordered),
        "block_ops": BLOCK_OPS,
        "latency_tail_ms": 1e3 * ordered[
            math.ceil(TAIL_PERCENTILE / 100 * n) - 1],
        "extreme_tail_ms": 1e3 * ordered[extreme],
        "extreme_tail_percentile": 100.0 * (extreme + 1) / n,
        "extreme_tail_beyond": n - extreme - 1,
        "latencies_ms": [round(1e3 * t, 3) for t in latencies],
    }


def run_probes(workload) -> list[dict]:
    """Each probe op once, untimed: ``reproduced`` while it still hits its
    known defect, ``passed`` once the defect is gone, else ``failed``."""
    results = []
    for op in workload.probes():
        try:
            outcome = op.run()
        except Exception as exc:  # the branch_map defect raises
            outcome = exc
        if isinstance(outcome, Exception):
            reason = f"{type(outcome).__name__}: {outcome}"
        else:
            try:
                reason = op.check(outcome)
            except (OSError, ValueError, KeyError) as exc:
                reason = f"check: {type(exc).__name__}: {exc}"
        status = ("passed" if reason is None else
                  "reproduced" if op.known_defect(outcome) else "failed")
        results.append({"kind": op.kind, "status": status,
                        "reason": reason})
    return results


def blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path,
                        help="file the traced run writes its spans to")
    args = parser.parse_args(argv)

    if not Path(omrouter.__file__).resolve().is_relative_to(SRC):
        print(f"omrouter imported from {omrouter.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    for k in range(WARMUP_OPS):
        try:
            workload.op(k).run()
        except Exception:  # the timed loop runs and checks this op again
            pass
    # a traced invocation splits its time between the two loops
    seconds = args.seconds / 2 if args.trace else args.seconds
    result = run_loop(workload, seconds, args.workdir)
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss * 1024 / 1e6)
    result["versions"] = {"python": platform.python_version(),
                          "numpy": np.__version__, "blas": blas_version()}

    if args.trace:
        tracer = Tracer()
        tracer.install()
        traced = run_loop(workload, seconds, args.workdir, tracer)
        layers = layer_metrics(tracer.spans, traced["attempted"],
                               traced["op_seconds"], traced["bytes_written"])
        layers["trace.overhead_ratio"] = (traced["ops_per_s"]
                                          / result["ops_per_s"])
        layers["process.sys_share"] = (traced["sys_seconds"]
                                       / traced["op_seconds"])
        layers["process.minor_faults_per_op"] = (traced["minor_faults"]
                                                 / traced["attempted"])
        result["untraced"] = {k: result[k] for k in
                              ("attempted", "ops_per_s", "latency_p50_ms")}
        result.update(traced)
        result["per_layer"] = {name: {"value": layers[name], "unit": unit}
                               for name, unit in PER_LAYER_UNITS.items()}
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            args.spans.write_text(json.dumps({
                "fields": ["op", "name", "layer", "parent", "start", "end",
                           "error", "counts"],
                "spans": tracer.spans}) + "\n", encoding="utf-8")
    result["probes"] = run_probes(workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
