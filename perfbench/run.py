"""resform benchmark: one run of one workload, or of all of them in turn.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from src/.  Each
workload runs as a closed loop, one client, one op at a time, in a fresh
process of its own.  With --trace 0 the run reports the end-to-end metrics:
set-up time is the median over SETUP_SAMPLES fresh processes, and the ops
run untraced for --seconds, their times counted in units of the reference
loop timed around them (worker.reference_loop).  With --trace 1 it runs a fixed op list twice
in fresh processes, untraced and then traced, and reports the per-layer
metrics with the tracing overhead.  Every op's output is compared with the
golden record and the workload's independent checks.  The last line of
standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 3
# what --trace 0 reports, in the order printed
END_TO_END = ("setup_s", "cycle_p50_ref", "op_tail_ref", "throughput_kref", "peak_rss_mb")
RUN_BUDGET_S = 170
TRACE_DIR = ".perfbench_out"


class ChildFailed(Exception):
    pass


def run_child(workload, args, mode, deadline, extra=()):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed(f"no time left for the {mode} process")
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--spawned-at", repr(time.monotonic()), *extra]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} process did not finish in time")
    finally:
        # also on SIGTERM (see main) and ^C: leave no worker running
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("RESULT "):
        sys.stderr.write(err)
        raise ChildFailed(f"{mode} process exited with code {proc.returncode}")
    return json.loads(lines[-1][len("RESULT "):])


def percentile(values, pct):
    """(value, samples above it): the nearest-rank percentile."""
    xs = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(xs)))
    return xs[rank - 1], len(xs) - rank


def ref_total(res):
    """A worker result's op time in reference loops."""
    return sum(t / loop for t, loop in zip(res["latencies"], res["ref_loops"]))


def cycle_median(values, slots):
    """Sum over the slots of each slot's median: one pass over the mix."""
    by_slot = {}
    for v, slot in zip(values, slots):
        by_slot.setdefault(slot, []).append(v)
    return sum(statistics.median(vs) for vs in by_slot.values())


def machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "missing"
    return (f"nproc={os.cpu_count()} cpu={model!r} python={platform.python_version()} "
            f"numpy={numpy}")


def report_failures(res):
    for f in res["failures"][:5]:
        print(f"  failed op: {f['slot']}[{f['index']}]: {f['problem']}")


def end_to_end(workload, args, deadline):
    setups = [run_child(workload, args, "setup", deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    res = run_child(workload, args, "measure", deadline)
    setups.append(res["setup_s"])
    lat, slots, loops = res["latencies"], res["slots"], res["ref_loops"]
    ref = [t / loop for t, loop in zip(lat, loops)]
    n = len(lat)
    failed = len(res["failures"])
    pct = WORKLOADS[workload].tail_pct
    tail_ref, beyond = percentile(ref, pct)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "cycle_p50_ref": (cycle_median(ref, slots), "ref"),
        "op_tail_ref": (tail_ref, "ref"),
        "throughput_kref": ((n - failed) / sum(ref) * 1e3, "1/kref"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    assert tuple(metrics) == END_TO_END
    for name, (value, unit) in metrics.items():
        print(f"{name:<18} {value:12.4f} {unit}")
    print(f"{'failed_frac':<18} {failed / n:12.4f} ratio ({failed} of {n} ops)")
    print("wall-clock figures, not speed-adjusted:")
    print(f"{'op_p50_ms':<18} {statistics.median(lat) * 1e3:12.4f} ms")
    print(f"{'op_tail_ms':<18} {percentile(lat, pct)[0] * 1e3:12.4f} ms")
    print(f"{'throughput_ops_s':<18} {(n - failed) / sum(lat):12.4f} ops/s")
    print(f"{'ref_loop_ms':<18} {statistics.median(loops) * 1e3:12.4f} ms "
          f"(median over ops; {res['probes']} loops run)")
    note = "" if beyond >= 10 else " (fewer than 10: too few ops for this percentile)"
    print(f"tails are p{pct:g} of {n} ops, {beyond} beyond{note}; {res['cycles']} cycles; "
          f"setup samples {sorted(round(s, 4) for s in setups)}")
    if res["pool_wrapped"]:
        print("note: the run outlasted the input pool, so later ops repeat inputs")
    report_failures(res)
    return n, failed, metrics


def per_layer(workload, args, deadline):
    plain = run_child(workload, args, "fixed", deadline)
    os.makedirs(TRACE_DIR, exist_ok=True)
    trace_path = os.path.join(TRACE_DIR, f"trace-{workload}-seed{args.seed}.json")
    traced = run_child(workload, args, "traced", deadline, ("--trace-out", trace_path))
    overhead = ref_total(traced) / ref_total(plain) - 1
    metrics = {name: tuple(vu) for name, vu in traced["layers"].items()}
    metrics["bench.trace.overhead_frac"] = (overhead, "ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name:<38} {value:14.6g} {unit}")
    n = len(plain["latencies"]) + len(traced["latencies"])
    print(f"{len(traced['latencies'])} ops traced, {traced['spans']} spans written to {trace_path}")
    report_failures(plain)
    report_failures(traced)
    return n, len(plain["failures"]) + len(traced["failures"]), metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join("src", "resform", "__init__.py")):
        print("run from the repository root: src/resform is missing", file=sys.stderr)
        return 2
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    run = per_layer if args.trace else end_to_end
    attempted = failed = 0
    metrics = {}
    for name in names:
        print(f"workload {name}, seed {args.seed}: closed loop, 1 client, 1 process; "
              f"{machine()}")
        try:
            n, f, wl_metrics = run(name, args, time.monotonic() + RUN_BUDGET_S)
        except ChildFailed as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        attempted += n
        failed += f
        prefix = f"{name}/" if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in wl_metrics.items()})
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
