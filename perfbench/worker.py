"""One workload process: set up, then run ops in a closed loop.

Started by run.py, one fresh process per set-up sample and per measured or
traced pass.  Set-up time runs from --spawned-at, the parent's monotonic
clock just before it started this process, until the first op is ready,
less the benchmark's own pool loading.  The last line printed is
"RESULT <json>".

Modes:
  setup    set up and exit
  measure  untraced ops in whole cycles until --seconds have passed
  fixed    untraced ops over a fixed number of cycles
  traced   the same fixed cycles with tracer wrappers installed

In every mode but setup the reference loop runs between ops (see
reference_loop).
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402

# The reference loop runs at least this often, and after every op that
# takes longer.
PROBE_GAP_S = 0.05
_REF_MATRIX = np.arange(48 * 48, dtype=np.int64).reshape(48, 48) * 7919 % 13


def reference_loop() -> float:
    """Seconds taken by a fixed piece of work that uses no resform code.

    The machine the benchmark was built on changes speed by up to 1.6 times
    every few seconds, below the virtual machine (CPU time tracks wall time).
    Each op's time is divided by this loop's time around it, so the
    end-to-end metrics count op time in loop times.  The loop mixes
    interpreter work (integers, a dict) with small numpy row operations
    modulo a prime, as the engine does.
    """
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(6000):
        acc += i * i % 7
        table[i & 63] = acc
    m = _REF_MATRIX.copy()
    for r in range(24):
        m[r + 1:] = (m[r + 1:] - np.outer(m[r + 1:, r], m[r])) % 13
    return time.perf_counter() - t0


def flanking_loops(probes, spans):
    """For each op span (t0, t1), the mean time of the reference loops run
    last before t0 and first after t1; probes are (start, seconds) in
    start order and include one before the first op and one after the last."""
    starts = [t for t, _ in probes]
    out = []
    for t0, t1 in spans:
        before = probes[bisect.bisect_right(starts, t0) - 1][1]
        after = probes[bisect.bisect_left(starts, t1)][1]
        out.append((before + after) / 2)
    return out


def trace_cycles(wl, seconds: float) -> int:
    """Cycles in a traced run: the fixed and the traced pass fit in about
    --seconds on the reference machine, and the count depends on nothing
    measured, so two traced runs do identical work."""
    return max(1, int(seconds / (2.5 * wl.nominal_cycle_s)))


def run_ops(wl, R, pool, seed, seconds=None, n_cycles=None, recorder=None):
    """Closed loop, one op at a time, in whole cycles.

    Stops after n_cycles cycles, or after the first cycle that ends once
    `seconds` have passed.  Input preparation, a full garbage collection
    (so that no op pays for the garbage of the ones before it) and output
    checks run outside each op's timed interval, and so does the reference
    loop, run between ops.
    """
    latencies = []
    slots = []
    spans = []
    probes = []
    failures = []
    n_cycles_run = 0

    def run_probe():
        probes.append((time.perf_counter(), reference_loop()))

    run_probe()
    start = time.perf_counter()
    for cycle in W.cycles(wl, seed):
        for slot, idx in cycle:
            entry = pool[slot][idx]
            arg = wl.prepare(R, entry["in"])
            gc.collect()
            if time.perf_counter() - probes[-1][0] > PROBE_GAP_S:
                run_probe()
            if recorder is not None:
                recorder.op_id = len(latencies)
            t0 = time.perf_counter()
            try:
                out = wl.op(R, arg)
            except Exception as exc:  # an op's exception is its output; the golden record judges it
                out = {"error": type(exc).__name__}
            t1 = time.perf_counter()
            latencies.append(t1 - t0)
            slots.append(slot)
            spans.append((t0, t1))
            if t1 - t0 > PROBE_GAP_S:
                run_probe()
            problem = W.check_output(wl, entry, out)
            if problem:
                failures.append({"slot": slot, "index": idx, "problem": problem})
        n_cycles_run += 1
        if n_cycles is not None and n_cycles_run >= n_cycles:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    run_probe()
    return {
        "latencies": latencies,
        "slots": slots,
        "ref_loops": flanking_loops(probes, spans),
        "probes": len(probes),
        "failures": failures,
        "cycles": n_cycles_run,
        "pool_wrapped": W.pool_wraps(wl, n_cycles_run),
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "fixed", "traced"))
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)
    wl = W.WORKLOADS[args.workload]

    t0 = time.perf_counter()
    pool = W.load_pool(wl)
    prep_s = time.perf_counter() - t0

    R = W.Engine()
    recorder = None
    if args.mode == "traced":
        import tracer

        recorder = tracer.Recorder()
        recorder.install()
    W.set_up(R, wl)
    setup_s = time.monotonic() - args.spawned_at - prep_s
    # What set-up built lives as long as the process; the collections
    # between ops need not walk it again.
    gc.freeze()
    if args.mode == "setup":
        print("RESULT " + json.dumps({"setup_s": setup_s}), flush=True)
        return 0

    if args.mode == "measure":
        res = run_ops(wl, R, pool, args.seed, seconds=args.seconds)
    else:
        res = run_ops(wl, R, pool, args.seed, n_cycles=trace_cycles(wl, args.seconds),
                      recorder=recorder)
    res["setup_s"] = setup_s
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if recorder is not None:
        recorder.uninstall()
        res["layers"] = tracer.summarize(recorder.spans, len(res["latencies"]),
                                         sum(res["latencies"]))
        res["spans"] = len(recorder.spans)
        if args.trace_out:
            recorder.write(args.trace_out)
    print("RESULT " + json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
