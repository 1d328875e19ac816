"""Generate the input pools and record their golden outputs.

    python3 perfbench/make_golden.py [--workload NAME ...]

Run from the repository root on the engine whose outputs are to be taken as
correct.  Every recorded output must also pass the workload's independent
checks; otherwise nothing is written.  Re-record only when an output is
meant to change, and say so in the change that does it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads as W  # noqa: E402


def generate_pool(wl, R) -> dict:
    """Pool inputs per slot, deterministic in POOL_SEED.

    A slot draws until it has a new input, and accepts a repeat only when
    its input space is nearly exhausted (one-variable forms over F_13, say).
    """
    slots = {}
    for name, size, shape in wl.slots:
        rng = random.Random(f"{W.POOL_SEED}/{wl.name}/{name}")
        seen = set()
        entries = []
        while len(entries) < size:
            for _ in range(50):
                inp = wl.generate(rng, shape, R)
                if W.canonical(inp) not in seen:
                    break
            seen.add(W.canonical(inp))
            entries.append(inp)
        slots[name] = entries
    return slots


def record(wl, R) -> dict:
    shapes = {name: shape for name, _, shape in wl.slots}
    out_slots = {}
    for name, inputs in generate_pool(wl, R).items():
        entries = []
        for inp in inputs:
            try:
                out = wl.op(R, wl.prepare(R, inp))
            except Exception as exc:  # recorded as the op's output, as the benchmark does
                out = {"error": type(exc).__name__}
            problem = wl.check(inp, out)
            if problem:
                raise SystemExit(f"{wl.name}/{name}: {inp}: {problem}")
            drawn = {k: v for k, v in inp.items() if k not in shapes[name]}
            entries.append([drawn, W.digest(out)])
        out_slots[name] = entries
        print(f"{wl.name}/{name}: {len(entries)} entries", flush=True)
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                            text=True).stdout.strip()
    return {
        "workload": wl.name,
        "pool_seed": W.POOL_SEED,
        "recorded_on": {"commit": commit, "python": platform.python_version()},
        "slots": out_slots,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", choices=sorted(W.WORKLOADS))
    args = ap.parse_args()
    R = W.Engine()
    for name in args.workload or sorted(W.WORKLOADS):
        wl = W.WORKLOADS[name]
        data = record(wl, R)
        os.makedirs(W.GOLDEN_DIR, exist_ok=True)
        with open(os.path.join(W.GOLDEN_DIR, f"{name}.json"), "w") as fh:
            json.dump(data, fh, separators=(",", ":"))
            fh.write("\n")


if __name__ == "__main__":
    main()
