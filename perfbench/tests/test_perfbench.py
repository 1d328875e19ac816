"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests
"""

import itertools
import json
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import make_golden  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402

QUAD = W.WORKLOADS["quadratic-sweep"]


def test_benchmark_json_names_the_workloads_and_layers_of_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    # nonisolated-reject stays runnable but is not measured (see NOTES.md)
    assert [w["name"] for w in bench["workloads"]] == [
        "fermat-large-mu", "quadratic-sweep", "char2-witt"]
    assert {m["name"] for m in bench["end_to_end"]} == set(run.END_TO_END)
    layers = [(n, u, b) for n, u, b in tracer.LAYER_METRICS]
    layers.append(("bench.trace.overhead_frac", "ratio", "lower"))
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == layers


def _sequence(wl, seed, n=6):
    return list(itertools.islice(W.cycles(wl, seed), n))


def test_same_seed_same_inputs():
    for wl in W.WORKLOADS.values():
        assert _sequence(wl, 3) == _sequence(wl, 3)
        assert _sequence(wl, 3) != _sequence(wl, 4)


def test_every_cycle_serves_every_slot_once_without_repeats():
    for wl in W.WORKLOADS.values():
        want = sorted(s for s, _, _ in wl.slots)
        served = []
        for cycle in _sequence(wl, 11):
            assert sorted(s for s, _ in cycle) == want
            served += cycle
        assert len(set(served)) == len(served)


def test_stored_pools_match_their_generators():
    # char2-witt's generators call the engine to reject singular inputs; the
    # other three are pure and cheap to regenerate.
    for name in ("fermat-large-mu", "quadratic-sweep", "nonisolated-reject"):
        wl = W.WORKLOADS[name]
        stored = W.load_pool(wl)
        fresh = make_golden.generate_pool(wl, None)
        assert {s: [e["in"] for e in entries] for s, entries in stored.items()} == fresh


def _first(wl, slot):
    return W.load_pool(wl)[slot][0]


def test_golden_comparison_flags_an_altered_output():
    R = W.Engine()
    entry = _first(QUAD, "d2-F5")
    out = QUAD.op(R, QUAD.prepare(R, entry["in"]))
    assert W.check_output(QUAD, entry, out) is None
    altered = dict(out, stdout=out["stdout"].replace('"PASS"', '"FAIL"'))
    assert altered != out
    assert "golden" in W.check_output(QUAD, entry, altered)
    assert W.check_output(QUAD, entry, {"error": "NotIsolated"}) is not None


def test_independent_checks_flag_altered_outputs():
    fermat = W.WORKLOADS["fermat-large-mu"]
    R = W.Engine()
    inp = _first(fermat, "2v-d4-F7")["in"]
    out = fermat.op(R, fermat.prepare(R, inp))
    assert fermat.check(inp, out) is None
    flipped = dict(out, geometric=dict(out["geometric"], sign=-out["geometric"]["sign"]))
    assert "closed form" in fermat.check(inp, flipped)

    char2 = W.WORKLOADS["char2-witt"]
    inp = dict(_first(char2, "oq-F8")["in"])
    out = char2.op(R, char2.prepare(R, inp))
    assert char2.check(inp, out) is None
    flipped = dict(out, arf=dict(out["arf"], trace_bit=1 - out["arf"]["trace_bit"]))
    assert "Tr(a)" in char2.check(inp, flipped)

    rej = W.WORKLOADS["nonisolated-reject"]
    assert rej.check({}, {"error": "NotIsolated"}) is None
    assert rej.check({}, {"error": "MemoryError"}) is not None


def test_quadratic_generator_never_emits_a_degenerate_form():
    for seed in range(200):
        rng = random.Random(seed)
        for _, _, shape in QUAD.slots:
            inp = W.generate_quadratic(rng, shape)
            if shape["mixed"]:
                assert oracle.quad_det(shape["p"], shape["n"], inp["diag"], inp["cross"]) != 0
            else:
                assert all(inp["diag"])
    for entries in W.load_pool(QUAD).values():
        for e in entries:
            inp = e["in"]
            if inp["mixed"]:
                assert oracle.quad_det(inp["p"], inp["n"], inp["diag"], inp["cross"]) != 0


def test_quad_det_matches_the_milnor_number():
    # mu = 1 exactly when the form is nondegenerate; x^2 + 2xy + y^2 over F_5
    # is (x + y)^2 and must come out degenerate.
    assert oracle.quad_det(5, 2, [1, 1], [[0, 1, 2]]) == 0
    R = W.Engine()
    rng = random.Random(5)
    for _ in range(20):
        inp = W.generate_quadratic(rng, {"p": 7, "m": 1, "n": 2, "mixed": True})
        field = R.gfield.gf_create(7, 1)
        f = R.mpoly.parse_poly(W.quadratic_text(inp), field, ["x", "y"])
        assert R.milnor.milnor_algebra(f).mu == 1


def test_percentile_is_nearest_rank_and_counts_the_samples_beyond():
    xs = [float(i) for i in range(200)]
    assert run.percentile(xs, 95.0) == (189.0, 10)
    assert run.percentile(list(reversed(xs)), 50.0) == (99.0, 100)
    assert run.percentile([3.0], 99.0) == (3.0, 0)


def test_cycle_median_sums_each_slots_median():
    values = [1.0, 2.0, 9.0, 10.0, 30.0, 11.0]
    slots = ["a", "a", "a", "b", "b", "b"]
    assert run.cycle_median(values, slots) == 2.0 + 11.0


def test_each_op_is_scaled_by_the_reference_loops_around_it():
    probes = [(0.0, 1.0), (1.0, 3.0), (5.0, 5.0)]
    spans = [(0.5, 0.9), (1.5, 4.0), (4.5, 4.6)]
    assert worker.flanking_loops(probes, spans) == [2.0, 4.0, 4.0]
    assert worker.reference_loop() > 0


_PROBE = """
import json, sys, time
sys.path.insert(0, {bench!r})
import io, contextlib
import worker
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    worker.main(["--workload", "quadratic-sweep", "--seed", "1", "--seconds", "0.01",
                 "--mode", {mode!r}, "--spawned-at", repr(time.monotonic())])
wrapped = sorted(
    f"{{name}}.{{attr}}"
    for name, mod in list(sys.modules.items()) if name.startswith("resform")
    for attr, val in vars(mod).items() if hasattr(val, "__wrapped__"))
res = json.loads(buf.getvalue().splitlines()[-1][len("RESULT "):])
print(json.dumps({{"tracer": "tracer" in sys.modules, "wrapped": wrapped,
                  "ops": len(res["latencies"]), "failures": res["failures"],
                  "layers": res.get("layers")}}))
"""


def _probe(mode):
    out = subprocess.run([sys.executable, "-c", _PROBE.format(bench=BENCH, mode=mode)],
                         capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_a_measurement_run_installs_no_wrappers():
    res = _probe("measure")
    assert res["ops"] >= len(QUAD.slots)
    assert res["failures"] == []
    assert res["tracer"] is False
    assert res["wrapped"] == []


def test_a_traced_run_repeats_its_counts_and_removes_its_wrappers():
    first, second = _probe("traced"), _probe("traced")
    assert first["tracer"] is True and first["wrapped"] == []
    assert first["failures"] == []
    counts = [name for name, (_, unit) in first["layers"].items() if unit in ("count", "1/op")]
    assert counts
    for name in counts + ["epsilon.checked_frac", "residue.engine_cache.hit_frac"]:
        assert first["layers"][name] == second["layers"][name], name
    assert first["layers"]["cli.main.self_s"][0] > 0
