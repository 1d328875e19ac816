"""Acceptance gate: one test per criterion, each with its runtime budget.

Every test prints a single PASS/FAIL line (visible with -s or on failure)
so the gate reads the same here and under `resform corpus`.  Budgets are
per-criterion wall-clock limits; the whole suite stays under a minute.
"""

from resform import corpus

BUDGETS = {
    "A1": 1.0,
    "A2": 2.0,
    "A3": 10.0,
    "A4": 10.0,
    "A5": 2.0,
    "A6": 2.0,
    "A7": 10.0,
    "A8": 2.0,
    "A9": 5.0,
    "A10": 5.0,
    "A11": 2.0,
    "A12": 1.0,
    "A13": 30.0,
}

_CHECKS = dict(corpus.ACCEPTANCE)


def _run(name: str):
    budget = BUDGETS[name]
    r = corpus.run_check(name, _CHECKS[name], corpus.DEFAULT_SEED)
    ok = r.ok and r.elapsed < budget
    print(f"{name} {'PASS' if ok else 'FAIL'} ({r.elapsed:.2f}s, budget {budget:.0f}s) {r.detail}")
    assert r.ok, f"{name}: {r.detail}"
    assert r.elapsed < budget, (
        f"{name} exceeded its budget: {r.elapsed:.2f}s >= {budget:.0f}s"
    )


def test_acceptance_list_is_complete():
    assert [name for name, _ in corpus.ACCEPTANCE] == list(BUDGETS)


def test_a1_gauss_sum_squares():
    _run("A1")


def test_a2_quadratic_base_case():
    _run("A2")


def test_a3_identity_odd_p_random_quadratics():
    _run("A3")


def test_a4_fermat_disc_closed_forms():
    _run("A4")


def test_a5_char2_ordinary_quadratic():
    _run("A5")


def test_a6_char2_wild_mu2():
    _run("A6")


def test_a7_lift_independence():
    _run("A7")


def test_a8_parity_and_triviality():
    _run("A8")


def test_a9_convolution_law():
    _run("A9")


def test_a10_residue_oracle_root_sums():
    _run("A10")


def test_a11_trace_pushforward():
    _run("A11")


def test_a12_milnor_conservation():
    _run("A12")


def test_a13_binary_cubics_and_resdiv():
    _run("A13")


def test_shipped_examples_all_pass():
    for name, fn in corpus.EXAMPLES:
        r = corpus._timed(name, fn)
        assert r.ok, f"example {name}: {r.detail}"
