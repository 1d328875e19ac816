import hashlib
import json
import pathlib
import time
import tracemalloc

import pytest

import make_cli_outputs
from resform import catalog, cli, corpus, milnor
from resform.mpoly import MultiPoly


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_milnor_command(capsys):
    code, payload = run_json(capsys, "milnor", "--p", "7",
                             "--vars", "x", "--poly", "x^3")
    assert code == 0
    assert payload["mu"] == 2
    assert payload["basis"] == [[0], [1]]
    assert payload["input"] == "x^3"


def test_gram_char2_goes_through_witt_lift(capsys):
    code, payload = run_json(capsys, "gram", "--p", "2",
                             "--vars", "u", "--poly", "u^2+u^3")
    assert code == 0
    assert payload["mu"] == 2
    assert payload["gram"][0][1] == payload["gram"][1][0]


def test_disc_command(capsys):
    code, payload = run_json(capsys, "disc", "--p", "7",
                             "--vars", "x", "--poly", "x^3")
    assert code == 0
    assert payload["mu"] == 2
    assert payload["class"]["legendre"] == -1


def test_arf_command_and_lift_flag(capsys):
    code, payload = run_json(capsys, "arf", "--p", "2",
                             "--vars", "x,y", "--poly", "x^2+x*y+y^2")
    assert code == 0
    assert payload["arf"]["trace_bit"] == 1
    code, moved = run_json(capsys, "arf", "--p", "2",
                           "--vars", "x,y", "--poly", "x^2+x*y+y^2",
                           "--lift-perturbation", "x*y+1")
    assert code == 0
    assert moved["arf"]["trace_bit"] == 1
    code, payload = run_json(capsys, "arf", "--p", "2", "--m", "2",
                             "--vars", "x,y", "--poly", "x^2+x*y+y^2")
    assert code == 0
    assert payload["arf"]["trace_bit"] == 0


def test_epsilon_command(capsys):
    code, payload = run_json(capsys, "epsilon", "--p", "3",
                             "--vars", "x,y", "--poly", "x^2+y^2")
    assert code == 0
    assert payload["epsilon"] == {
        "sign": -1, "tau_exp": 0, "q_exp": "-1", "witness": None,
    }
    assert payload["dimtot"] == -1


def test_verify_pass_and_exit_zero(capsys):
    code, payload = run_json(capsys, "verify", "--p", "3",
                             "--vars", "x,y", "--poly", "x^2+y^2")
    assert code == 0
    assert payload["verdict"] == "PASS"
    assert payload["psi_twists_checked"] == 2
    assert payload["input"] == "x^2 + y^2"  # rendered with the user's names


def test_verify_literal_convention_fails(capsys):
    code, payload = run_json(capsys, "verify", "--p", "5",
                             "--vars", "t", "--poly", "t^2",
                             "--convention", "literal")
    assert code == 1
    assert payload["verdict"] == "FAIL"


def test_verify_geometric_only_still_exits_zero(capsys):
    code, payload = run_json(capsys, "verify", "--p", "7",
                             "--vars", "x,y", "--poly", "x^3+y^3")
    assert code == 0
    assert payload["verdict"] == "GEOMETRIC_ONLY"
    assert payload["arithmetic"] is None


def test_verify_of_a_sum_with_a_witness_too_long_to_print_reports(capsys):
    """mu = 5^5 in five variables puts q^7812 in the geometric witness, past
    the digits an int may print: the report prints, plain and JSON, with no
    witness, and exits 0."""
    argv = ["verify", "--p", "13", "--vars", "x,y,z,w,v", "--poly", "x^6+y^6+z^6+w^6+v^6"]
    code, payload = run_json(capsys, *argv)
    assert code == 0
    assert payload["mu"] == 3125 and payload["verdict"] == "GEOMETRIC_ONLY"
    assert payload["geometric"] == {"sign": 1, "tau_exp": 1, "q_exp": "7812", "witness": None}
    code, out = run(capsys, *argv)
    assert code == 0
    assert '"witness": null' in out and out.startswith("input: x^6 + y^6 + z^6 + w^6 + v^6\n")


def test_fermat_command(capsys):
    code, payload = run_json(capsys, "fermat", "--d", "3", "--n", "0", "--a", "1,1")
    assert code == 0
    assert payload == {"d": 3, "n": 0, "mu": 4, "disc_d": 27, "disc_B_value": 6561}


@pytest.mark.parametrize("d, n, value", [
    (3, 8, "disc_B_value"),
    (7, 2, "disc_B_value"),
    (40, 0, "disc_B_value"),
    (3, 30, "disc_d"),
])
def test_fermat_values_past_the_printable_digits_are_refused(capsys, d, n, value):
    """A closed form of more than WITNESS_DIGITS digits could not be
    printed; it is refused from its exponents, exit 2, before any power is
    formed."""
    start = time.perf_counter()
    code, payload = run_json(capsys, "fermat", "--d", str(d), "--n", str(n),
                             "--a", ",".join(["1"] * (n + 2)))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert payload == {"error": "ResourceLimit", "message":
                       f"{value} has more than WITNESS_DIGITS = {catalog.WITNESS_DIGITS} "
                       "decimal digits, more than a report can print"}


def test_fermat_refuses_a_coefficient_count_at_once(capsys):
    start = time.perf_counter()
    code, payload = run_json(capsys, "fermat", "--d", "3", "--n", "1000000000", "--a", "1,1")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert payload == {"error": "ValueError", "message": "need 1000000002 coefficients for n=1000000000"}


def test_homog2_default_variables(capsys):
    code, payload = run_json(capsys, "homog2", "--p", "2",
                             "--poly", "T0^3+T0*T1^2+T1^3")
    assert code == 0
    assert payload["verdict"] == "PASS"
    assert payload["frobenius_sign"] == 1


def test_homog2_rejects_inhomogeneous(capsys):
    code, payload = run_json(capsys, "homog2", "--p", "2",
                             "--poly", "T0^3+T1^2")
    assert code == 2
    assert payload["error"] == "PolySyntaxError"


def test_error_records(capsys):
    cases = [
        (("milnor", "--p", "6", "--vars", "x", "--poly", "x^2"),
         "UnsupportedPrime"),
        (("arf", "--p", "3", "--vars", "x", "--poly", "x^2"),
         "OddCharacteristic"),
        (("milnor", "--p", "7", "--vars", "x", "--poly", "x^2+y^2"),
         "UnknownVariable"),
        (("milnor", "--p", "7", "--vars", "x"), "PolySyntaxError"),
        (("homog2", "--p", "3", "--poly", "T0^3+T1^3"), "OddCharacteristic"),
        (("homog2", "--p", "2", "--poly", "T0^3"), "SingularForm"),
        (("verify", "--p", "3", "--poly", "x^2"), "PolySyntaxError"),
        (("homog2", "--p", "2", "--vars", "x,y,z", "--poly", "x^3+y^3+z^3"),
         "PolySyntaxError"),
        (("verify", "--p", "2", "--m", "2", "--modulus", "1,0,1", "--vars", "x", "--poly", "x^2"),
         "ReducibleModulus"),
    ]
    for argv, err in cases:
        code, payload = run_json(capsys, *argv)
        assert code == 2, argv
        assert payload["error"] == err
        assert payload["message"]


@pytest.mark.parametrize("extra", [[], ["--vars", ""], ["--vars", ","], ["--vars", " "],
                                   ["--vars", " , ,"]])
def test_a_variable_list_without_a_name_is_refused(capsys, extra):
    """--vars of only separators or spaces is refused as a missing --vars,
    not read as an empty variable list."""
    code, payload = run_json(capsys, "verify", "--p", "7", *extra, "--poly", "x^2")
    assert code == 2
    assert payload == {"error": "PolySyntaxError",
                       "message": "variable names are required; use --vars"}


def test_a_given_modulus_is_used_and_checked(capsys):
    """--modulus builds the field the report names; one of the wrong degree
    is refused with exit code 2."""
    code, payload = run_json(capsys, "verify", "--p", "3", "--m", "2", "--modulus", "1,0,1",
                             "--vars", "x,y", "--poly", "x^2+y^2")
    assert code == 0
    assert payload["field"] == {"p": 3, "m": 2, "modulus": [1, 0, 1]}
    assert payload["verdict"] == "PASS"
    code, out = run(capsys, "verify", "--p", "3", "--m", "2", "--modulus", "1,1",
                    "--vars", "x", "--poly", "x^2")
    assert code == 2
    assert out == "error: ValueError\nmessage: modulus must be monic of degree m\n"


def test_both_char2_ordinary_quadratic_shapes(capsys):
    """The catalog reads c*x^2+x*y+y^2 by its x^2 coefficient as it reads
    x^2+x*y+c*y^2; with neither square coefficient 1 it has no entry, so
    verify checks the geometric side only and epsilon refuses."""
    argv = ["--p", "2", "--m", "2", "--vars", "x,y", "--poly"]
    code, payload = run_json(capsys, "verify", *argv, "g*x^2+x*y+y^2")
    assert code == 0
    assert payload["verdict"] == "PASS"
    assert payload["arithmetic"] == payload["geometric"]
    code, payload = run_json(capsys, "verify", *argv, "g*x^2+x*y+g*y^2")
    assert code == 0
    assert payload["verdict"] == "GEOMETRIC_ONLY"
    assert payload["arithmetic"] is None
    code, payload = run_json(capsys, "epsilon", *argv, "g*x^2+x*y+g*y^2")
    assert code == 2
    assert payload["error"] == "CatalogMiss"


@pytest.mark.parametrize("argv, block", [
    (["--p", "7", "--vars", "u,v", "--poly", "u^3+v^2"], "u^3"),
    (["--p", "7", "--vars", "u,v,w", "--poly", "u^2+v^3*w+w^4"], "v^3*w + w^4"),
    (["--p", "2", "--m", "2", "--vars", "x,y", "--poly", "g*x^2+x*y+g*y^2"],
     "g*x^2 + x*y + g*y^2"),
])
def test_a_catalog_miss_names_the_block_by_the_callers_variables(capsys, argv, block):
    """The block is rendered in f's variable positions with the names given
    on the command line, not with the block's own default names."""
    code, payload = run_json(capsys, "epsilon", *argv)
    assert code == 2
    assert payload == {"error": "CatalogMiss", "message": f"no catalog entry for block {block}"}


def test_milnor_rejects_a_non_isolated_four_variable_cone(capsys):
    """The homogeneous partials of the block x^5*y of x^5*y+z^5+w^5 fail the
    initial-form test in degree 9, so the cone ends at once with its own
    message, naming that degree."""
    code, payload = run_json(capsys, "milnor", "--p", "7", "--vars", "x,y,z,w",
                             "--poly", "x^5*y+z^5+w^5")
    assert code == 2
    assert payload == {"error": "NotIsolated", "message":
                       "the partials are homogeneous and miss a monomial of degree 9, "
                       "so the Jacobian ideal is not monomial-cofinite"}


@pytest.mark.parametrize("p, names, poly, message", [
    # isolated with mu = 26, but D0 = 26 lies past the cap
    (2, "x", "x^27", "no degree up to DEGREE_CAP = 24 certifies the Jacobian ideal, and its "
                     "Bezout bound 26 lies above the cap"),
    # a block whose D0 = 25 lies past the cap ends its sum
    (7, "x,y", "x^26+y^26", "no degree up to DEGREE_CAP = 24 certifies the Jacobian ideal, and "
                            "its Bezout bound 25 lies above the cap"),
])
def test_a_scan_stopped_at_the_cap_is_a_resource_limit(capsys, p, names, poly, message):
    """Reaching the cap proves nothing about isolation, so verify ends in
    ResourceLimit, exit 2, not NotIsolated (test_milnor covers a block
    that stops at the cap)."""
    code, payload = run_json(capsys, "verify", "--p", str(p), "--vars", names, "--poly", poly)
    assert code == 2
    assert payload == {"error": "ResourceLimit", "message": message}


def test_a_product_past_the_cap_answers(capsys):
    """x^14+y^14 over F_13 has D = 13 + 13 - 1 = 25, past the cap, which
    bounds a scan and not a product composed from its blocks."""
    code, payload = run_json(capsys, "verify", "--p", "13", "--vars", "x,y", "--poly",
                             "x^14+y^14")
    assert code == 0
    assert payload["mu"] == 169


WIDE = [",".join(f"x{i}" for i in range(23)), "+".join(f"x{i}^3" for i in range(23))]


@pytest.mark.parametrize("command", ["milnor", "gram"])
def test_a_wide_split_sum_is_refused_before_its_basis_is_listed(capsys, command):
    """x0^3+...+x22^3 over F_7 has D = 24 and mu = 2^23: milnor and gram
    refuse its product basis from the blocks' sizes before listing it, in
    bounded time and memory."""
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code, payload = run_json(capsys, command, "--p", "7", "--vars", WIDE[0],
                                 "--poly", WIDE[1])
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 2.0 and peak < 200_000_000, (elapsed, peak)
    assert code == 2
    assert payload == {"error": "ResourceLimit", "message":
                       "the basis of the product would hold 8388608 x 23 x 8 digits, "
                       "more than MAX_RELATION_CELLS = 33554432"}


@pytest.mark.parametrize("argv, message", [
    (["fermat", "--d", "3", "--n", "0", "--a", "1,,2"],
     "--a takes comma separated integers, not ''"),
    (["fermat", "--d", "3", "--n", "0", "--a", "1,x"],
     "--a takes comma separated integers, not 'x'"),
    (["verify", "--p", "3", "--m", "2", "--modulus", "1,,1", "--vars", "x", "--poly", "x^2"],
     "--modulus takes comma separated integers, not ''"),
])
def test_a_list_option_names_its_bad_entry(capsys, argv, message):
    code, payload = run_json(capsys, *argv)
    assert code == 2
    assert payload == {"error": "ValueError", "message": message}


def test_plain_output_is_flat_key_values(capsys):
    code, out = run(capsys, "fermat", "--d", "3", "--n", "0", "--a", "1,1")
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert lines["mu"] == "4"
    assert lines["disc_d"] == "27"


def test_corpus_command_smoke(capsys, monkeypatch):
    monkeypatch.setattr(corpus, "EXAMPLES",
                        [("tiny", lambda: "ok")])
    monkeypatch.setattr(corpus, "ACCEPTANCE",
                        [("A0", lambda seed: f"seed {seed}")])
    code, payload = run_json(capsys, "corpus", "--seed", "7")
    assert code == 0
    assert payload["ok"] is True
    names = [r["name"] for r in payload["results"]]
    assert names == ["example:tiny", "A0"]
    assert payload["results"][1]["detail"] == "seed 7"


def test_corpus_command_reports_failures(capsys, monkeypatch):
    def boom():
        raise RuntimeError("deliberate")

    monkeypatch.setattr(corpus, "EXAMPLES", [("boom", boom)])
    monkeypatch.setattr(corpus, "ACCEPTANCE", [])
    code, out = run(capsys, "corpus")
    assert code == 1
    assert "FAIL" in out
    assert "RuntimeError: deliberate" in out
    assert out.strip().splitlines()[-1].startswith("overall: FAIL")


def test_corpus_payload_has_no_convention(capsys, monkeypatch):
    monkeypatch.setattr(corpus, "EXAMPLES", [("tiny", lambda: "ok")])
    monkeypatch.setattr(corpus, "ACCEPTANCE", [])
    code, payload = run_json(capsys, "corpus")
    assert code == 0
    assert set(payload) == {"seed", "ok", "results"}


def test_corpus_details_match_their_record(capsys):
    """The name, verdict and detail of every corpus check, against the
    record in tests/corpus_details.json; elapsed times are left out."""
    code, payload = run_json(capsys, "corpus")
    assert code == 0
    with open(pathlib.Path(__file__).with_name("corpus_details.json")) as fh:
        record = json.load(fh)
    assert [[r["name"], r["ok"], r["detail"]] for r in payload["results"]] == record


def test_engine_outputs_match_their_record(capsys):
    """Every call recorded in tests/cli_outputs.json (make_cli_outputs.py)
    prints the same JSON with the same exit code, run forward and then
    reversed, each pass from an empty Milnor algebra cache, so an output
    does not depend on what the calls before it left cached."""
    with open(pathlib.Path(__file__).with_name("cli_outputs.json")) as fh:
        record = json.load(fh)
    assert len(record) > 100
    for calls in (record, record[::-1]):
        milnor._ALGEBRAS.clear()
        for argv, code, digest in calls:
            got, out = run(capsys, *argv)
            assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest), argv


def test_the_record_holds_exactly_the_generators_calls():
    """tests/cli_outputs.json records the argvs make_cli_outputs.argvs()
    lists, in its order, so neither can gain a call the other lacks."""
    with open(pathlib.Path(__file__).with_name("cli_outputs.json")) as fh:
        record = json.load(fh)
    assert [argv for argv, _, _ in record] == make_cli_outputs.argvs()


def test_a_cli_verify_renders_its_input_once(capsys, monkeypatch):
    """verify_identity renders f for the report; the CLI adds no render."""
    calls = []
    real = MultiPoly.render

    def counting(self, *args, **kwargs):
        calls.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(MultiPoly, "render", counting)
    code, payload = run_json(capsys, "verify", "--p", "3", "--vars", "x,y", "--poly", "x^2+y^2")
    assert (code, payload["verdict"], payload["input"]) == (0, "PASS", "x^2 + y^2")
    assert len(calls) == 1


def test_corpus_rejects_convention():
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["corpus", "--convention", "literal"])
    assert exc.value.code == 2


def test_corpus_check_failure_names_its_class(capsys, monkeypatch):
    monkeypatch.setattr(corpus, "EXAMPLES",
                        [("false", lambda: corpus._expect(False, "deliberate"))])
    monkeypatch.setattr(corpus, "ACCEPTANCE", [])
    code, out = run(capsys, "corpus")
    assert code == 1
    assert "CheckFailed: deliberate" in out


def test_extension_generator_is_written_g(capsys):
    code, payload = run_json(capsys, "verify", "--p", "3", "--m", "2",
                             "--vars", "x,y", "--poly", "g*x^2+y^2")
    assert code == 0
    assert payload["input"] == "g*x^2 + y^2"
    code, payload = run_json(capsys, "verify", "--p", "3", "--m", "2",
                             "--vars", "x,y", "--poly", "w*x^2+y^2")
    assert code == 2
    assert payload["error"] == "UnknownVariable"


def test_a_broken_twist_law_is_a_structured_error(capsys, monkeypatch):
    """The twist-law self-check ends in CheckFailed (exit 2), not a traceback."""
    real = catalog.gauss_sum
    monkeypatch.setattr(catalog, "gauss_sum",
                        lambda field, twist=1: real(field, twist) + (twist != 1))
    monkeypatch.setattr(catalog, "_TWIST_CHECKED", set())
    code, payload = run_json(capsys, "verify", "--p", "5", "--vars", "x,y,z",
                             "--poly", "x^2+2*y^2+z^2")
    assert code == 2
    assert payload["error"] == "CheckFailed"
    assert "twisted Gauss sum" in payload["message"]


def _nested(depth):
    return "(" * depth + "x^2" + ")" * depth


def test_parenthesis_depth_is_bounded(capsys):
    code, payload = run_json(capsys, "verify", "--p", "3", "--vars", "x",
                             "--poly", _nested(300))
    assert code == 2
    assert payload["error"] == "PolySyntaxError"
    assert "nested deeper than" in payload["message"]
    code, payload = run_json(capsys, "verify", "--p", "3", "--vars", "x",
                             "--poly", _nested(100))
    assert code == 0
    assert payload["input"] == "x^2"


def test_fermat_rejects_degree_below_one(capsys):
    for d in ("0", "-2"):
        code, payload = run_json(capsys, "fermat", "--d", d, "--n", "0", "--a", "1,1")
        assert code == 2
        assert payload == {"error": "ValueError", "message": "degree must be at least 1"}
    code, payload = run_json(capsys, "fermat", "--d", "1", "--n", "0", "--a", "1,1")
    assert code == 0
    assert payload["mu"] == 0


def test_homog2_constant_form(capsys):
    code, payload = run_json(capsys, "homog2", "--p", "2", "--poly", "1")
    assert code == 2
    assert payload == {"error": "ValueError", "message": "degree must be at least 1"}


def test_homog2_zero_form(capsys):
    code, payload = run_json(capsys, "homog2", "--p", "2", "--poly", "0*T0+0*T1")
    assert code == 2
    assert payload == {"error": "PolySyntaxError", "message": "the zero form has no degree"}


def test_a_repeated_variable_name_is_a_syntax_error(capsys):
    for names in ("x,x", "x,y,x"):
        code, payload = run_json(capsys, "verify", "--p", "7", "--vars", names,
                                 "--poly", "x^2")
        assert code == 2
        assert payload == {"error": "PolySyntaxError",
                           "message": "variable x is declared more than once"}


def test_extension_degree_is_bounded(capsys):
    for p, m in (("2", "41"), ("3", "26"), ("13", "11"), ("5", "1000")):
        code, payload = run_json(capsys, "verify", "--p", p, "--m", m,
                                 "--vars", "x", "--poly", "x^2")
        assert code == 2
        assert payload == {"error": "ValueError",
                           "message": f"F_{p}^{m} has more than 2^40 elements"}
    code, payload = run_json(capsys, "verify", "--p", "13", "--m", "10",
                             "--vars", "x", "--poly", "x^2")
    assert code == 0
    assert payload["verdict"] == "PASS"


def test_an_expansion_past_the_cap_is_refused_quickly(capsys):
    start = time.perf_counter()
    code, payload = run_json(capsys, "verify", "--p", "7", "--vars", "x,y,z",
                             "--poly", "(x+y+z)^2000")
    assert time.perf_counter() - start < 2
    assert code == 2
    assert payload == {"error": "PolySyntaxError",
                       "message": "expanding the input multiplies 450 by 540 terms, "
                                  "more than 100000 term pairs"}


@pytest.mark.parametrize("argv, shape", [
    (["arf", "--p", "2", "--m", "2", "--vars", "x,y,z,w", "--poly", "x^5+y^5+z^3+w^3",
      "--lift-perturbation", "x*y*z*w+x"], (24, "63025 x 20475 x 2")),
    (["verify", "--p", "7", "--vars", "x,y,z,w", "--poly", "x^3*y+x^3*w+x^2*z^2+z^5+w^2"],
     (16, "11016 x 4845 x 1")),
], ids=["whole-w3-lift", "field-scan"])
def test_a_relation_matrix_past_the_cell_bound_is_refused(capsys, argv, shape):
    """A coupled W_3 lift whose elimination at D0 = 9 leaves a tail in
    degree 1, so that its fallback runs at 3*9 - 2*1 - 1 = 24, and a
    four-variable scan of an input that does not split would each ask numpy
    for gigabytes; both end in ResourceLimit, exit 2, before the matrix is
    allocated."""
    start = time.perf_counter()
    code, payload = run_json(capsys, *argv)
    assert time.perf_counter() - start < 30
    assert code == 2
    degree, dims = shape
    assert payload == {"error": "ResourceLimit", "message":
                       f"the relation matrix in degree {degree} would hold {dims} digits, "
                       "more than MAX_RELATION_CELLS = 33554432"}


def test_a_coupled_lift_reads_the_arf_class_of_the_plain_lift(capsys):
    """x*y*z*w couples the blocks of x^5+y^5+z^3+w^3, so its lift is
    eliminated whole; its elimination at D0 = 9 leaves a tail in degree 8,
    and the fallback at 3*9 - 2*8 - 1 = 10 is small enough to run.  The Arf
    class does not depend on the lift."""
    argv = ["arf", "--p", "2", "--m", "2", "--vars", "x,y,z,w", "--poly", "x^5+y^5+z^3+w^3"]
    start = time.perf_counter()
    code, coupled = run_json(capsys, *argv, "--lift-perturbation", "x*y*z*w")
    assert time.perf_counter() - start < 2
    assert code == 0
    assert run_json(capsys, *argv) == (0, coupled)
    assert coupled["arf"] == {"value": [0, 0], "trace_bit": 0}
