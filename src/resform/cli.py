"""Command line front end.

Every subcommand prints a JSON object with --json, or a flat key: value
listing without it.  Each handler returns only its report, and main alone
picks the exit code: 2 when the input could not be processed (a ResformError
or ValueError), 1 when a verification ran and failed (a report whose verdict
is FAIL or whose ok is false), 0 otherwise.  _read parses a handler's
polynomial and variable names once; milnor, gram, disc, arf and epsilon open
their report with _head, verify with the input verify_identity renders.
"""

from __future__ import annotations

import argparse
import json
import sys

from .corpus import DEFAULT_SEED, run_corpus
from .catalog import arithmetic_side
from .epsilon import verify_identity
from .errors import OddCharacteristic, PolySyntaxError, ResformError
from .gfield import gf_create
from .homog import BinaryForm, fermat_formulas, verify_homog_char2
from .milnor import milnor_algebra
from .mpoly import parse_poly
from .residue import arf_invariant, disc_square_class, gram_matrix, witt_lift


def _ints(option: str, text: str):
    """The integers of a comma separated option value; an entry that is not
    one is refused with a ValueError that names the option and the entry."""
    out = []
    for entry in text.split(","):
        try:
            out.append(int(entry))
        except ValueError:
            raise ValueError(f"--{option} takes comma separated integers, not {entry!r}") from None
    return out


def _field(args):
    modulus = tuple(_ints("modulus", args.modulus)) if args.modulus else None
    return gf_create(args.p, args.m, modulus)


def _read(args, field, text=None):
    """text, --poly by default, read over field, and the --vars names it is
    written in.  --vars must name at least one variable: a list of only
    separators and spaces is refused as a missing one is."""
    text = text if text is not None else args.poly
    if not text:
        raise PolySyntaxError("no polynomial given; use --poly")
    names = [v.strip() for v in (args.vars or "").split(",") if v.strip()]
    if not names:
        raise PolySyntaxError("variable names are required; use --vars")
    constants = {field.gen_symbol: field.gen()} if field.m > 1 else None
    return parse_poly(text, field, names, constants=constants), names


def _head(field, f, names):
    """The first keys of a milnor, gram, disc, arf or epsilon report."""
    return {"input": f.render(names), "field": field.to_json()}


def _cmd_milnor(args):
    field = _field(args)
    f, names = _read(args, field)
    return {**_head(field, f, names), "n_vars": f.n_vars, **milnor_algebra(f).to_json()}


def _gram_form(args):
    """The report head of the input and its Gram form at --scale; in
    characteristic 2 the form of the Witt lift."""
    field = _field(args)
    f, names = _read(args, field)
    return _head(field, f, names), gram_matrix(witt_lift(f) if field.p == 2 else f, args.scale)


def _cmd_gram(args):
    head, G = _gram_form(args)
    return {**head, **G.to_json(), "det": repr(G.det)}


def _cmd_disc(args):
    head, G = _gram_form(args)
    return {**head, "mu": G.mu, "scale": repr(G.scale), "det": repr(G.det),
            "class": disc_square_class(G).to_json()}


def _cmd_arf(args):
    field = _field(args)
    if field.p != 2:
        raise OddCharacteristic("the Arf invariant needs characteristic 2")
    f, names = _read(args, field)
    g = _read(args, field, args.lift_perturbation)[0] if args.lift_perturbation else None
    return {**_head(field, f, names), "arf": arf_invariant(f, lift_perturbation=g).to_json()}


def _cmd_epsilon(args):
    field = _field(args)
    f, names = _read(args, field)
    eps, dimtot = arithmetic_side(f, var_names=names)
    return {**_head(field, f, names), "epsilon": eps.to_json(), "dimtot": dimtot}


def _cmd_verify(args):
    field = _field(args)
    f, names = _read(args, field)
    return verify_identity(f, args.convention, names)


def _cmd_fermat(args):
    return fermat_formulas(args.d, args.n, _ints("a", args.a))


def _cmd_homog2(args):
    field = _field(args)
    if field.p != 2:
        raise OddCharacteristic("this identity check is for characteristic 2")
    if not args.vars:
        args.vars = "T0,T1"
    f, _ = _read(args, field)
    if f.n_vars != 2:
        raise PolySyntaxError("a binary form needs exactly two variables")
    if not f.terms:
        raise PolySyntaxError("the zero form has no degree")
    d = max(sum(e) for e in f.terms)
    if any(sum(e) != d for e in f.terms):
        raise PolySyntaxError("the form is not homogeneous")
    coeffs = [f.terms.get((d - i, i), field.zero) for i in range(d + 1)]
    return verify_homog_char2(BinaryForm(field, d, coeffs))


def _cmd_corpus(args):
    results = run_corpus(args.seed)
    return {"seed": args.seed, "ok": all(r.ok for r in results),
            "results": [r.to_json() for r in results]}


def _emit(payload: dict, as_json: bool):
    if as_json:
        print(json.dumps(payload))
        return
    if "results" in payload and isinstance(payload["results"], list):
        for r in payload["results"]:
            status = "PASS" if r["ok"] else "FAIL"
            print(f"{r['name']:<28} {status}  {r['elapsed']:7.2f}s  {r['detail']}")
        print(f"overall: {'PASS' if payload['ok'] else 'FAIL'} (seed {payload['seed']})")
        return
    for k, v in payload.items():
        if isinstance(v, (dict, list)):
            v = json.dumps(v)
        print(f"{k}: {v}")


def _add_field_args(sp):
    sp.add_argument("--p", type=int, required=True, help="characteristic")
    sp.add_argument("--m", type=int, default=1, help="extension degree")
    sp.add_argument("--modulus", help="field modulus, little-endian comma list")
    sp.add_argument("--vars", help="comma separated variable names")
    sp.add_argument("--poly", help="polynomial in the given variables")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resform",
        description="residue forms and local epsilon factors over finite fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def register(name, handler, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(handler=handler)
        sp.add_argument("--json", action="store_true", help="machine readable output")
        return sp

    sp = register("milnor", _cmd_milnor, "Milnor algebra of an isolated singularity")
    _add_field_args(sp)

    sp = register("gram", _cmd_gram, "Gram matrix of the residue pairing")
    _add_field_args(sp)
    sp.add_argument("--scale", type=int, default=1, help="differential scale")

    sp = register("disc", _cmd_disc, "discriminant square class of the pairing")
    _add_field_args(sp)
    sp.add_argument("--scale", type=int, default=1, help="differential scale")

    sp = register("arf", _cmd_arf, "Arf invariant in characteristic 2")
    _add_field_args(sp)
    sp.add_argument("--lift-perturbation", help="optional extra term, doubled in the lift")

    sp = register("epsilon", _cmd_epsilon, "catalog epsilon constant")
    _add_field_args(sp)

    sp = register("verify", _cmd_verify, "compare both sides of the identity")
    _add_field_args(sp)
    sp.add_argument("--convention", choices=("calibrated", "literal"),
                    default="calibrated")

    sp = register("fermat", _cmd_fermat, "closed forms for diagonal forms")
    sp.add_argument("--d", type=int, required=True, help="degree")
    sp.add_argument("--n", type=int, required=True, help="n, for n+2 variables")
    sp.add_argument("--a", required=True, help="comma separated coefficients")

    sp = register("homog2", _cmd_homog2, "binary form identity in characteristic 2")
    _add_field_args(sp)

    sp = register("corpus", _cmd_corpus, "run the example and acceptance suites")
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        payload = args.handler(args)
        code = 1 if payload.get("verdict") == "FAIL" or payload.get("ok") is False else 0
    except (ResformError, ValueError) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        code = 2
    _emit(payload, args.json)
    return code


if __name__ == "__main__":
    sys.exit(main())
