"""Span recorder for the traced run, installed from outside the package.

install() replaces the stage functions listed in TARGETS with timing
wrappers, in every resform module that binds them (milnor_algebra, say, as
imported into epsilon, residue and cli), and the CodedOps methods in
METHODS on their class.  Only the traced worker process calls it; no file
of the package changes.  Spans are kept in memory as
[name, start, end, parent index, op id, counts] and written out once the
run ends.  Counts come from arguments and return values, and from the sizes
of the package's caches before and after a call.
"""

from __future__ import annotations

import functools
import json
import sys
import time

TARGETS = {
    "resform.cli": ["main"],
    "resform.mpoly": ["parse_poly"],
    "resform.epsilon": ["verify_identity", "geometric_side", "arithmetic_side", "calibrate"],
    "resform.milnor": ["milnor_algebra", "degree_bound"],
    "resform.linalg": ["rref_ring", "det_ring", "solve_ring", "coded"],
    "resform.residue": ["gram_matrix", "arf_invariant"],
    "resform.wittring": ["teichmuller", "arf_from_unit"],
    "resform.homog": ["verify_homog_char2", "frobenius_sign_binary"],
    "resform.unipoly": ["ddf"],
    "resform.gfield": ["gauss_sum"],
}
METHODS = {("resform.linalg", "CodedOps"): ["encode_matrix", "decode_row"]}

SETUP_OP = -1

# (name, unit, better) of every per-layer metric; run.py adds the overhead.
LAYER_METRICS = [
    ("milnor.degree_bound.self_s", "s", "lower"),
    ("milnor.degree_bound.eliminations", "1/op", "lower"),
    ("milnor.degree_bound.share", "ratio", "lower"),
    ("milnor.milnor_algebra.self_s", "s", "lower"),
    ("milnor.milnor_algebra.calls_per_op", "1/op", "lower"),
    ("milnor.milnor_algebra.calls_per_arf", "1/call", "lower"),
    ("milnor.macaulay_cells_max", "count", "lower"),
    ("linalg.rref_ring.self_s", "s", "lower"),
    ("linalg.rref_ring.calls", "count", "lower"),
    ("linalg.rref_ring.cells", "count", "lower"),
    ("linalg.rref_ring.object_path_calls", "count", "lower"),
    ("linalg.encode_matrix.self_s", "s", "lower"),
    ("linalg.decode_row.self_s", "s", "lower"),
    ("linalg.decode_row.elems", "count", "lower"),
    ("linalg.decode_row.share", "ratio", "lower"),
    ("linalg.coded.build_s", "s", "lower"),
    ("linalg.coded.table_mb", "MB_computed", "lower"),
    ("linalg.det_ring.self_s", "s", "lower"),
    ("linalg.solve_ring.self_s", "s", "lower"),
    ("residue.gram_matrix.self_s", "s", "lower"),
    ("residue.engine_cache.hit_frac", "ratio", "higher"),
    ("residue.arf_invariant.self_s", "s", "lower"),
    ("wittring.teichmuller.calls", "count", "lower"),
    ("wittring.teichmuller.self_s", "s", "lower"),
    ("wittring.arf_from_unit.self_s", "s", "lower"),
    ("homog.frobenius_sign_binary.self_s", "s", "lower"),
    ("unipoly.ddf.self_s", "s", "lower"),
    ("epsilon.arithmetic_side.self_s", "s", "lower"),
    ("epsilon.geometric_side.self_s", "s", "lower"),
    ("epsilon.twists_checked", "count", "higher"),
    ("epsilon.checked_frac", "ratio", "higher"),
    ("gfield.gauss_sum.self_s", "s", "lower"),
    ("epsilon.calibrate.self_s", "s", "lower"),
    ("mpoly.parse_poly.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
]


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_id = SETUP_OP
        self._undo = []

    def wrap(self, name, fn, counts=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = counts.before(args) if counts else None
            span = [name, 0.0, 0.0, rec.stack[-1] if rec.stack else -1, rec.op_id, None]
            rec.stack.append(len(rec.spans))
            rec.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                rec.stack.pop()
            if counts:
                span[5] = counts.after(args, result, before)
            return result

        return wrapper

    def install(self):
        import resform.linalg as linalg
        import resform.residue as residue

        counts = _counts(linalg, residue)
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "resform" or n.startswith("resform."))]
        for modname, names in TARGETS.items():
            mod = sys.modules.get(modname)
            short = modname.split(".")[-1]
            for fname in names:
                orig = getattr(mod, fname, None)
                if orig is None:  # gone from the package: its metrics read 0
                    continue
                wrapper = self.wrap(f"{short}.{fname}", orig, counts.get(f"{short}.{fname}"))
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
                            self._undo.append((m, attr, orig))
        for (modname, clsname), names in METHODS.items():
            cls = getattr(sys.modules.get(modname), clsname, None)
            short = modname.split(".")[-1]
            for fname in names:
                orig = getattr(cls, "__dict__", {}).get(fname)
                if orig is None:
                    continue
                setattr(cls, fname, self.wrap(f"{short}.{fname}", orig, counts.get(f"{short}.{fname}")))
                self._undo.append((cls, fname, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "counts"],
                       "spans": self.spans}, fh, separators=(",", ":"))


class _Counts:
    """Counts for one wrapped function: before(args) -> state, after(...) -> dict."""

    def __init__(self, before=None, after=None):
        self.before = before or (lambda args: None)
        self.after = after


def _counts(linalg, residue):
    coded = getattr(linalg, "coded", None)  # the original: a lookup must not add spans

    def path(ring):
        if coded is None:
            return None
        return "table" if coded(ring) is not None else "object"

    def rref_after(args, result, _):
        ring, rows = args[0], args[1]
        if not rows:
            return {"rows": 0, "cols": 0}
        return {"rows": len(rows), "cols": len(rows[0]), "path": path(ring)}

    def det_after(args, result, _):
        return {"n": len(args[1]), "path": path(args[0]) if args[1] else None}

    def cache_len(_args=None):
        return len(getattr(residue, "_ENGINE_CACHE", ()))

    def coded_len(_args=None):
        return len(getattr(linalg, "_CODED_CACHE", ()))

    def coded_after(args, ops, before):
        out = {"built": coded_len() != before}
        if ops is not None:
            out["q"] = ops.size
        return out

    def verify_after(args, report, _):
        return {"verdict": report["verdict"], "twists": report["psi_twists_checked"],
                "mu": report["mu"]}

    return {
        "linalg.rref_ring": _Counts(after=rref_after),
        "linalg.det_ring": _Counts(after=det_after),
        "linalg.coded": _Counts(coded_len, coded_after),
        "linalg.decode_row": _Counts(after=lambda args, r, _: {"elems": len(args[1])}),
        "linalg.encode_matrix": _Counts(
            after=lambda args, r, _: {"cells": int(r.shape[0]) * int(r.shape[1]) if r.ndim == 2 else 0}),
        "milnor.milnor_algebra": _Counts(after=lambda args, alg, _: {"mu": alg.mu, "D": alg.D}),
        "milnor.degree_bound": _Counts(after=lambda args, d0, _: {"D": d0}),
        "residue.gram_matrix": _Counts(
            cache_len, lambda args, G, before: {"mu": G.mu, "hit": cache_len() == before}),
        "epsilon.verify_identity": _Counts(after=verify_after),
    }


def summarize(spans, n_ops: int, op_seconds: float) -> dict:
    """Per-layer metrics from the spans of one traced process.

    Returns {name: [value, unit]}.  Times (unit s) are totals over the whole
    process, set-up included, since the set-up layers (lookup tables, Gauss
    sums, calibration) run nowhere else.  Counts and ratios cover the ops
    only, so that calibration's probes do not blur them; 1/op values are
    divided by n_ops.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    self_s: dict = {}
    for i, s in enumerate(spans):
        self_s[s[0]] = self_s.get(s[0], 0.0) + (s[2] - s[1]) - child_time[i]

    def under(s, name):
        j = s[3]
        while j >= 0:
            if spans[j][0] == name:
                return True
            j = spans[j][3]
        return False

    in_ops = [s for s in spans if s[4] != SETUP_OP]

    def calls(name):
        return [s for s in in_ops if s[0] == name]

    def counts(name):
        """Counts of the op calls to name that returned (a raising call has none)."""
        return [s[5] for s in calls(name) if s[5] is not None]

    def inclusive(name, outermost=False):
        return sum(s[2] - s[1] for s in calls(name) if not (outermost and under(s, name)))

    def per_op(x):
        return x / n_ops if n_ops else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    rref = counts("linalg.rref_ring")
    eliminations = [s for s in calls("linalg.rref_ring")
                    if s[3] >= 0 and spans[s[3]][0] == "milnor.degree_bound"]
    macaulay = [s[5]["rows"] * s[5]["cols"] for s in calls("linalg.rref_ring")
                if s[5] and under(s, "milnor.milnor_algebra")]
    milnor_in_arf = [s for s in calls("milnor.milnor_algebra") if under(s, "residue.arf_invariant")]
    arf_calls = [s for s in calls("residue.arf_invariant") if not under(s, "residue.arf_invariant")]
    grams = counts("residue.gram_matrix")
    verifies = counts("epsilon.verify_identity")
    built = [s for s in spans if s[0] == "linalg.coded" and s[5] and s[5]["built"]]
    values = {
        "milnor.degree_bound.eliminations": per_op(len(eliminations)),
        "milnor.degree_bound.share": ratio(inclusive("milnor.degree_bound"),
                                           inclusive("milnor.milnor_algebra", outermost=True)),
        "milnor.milnor_algebra.calls_per_op": per_op(len(calls("milnor.milnor_algebra"))),
        "milnor.milnor_algebra.calls_per_arf": ratio(len(milnor_in_arf), len(arf_calls)),
        "milnor.macaulay_cells_max": max(macaulay, default=0),
        "linalg.rref_ring.calls": len(calls("linalg.rref_ring")),
        "linalg.rref_ring.cells": sum(a["rows"] * a["cols"] for a in rref),
        "linalg.rref_ring.object_path_calls": sum(1 for a in rref if a.get("path") == "object"),
        "linalg.decode_row.elems": sum(a["elems"] for a in counts("linalg.decode_row")),
        "linalg.decode_row.share": ratio(inclusive("linalg.decode_row"), op_seconds),
        "linalg.coded.build_s": sum(s[2] - s[1] for s in built),
        # resident ADD and MUL int32 tables, 4 bytes * q^2 each; computed, not measured
        "linalg.coded.table_mb": sum(8 * s[5]["q"] ** 2 for s in built if "q" in s[5]) / 1e6,
        "residue.engine_cache.hit_frac": ratio(sum(1 for a in grams if a["hit"]), len(grams)),
        "wittring.teichmuller.calls": len(calls("wittring.teichmuller")),
        "epsilon.twists_checked": sum(a["twists"] for a in verifies),
        "epsilon.checked_frac": ratio(
            sum(1 for a in verifies if a["verdict"] != "GEOMETRIC_ONLY"), len(verifies)),
    }
    out = {}
    for name, unit, _ in LAYER_METRICS:
        if name in values:
            out[name] = [values[name], unit]
        else:
            out[name] = [self_s.get(name[: -len(".self_s")], 0.0), unit]
    return out
