"""Sparse multivariate polynomials over a field, a Galois ring, or Z.

Terms are kept in a dict keyed by exponent tuples.  render prints them in
graded lexicographic order with x_0 > x_1 > ...; that order is for printing
only.  Milnor bases use milnor.mono_key, under which x_{n-1} weighs most
within a degree.
"""

from __future__ import annotations

import re
from operator import add

from .errors import PolySyntaxError, RingMismatch, UnknownVariable


class IntRing:
    """Coefficient adapter so Z fits the same interface as the fields."""

    zero = 0
    one = 1

    def __call__(self, value):
        if isinstance(value, int):
            return value
        raise TypeError("integer ring takes ints")

    def __eq__(self, other):
        return isinstance(other, IntRing)

    def __hash__(self):
        return hash("IntRing")

    def __repr__(self):
        return "Z"


ZZ = IntRing()


def _czero(c) -> bool:
    if isinstance(c, int):
        return c == 0
    return c.is_zero()


def grlex_key(exps):
    return (sum(exps), exps)


def _mul_terms(a: dict, b: dict) -> dict:
    """The product of two {exponent tuple: coefficient} dicts, without the
    terms that cancel."""
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            c = c1 * c2
            out[e] = out[e] + c if e in out else c
    return {e: c for e, c in out.items() if not _czero(c)}


def _pow_terms(a: dict, k: int, one, mul) -> dict:
    """a ** k for k >= 1, with mul the product of two term dicts.  A single
    term is raised directly (one is the ring's 1, which needs no raising);
    more terms by repeated squaring, which skips the last squaring, so every
    product it makes is used in the result."""
    if len(a) == 1:
        ((e, c),) = a.items()
        if c is not one:
            c = c ** k
            if _czero(c):
                return {}
        return {tuple(x * k for x in e): c}
    result = None
    while k:
        if k & 1:
            result = a if result is None else mul(result, a)
        k >>= 1
        if k:
            a = mul(a, a)
    return result


class MultiPoly:
    """A polynomial in n_vars variables, its terms {exponent tuple: coefficient}.

    Terms are never changed after construction: every operation builds the
    dict of a new polynomial.  So variable_blocks splits a polynomial once
    and keeps the split in `_split`, and milnor.milnor_algebra keeps the
    polynomial's Milnor algebra in `_algebra`, whatever cap it was read at.
    """

    __slots__ = ("ring", "n_vars", "terms", "_split", "_algebra")

    def __init__(self, ring, n_vars: int, terms=None):
        self.ring = ring
        self.n_vars = n_vars
        clean = {}
        if terms:
            for exps, c in terms.items():
                if not _czero(c):
                    clean[tuple(exps)] = c
        self.terms = clean
        self._split = None
        self._algebra = None

    @classmethod
    def zero(cls, ring, n_vars: int) -> "MultiPoly":
        return cls(ring, n_vars, {})

    @classmethod
    def const(cls, ring, n_vars: int, value) -> "MultiPoly":
        return cls(ring, n_vars, {(0,) * n_vars: ring(value)})

    @classmethod
    def var(cls, ring, n_vars: int, i: int) -> "MultiPoly":
        exps = [0] * n_vars
        exps[i] = 1
        return cls(ring, n_vars, {tuple(exps): ring(1)})

    def _compat(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.ring != self.ring or other.n_vars != self.n_vars:
                raise RingMismatch("polynomials over different rings or variable counts")
            return other
        try:
            return MultiPoly.const(self.ring, self.n_vars, self.ring(other))
        except (TypeError, ValueError):
            return NotImplemented

    def __add__(self, other):
        o = self._compat(other)
        if o is NotImplemented:
            return o
        terms = dict(self.terms)
        for e, c in o.terms.items():
            terms[e] = terms[e] + c if e in terms else c
        return MultiPoly(self.ring, self.n_vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.ring, self.n_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._compat(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            o = self._compat(other)
            return MultiPoly(self.ring, self.n_vars, _mul_terms(self.terms, o.terms))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "MultiPoly":
        c = self.ring(c)
        return MultiPoly(self.ring, self.n_vars, {e: c * t for e, t in self.terms.items()})

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial power")
        if e == 0:
            return MultiPoly.const(self.ring, self.n_vars, self.ring(1))
        return MultiPoly(self.ring, self.n_vars,
                         _pow_terms(self.terms, e, self.ring.one, _mul_terms))

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return (
                self.ring == other.ring
                and self.n_vars == other.n_vars
                and self.terms == other.terms
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.n_vars, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def low_degree(self) -> int:
        return min((sum(e) for e in self.terms), default=0)

    def derivative(self, i: int) -> "MultiPoly":
        terms = {}
        for e, c in self.terms.items():
            k = e[i]
            if k == 0:
                continue
            ne = list(e)
            ne[i] = k - 1
            nc = c * k
            ne = tuple(ne)
            terms[ne] = terms[ne] + nc if ne in terms else nc
        return MultiPoly(self.ring, self.n_vars, terms)

    def evaluate(self, values):
        """Evaluate at a point; values must be ring elements (or ints for Z)."""
        if len(values) != self.n_vars:
            raise ValueError("wrong number of values")
        acc = self.ring.zero
        for e, c in self.terms.items():
            t = c
            for v, k in zip(values, e):
                for _ in range(k):
                    t = t * v
            acc = acc + t
        return acc

    def embed(self, n_total: int, offset: int = 0) -> "MultiPoly":
        """View in a larger variable list, shifting indices by offset."""
        terms = {}
        for e, c in self.terms.items():
            ne = [0] * n_total
            for i, k in enumerate(e):
                ne[offset + i] = k
            terms[tuple(ne)] = c
        return MultiPoly(self.ring, n_total, terms)

    def map_coeffs(self, fn, new_ring) -> "MultiPoly":
        return MultiPoly(new_ring, self.n_vars, {e: fn(c) for e, c in self.terms.items()})

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def render(self, var_names=None) -> str:
        if var_names is None:
            var_names = [f"x{i}" for i in range(self.n_vars)]
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for name, k in zip(var_names, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            cs = repr(c)
            if factors and cs == "1":
                parts.append("*".join(factors))
            elif factors:
                head = f"({cs})" if ("+" in cs or " " in cs) else cs
                parts.append(head + "*" + "*".join(factors))
            else:
                parts.append(f"({cs})" if ("+" in cs or " " in cs) else cs)
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return self.render()


def partials(f: MultiPoly):
    return [f.derivative(i) for i in range(f.n_vars)]


def variable_blocks(f: MultiPoly):
    """Split f into summands in pairwise disjoint sets of variables.

    Returns (variables, block) pairs ordered by first variable: block is
    the sum of f's terms in those variables, written in them alone.  The
    constant term belongs to no block, nor does a variable absent from f.
    The split is computed on the first call and kept on f, so every
    consumer of one polynomial shares it; none may change the list.
    """
    if f._split is None:
        f._split = _disjoint_blocks(f)
    return f._split


def _disjoint_blocks(f: MultiPoly):
    """variable_blocks computed afresh."""
    groups = []  # (variables, terms) of the blocks found so far
    for e, c in f.terms.items():
        sup = {i for i, k in enumerate(e) if k}
        if not sup:
            continue
        terms = {e: c}
        for g in [g for g in groups if g[0] & sup]:
            groups.remove(g)
            sup |= g[0]
            terms.update(g[1])
        groups.append((sup, terms))
    out = []
    for sup, terms in sorted(groups, key=lambda g: min(g[0])):
        vs = tuple(sorted(sup))
        out.append((vs, MultiPoly(f.ring, len(vs),
                                  {tuple([e[v] for v in vs]): c for e, c in terms.items()})))
    return out


def divided_difference(g: MultiPoly, j: int) -> MultiPoly:
    """The j-th divided difference of g, a polynomial in doubled variables.

    Variables 0..n-1 stay x_0..x_{n-1}; indices n..2n-1 hold y_0..y_{n-1}.
    Variables before j are already moved to y, so the family telescopes to
    g(y) - g(x).
    """
    n = g.n_vars
    if not 0 <= j < n:
        raise ValueError("variable index out of range")
    terms: dict = {}
    for e, c in g.terms.items():
        k = e[j]
        if k == 0:
            continue
        base = [0] * (2 * n)
        for i, ki in enumerate(e):
            if i == j:
                continue
            base[n + i if i < j else i] = ki
        for s in range(k):
            ne = list(base)
            ne[j] = k - 1 - s
            ne[n + j] = s
            ne = tuple(ne)
            terms[ne] = terms[ne] + c if ne in terms else c
    return MultiPoly(g.ring, 2 * n, terms)


MAX_NESTING = 100  # levels of parentheses; each costs the descent four frames
MAX_EXPANSION = 100_000  # term pairs one product of the expansion may multiply

# One token per match, white space skipped: an integer, a name, ** (which
# is ^), or any other single character: an operator, or an error.
_TOKEN = re.compile(r"\d+|[^\W\d]\w*|\*\*|\S")
_OPERATORS = {"+": "+", "-": "-", "*": "*", "^": "^", "**": "^", "(": "(", ")": ")"}


def _tokenize(text: str):
    """The tokens of text: ints, names, and operators as their characters."""
    tokens = []
    for tok in _TOKEN.findall(text):
        op = _OPERATORS.get(tok)
        if op is not None:
            tokens.append(op)
        elif tok.isdecimal():
            tokens.append(int(tok))
        elif tok[0].isalpha() or tok[0] == "_":
            tokens.append(tok)
        else:  # a stray character, or a non-decimal numeral that starts no name
            i = list(_TOKEN.finditer(text))[len(tokens)].start()
            raise PolySyntaxError(f"unexpected character {text[i]!r} at position {i}")
    return tokens


def _add_into(acc: dict, other: dict, subtract: bool):
    """acc += other (or -= other), dropping the terms that cancel."""
    for e, c in other.items():
        if subtract:
            c = -c
        if e in acc:
            c = acc[e] + c
            if _czero(c):
                del acc[e]
                continue
        acc[e] = c


def _size(node) -> int:
    """The terms of a parsed node: a dict's, or one for a nonzero constant."""
    if isinstance(node, dict):
        return len(node)
    return 0 if _czero(node) else 1


class _Parser:
    """Recursive descent over the tokens.  A node is a constant, held as a
    ring element, or a dict {exponent tuple: coefficient} once a variable
    enters; only the finished polynomial is built as a MultiPoly."""

    def __init__(self, tokens, ring, var_names, constants):
        self.tokens = tokens + [None]
        self.pos = 0
        self.ring = ring
        self.n = len(var_names)
        self.one = ring(1)
        self.monomials = {}
        for i, v in enumerate(var_names):
            e = [0] * self.n
            e[i] = 1
            self.monomials[v] = tuple(e)
        self.constants = constants or {}
        self.depth = 0

    def as_terms(self, node) -> dict:
        """node as a term dict: itself, or a constant's one term."""
        if isinstance(node, dict):
            return node
        return {} if _czero(node) else {(0,) * self.n: node}

    def product(self, a, b):
        """a * b, refused past MAX_EXPANSION term pairs; a constant counts
        as one term, or none when it is zero."""
        if _size(a) * _size(b) > MAX_EXPANSION:
            raise PolySyntaxError(f"expanding the input multiplies {_size(a)} by {_size(b)} "
                                  f"terms, more than {MAX_EXPANSION} term pairs")
        if not isinstance(a, dict):
            if not isinstance(b, dict):
                return a * b
            a, b = b, a
        elif isinstance(b, dict):
            return _mul_terms(a, b)
        out = {}
        for e, c in a.items():
            c = b if c is self.one else c * b
            if not _czero(c):
                out[e] = c
        return out

    def expr(self):
        node = self.term()
        while True:
            op = self.tokens[self.pos]
            if op != "+" and op != "-":
                return node
            self.pos += 1
            other = self.term()
            if isinstance(node, dict) or isinstance(other, dict):
                node = self.as_terms(node)
                _add_into(node, self.as_terms(other), op == "-")
            else:
                node = node - other if op == "-" else node + other

    def term(self):
        node = self.factor()
        while self.tokens[self.pos] == "*":
            self.pos += 1
            node = self.product(node, self.factor())
        return node

    def factor(self):
        tok = self.tokens[self.pos]
        neg = False
        while tok == "+" or tok == "-":
            self.pos += 1
            if tok == "-":
                neg = not neg
            tok = self.tokens[self.pos]
        node = self.atom()
        if self.tokens[self.pos] == "^":
            k = self.tokens[self.pos + 1]
            self.pos += 2
            if type(k) is not int:
                raise PolySyntaxError("exponent must be an integer literal")
            if not k:
                node = self.one
            elif isinstance(node, dict):
                node = _pow_terms(node, k, self.one, self.product)
            else:
                node = node ** k
        if not neg:
            return node
        return {e: -c for e, c in node.items()} if isinstance(node, dict) else -node

    def atom(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        if type(tok) is int:
            return self.ring(tok)
        if tok == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise PolySyntaxError(f"parentheses nested deeper than {MAX_NESTING}")
            node = self.expr()
            if self.tokens[self.pos] != ")":
                raise PolySyntaxError("expected closing parenthesis")
            self.pos += 1
            self.depth -= 1
            return node
        if tok is not None and tok not in _OPERATORS:
            e = self.monomials.get(tok)
            if e is not None:
                return {e: self.one}
            if tok in self.constants:
                return self.ring(self.constants[tok])
            raise UnknownVariable(f"unknown name {tok!r}")
        raise PolySyntaxError(f"unexpected token {tok!r}")


def parse_poly(text: str, ring, var_names, constants=None) -> MultiPoly:
    """Parse an expression with +, -, *, ^, parentheses, ints, and names.

    The text is tokenized in one pass.  Constants such as (1+2*g+g^3) or
    2*g^5 are folded as ring elements, and a product with a constant scales
    the other factor's terms; only a subexpression holding a variable is
    kept as a dict of terms.  No product of the expansion may multiply more
    than MAX_EXPANSION pairs of terms, so every input is read in bounded
    time.
    """
    repeated = [v for i, v in enumerate(var_names) if v in var_names[:i]]
    if repeated:
        raise PolySyntaxError(f"variable {repeated[0]} is declared more than once")
    tokens = _tokenize(text)
    if not tokens:
        raise PolySyntaxError("empty expression")
    parser = _Parser(tokens, ring, var_names, constants)
    node = parser.expr()
    if parser.pos != len(tokens):
        raise PolySyntaxError(f"trailing input near token {parser.pos}")
    return MultiPoly(ring, len(var_names), parser.as_terms(node))
