"""Small infix grammar for polynomial and series values in documents.

Operators: ``+ - * ^`` with parentheses and unary minus; integer
literals combine into rationals with ``/``.  In series context the
variable ``t`` is reserved and ``/`` is a full division (the resulting
denominator must be a unit at t = 0); in polynomial context ``/`` is
only allowed with an integer literal divisor, so values stay
polynomials.  A zero divisor and an unknown symbol are parse errors;
symbols never become new variables.
Exponents are integer literals of at most ``MAX_EXPONENT``, and a power
is refused before it is computed when its degree would exceed
``MAX_EXPONENT``: the total degree for polynomials; for series
expressions the degree in t or in the transcendentals of a monomial of
the numerator or denominator, whichever is larger.  So nested powers such
as ``((x)^256)^256`` cannot run unbounded either.  A power is also refused
when its term count could exceed ``MAX_POWER_TERMS``: a base of k terms
to the n has at most C(n+k-1, k-1) terms.  A polynomial counts its terms;
a series expression counts the distinct monomials in the transcendentals
of its numerator or denominator, whichever has more (its powers of t are
already bounded by the degree).  Series values are built from
polynomials in t and the transcendentals, never from field elements.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Sequence

from .errors import ParseError, UnknownVariable
from .exact import BaseField, SparsePolynomial
from .series import SeriesExpression, split_t

# Largest exponent accepted after ``^``, and largest degree of a power.  It
# is above the default precision cap (192), so every power of t that the
# default refinement can see is writable, and it keeps a hostile exponent
# from running unbounded.
MAX_EXPONENT = 256

# Largest term count C(n+k-1, k-1) of a power of a k-term base.  Near this
# bound (a/2+b/3+c/5)^43, 990 terms, parses in 0.6 s on a 2-vCPU VM;
# (a+b+c+d+e+f)^256 would have about 10^10 terms.
MAX_POWER_TERMS = 1000

_SYMBOL_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_SYMBOL_BODY = _SYMBOL_START | set("0123456789")


def is_symbol(name: str) -> bool:
    """True when ``name`` is one symbol token: a letter or _, then letters, digits or _."""
    return bool(name) and name[0] in _SYMBOL_START and all(ch in _SYMBOL_BODY for ch in name)


def _tokenize(text: str, context: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("num", int(text[i:j]), i + 1))
            i = j
            continue
        if ch in _SYMBOL_START:
            j = i
            while j < n and text[j] in _SYMBOL_BODY:
                j += 1
            tokens.append(("sym", text[i:j], i + 1))
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, i + 1))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i + 1, context)
    tokens.append(("end", None, n + 1))
    return tokens


class _Parser:
    """Recursive-descent evaluator over a caller-supplied value ring."""

    def __init__(self, text, context, symbol, const, degree, terms, full_division):
        self.tokens = _tokenize(text, context)
        self.pos = 0
        self.context = context
        self.symbol = symbol
        self.const = const
        self.degree = degree
        self.terms = terms
        self.full_division = full_division

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, column):
        raise ParseError(message, column, self.context)

    def parse(self):
        value = self.expr()
        kind, _, col = self.peek()
        if kind != "end":
            self.fail(f"unexpected {kind!r}", col)
        return value

    def expr(self):
        value = self.term()
        while True:
            kind, _, _ = self.peek()
            if kind == "+":
                self.take()
                value = value + self.term()
            elif kind == "-":
                self.take()
                value = value - self.term()
            else:
                return value

    def term(self):
        value = self.unary()
        while True:
            kind, _, col = self.peek()
            if kind == "*":
                self.take()
                value = value * self.unary()
            elif kind == "/":
                self.take()
                if self.full_division:
                    _, _, dcol = self.peek()
                    divisor = self.unary()
                    if divisor.is_zero():
                        self.fail("division by zero", dcol)
                    value = value / divisor
                else:
                    nkind, nval, ncol = self.take()
                    if nkind != "num":
                        self.fail("division is only allowed by an integer literal here", ncol)
                    # Zero in the field: 0, or over GF(p) any multiple of p.
                    if not self.const(nval):
                        self.fail("division by zero", ncol)
                    value = value * self.const(Fraction(1, nval))
            else:
                return value

    def unary(self):
        kind, _, _ = self.peek()
        if kind == "-":
            self.take()
            return self.const(Fraction(-1)) * self.unary()
        return self.power()

    def power(self):
        value = self.atom()
        kind, _, _ = self.peek()
        if kind == "^":
            self.take()
            nkind, nval, ncol = self.take()
            if nkind != "num":
                self.fail("exponent must be a nonnegative integer", ncol)
            if nval > MAX_EXPONENT:
                self.fail(f"exponent {nval} exceeds the maximum {MAX_EXPONENT}", ncol)
            degree = self.degree(value) * nval
            if degree > MAX_EXPONENT:
                self.fail(f"power of degree {degree} exceeds the maximum {MAX_EXPONENT}", ncol)
            k = self.terms(value)
            if k > 1 and comb(nval + k - 1, k - 1) > MAX_POWER_TERMS:
                self.fail(
                    f"power {nval} of a {k}-term base may exceed {MAX_POWER_TERMS} terms", ncol
                )
            value = value ** nval
        return value

    def atom(self):
        kind, val, col = self.take()
        if kind == "num":
            return self.const(Fraction(val))
        if kind == "sym":
            try:
                return self.symbol(val)
            except UnknownVariable:
                self.fail(f"unknown symbol {val!r}", col)
        if kind == "(":
            value = self.expr()
            ckind, _, ccol = self.take()
            if ckind != ")":
                self.fail("expected ')'", ccol)
            return value
        self.fail(f"unexpected {kind!r}", col)


def parse_polynomial(
    text: str,
    field: BaseField,
    variables: Sequence[str],
    context: str = "",
) -> SparsePolynomial:
    """Parse a polynomial in the given variables over the base field."""
    allowed = set(variables)

    def symbol(name):
        if name not in allowed:
            raise UnknownVariable(name)
        return SparsePolynomial.variable(field, name)

    def const(value):
        return SparsePolynomial.constant(field, value)

    parser = _Parser(
        text, context, symbol, const, SparsePolynomial.degree, _polynomial_terms, full_division=False
    )
    value = parser.parse()
    # SparsePolynomial ** guards negative exponents; nothing else to check.
    return value


def parse_series_expression(
    text: str,
    field: BaseField,
    transcendentals: Sequence[str],
    context: str = "",
) -> SeriesExpression:
    """Parse a rational-in-t expression with transcendental coefficients."""
    allowed = set(transcendentals)
    if "t" in allowed:
        raise ParseError("'t' is reserved for the series variable", 1, context)

    def symbol(name):
        if name == "t":
            return SeriesExpression.t_power(field, 1)
        if name not in allowed:
            raise UnknownVariable(name)
        return SeriesExpression.constant(field, SparsePolynomial.variable(field, name))

    def const(value):
        return SeriesExpression.constant(field, value)

    parser = _Parser(text, context, symbol, const, _series_degree, _series_terms, full_division=True)
    return parser.parse()


def _series_degree(value: SeriesExpression) -> int:
    """Larger of the degree in t and the degree in the transcendentals, over every monomial."""
    splits = [split_t(mono) for poly in (value.num, value.den) for mono in poly.terms]
    return max((max(e, sum(x for _, x in rest)) for e, rest in splits), default=0)


def _polynomial_terms(value: SparsePolynomial) -> int:
    return len(value.terms)


def _series_terms(value: SeriesExpression) -> int:
    """Distinct monomials in the transcendentals, in the numerator or the denominator."""
    return max(len({split_t(mono)[1] for mono in poly.terms}) for poly in (value.num, value.den))
