"""Small infix grammar for polynomial and series values in documents.

Operators: ``+ - * / ^`` with parentheses and unary minus, over integer
literals and named symbols.  Every value parses as one type, a
``SeriesExpression``: a numerator and a denominator polynomial in t and
the symbols.  ``t`` is never a name.  In series context it is the series
variable and ``/`` is a full division (the denominator must be a unit at
t = 0).  In polynomial context t is no symbol and a divisor must be a
nonzero constant, such as ``(2*3)``, folded into the numerator, so a
polynomial is the numerator of a value whose denominator is 1.  A zero
divisor and an unknown symbol are parse errors; symbols never become new
variables.

A value past a bound is a ``ParseError`` at the column of the token that
crosses it.  An exponent is an integer literal of at most
``MAX_EXPONENT``, and so is the degree of a power, checked before it is
computed: the degree in t or in the other symbols of a monomial of the
numerator or denominator, whichever is larger, so ``((x)^256)^256``
cannot run unbounded.  A power of a k-term base to the n, which has at
most C(n+k-1, k-1) terms, is refused when that exceeds
``MAX_POWER_TERMS``; a value counts the distinct monomials in the symbols
other than t of its numerator or denominator, whichever has more.  A
product, and a series quotient, whose degree or whose term count can
exceed those bounds is refused at its operator before it is formed, so
a product written out factor by factor is bounded like a power.  Over
Q no coefficient (bits of numerator plus denominator) of a sum, product
or quotient may exceed ``MAX_COEFFICIENT_BITS``, nor n times the largest
of a power's base, checked before the power is computed, so
``((2^256)^256)^256`` cannot run unbounded; GF(p) reduces every product
and needs no such bound.  An integer literal has at most
``MAX_LITERAL_DIGITS`` digits, and at most ``MAX_NESTING`` open
parentheses and unary minus signs enclose any point of a value.
"""

from __future__ import annotations

from itertools import chain
from math import comb
from typing import Sequence

from .errors import ParseError
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

# Largest coefficient over Q, in bits of its numerator plus its denominator,
# of a sum, product or quotient, and largest n times the base's largest of a
# power.  It stays below the 14,284 bits of Python's 4300-digit int-to-str
# limit, with room for a power's multinomial factor, so every coefficient of
# an accepted value can be printed.
MAX_COEFFICIENT_BITS = 8192

# Most digits of one integer literal; Python refuses to read more than 4300.
MAX_LITERAL_DIGITS = 1000

# Most open parentheses and unary minus signs around any point of a value.
# Each level costs the parser a few Python frames, so this keeps a deep
# value far from the interpreter's recursion limit (1000 frames).
MAX_NESTING = 100

_SYMBOL_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_DIGITS = set("0123456789")  # ASCII only: str.isdigit() also accepts "²" and "٣"
_SYMBOL_BODY = _SYMBOL_START | _DIGITS


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
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            if j - i > MAX_LITERAL_DIGITS:
                message = f"integer literal of {j - i} digits exceeds the maximum {MAX_LITERAL_DIGITS}"
                raise ParseError(message, i + 1, context)
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
    """Recursive-descent evaluator of one value as a ``SeriesExpression``.

    ``names`` are the symbols it may use.  With ``series``, t is the series
    variable and ``/`` divides; otherwise t is no symbol and a divisor must
    be a nonzero constant, folded into the numerator, so the denominator
    stays 1.
    """

    def __init__(self, text, context, field, names, series):
        if "t" in names:
            raise ParseError("'t' is reserved for the series variable", 1, context)
        self.tokens = _tokenize(text, context)
        self.pos = 0
        self.context = context
        self.field = field
        self.names = set(names)
        self.series = series
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, column):
        raise ParseError(message, column, self.context)

    def constant(self, value):
        return SeriesExpression.constant(self.field, value)

    def descend(self, column):
        """One more open parenthesis or unary minus, refused past ``MAX_NESTING``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"nesting deeper than the maximum {MAX_NESTING}", column)

    def bound_bits(self, what, value, column, exponent=1):
        """Over Q, refuse a largest coefficient of ``value``, times ``exponent``, past the bound."""
        if self.field.p:
            return  # GF(p) reduces every product
        bits = exponent * max(map(_bits, chain(value.num.terms.values(), value.den.terms.values())))
        if bits > MAX_COEFFICIENT_BITS:
            self.fail(f"{what} of coefficient size {bits} bits exceeds the maximum {MAX_COEFFICIENT_BITS}", column)

    def bound_product(self, what, *pairs, column):
        """Refuse, before it is formed, a product of polynomial pairs past the degree or term bound.

        The degree of each product is exact: the larger of the sums of its
        factors' degrees in t and in the other symbols.  Its term count
        (see ``_shape``) is at most the product of its factors' counts, and
        at most the number of monomials in the symbols of both whose degree
        lies between the sums of their factors' least and largest degrees.
        """
        degree = terms = 0
        for a, b in pairs:
            (ta, low_a, high_a, names_a, ka), (tb, low_b, high_b, names_b, kb) = _shape(a), _shape(b)
            degree = max(degree, ta + tb, high_a + high_b)
            v = len(names_a | names_b)
            window = comb(high_a + high_b + v, v) - comb(low_a + low_b + v - 1, v) if v else 1
            terms = max(terms, min(ka * kb, window))
        if degree > MAX_EXPONENT:
            self.fail(f"{what} of degree {degree} exceeds the maximum {MAX_EXPONENT}", column)
        if terms > MAX_POWER_TERMS:
            self.fail(f"{what} may have {terms} terms, over the maximum {MAX_POWER_TERMS}", column)

    def parse(self):
        value = self.expr()
        kind, _, col = self.peek()
        if kind != "end":
            self.fail(f"unexpected {kind!r}", col)
        return value

    def expr(self):
        value = self.term()
        while True:
            kind, _, col = self.peek()
            if kind == "+":
                self.take()
                value = value + self.term()
            elif kind == "-":
                self.take()
                value = value - self.term()
            else:
                return value
            self.bound_bits("sum", value, col)

    def term(self):
        value = self.unary()
        while True:
            kind, _, col = self.peek()
            if kind == "*":
                self.take()
                factor = self.unary()
                self.bound_product("product", (value.num, factor.num), (value.den, factor.den), column=col)
                value = value * factor
                self.bound_bits("product", value, col)
            elif kind == "/":
                self.take()
                _, _, dcol = self.peek()
                divisor = self.unary()
                if not divisor.num:
                    self.fail("division by zero", dcol)
                if self.series:
                    self.bound_product("quotient", (value.num, divisor.den), (value.den, divisor.num), column=col)
                    value = value / divisor
                elif divisor.num.is_constant():
                    value = value * self.constant(self.field.inv(divisor.num.constant_value()))
                else:
                    self.fail("division is only allowed by a constant here", dcol)
                self.bound_bits("quotient", value, col)
            else:
                return value

    def unary(self):
        kind, _, col = self.peek()
        if kind == "-":
            self.take()
            self.descend(col)
            value = -self.unary()
            self.depth -= 1
            return value
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
            shapes = _shape(value.num), _shape(value.den)
            degree = max(max(t, high) for t, _, high, _, _ in shapes) * nval
            if degree > MAX_EXPONENT:
                self.fail(f"power of degree {degree} exceeds the maximum {MAX_EXPONENT}", ncol)
            k = max(shape[4] for shape in shapes)
            if k > 1 and comb(nval + k - 1, k - 1) > MAX_POWER_TERMS:
                self.fail(
                    f"power {nval} of a {k}-term base may exceed {MAX_POWER_TERMS} terms", ncol
                )
            self.bound_bits("power", value, ncol, nval)
            value = value ** nval
        return value

    def atom(self):
        kind, val, col = self.take()
        if kind == "num":
            return self.constant(val)
        if kind == "sym":
            field = self.field
            if self.series and val == "t":
                return SeriesExpression.t_power(field, 1)
            if val not in self.names:
                self.fail(f"unknown symbol {val!r}", col)
            return SeriesExpression(field, SparsePolynomial.variable(field, val))
        if kind == "(":
            self.descend(col)
            value = self.expr()
            ckind, _, ccol = self.take()
            if ckind != ")":
                self.fail("expected ')'", ccol)
            self.depth -= 1
            return value
        self.fail(f"unexpected {kind!r}", col)


def parse_polynomial(
    text: str,
    field: BaseField,
    variables: Sequence[str],
    context: str = "",
) -> SparsePolynomial:
    """Parse a polynomial in the given variables over the base field."""
    return _Parser(text, context, field, variables, series=False).parse().num


def parse_series_expression(
    text: str,
    field: BaseField,
    transcendentals: Sequence[str],
    context: str = "",
) -> SeriesExpression:
    """Parse a rational-in-t expression with transcendental coefficients."""
    return _Parser(text, context, field, transcendentals, series=True).parse()


def _shape(poly: SparsePolynomial) -> tuple[int, int, int, set, int]:
    """What the bounds read of a polynomial in t and the symbols.

    Its degree in t; the least and the largest degree in the other symbols
    over its monomials; those symbols; and its term count, the number of
    distinct monomials in those symbols.
    """
    splits = [split_t(mono) for mono in poly.terms]
    rests = {rest for _, rest in splits}
    degrees = [sum(e for _, e in rest) for rest in rests]
    names = {name for rest in rests for name, _ in rest}
    return max((e for e, _ in splits), default=0), min(degrees, default=0), max(degrees, default=0), names, len(rests)


def _bits(c) -> int:
    """Bits of a rational coefficient's numerator plus its denominator."""
    return abs(c.numerator).bit_length() + c.denominator.bit_length()
