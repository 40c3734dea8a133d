"""Truncated power series in t with explicit precision semantics.

A series is a dense coefficient list; its precision is the list length.
Orders of vanishing distinguish an observed finite order from "no
nonzero coefficient below P was seen", and all arithmetic propagates
precision pessimistically except multiplication, which uses the sharper
rule  P = min(P_a + z_b, P_b + z_a)  where z is the observed zero-prefix
length.  That rule is what keeps diagonalization over t-truncated rings
exact at full working precision.

The coefficients of a series are all of one kind: field elements
(fractions of polynomials in the transcendentals); or, for data with no
transcendentals, raw base-field scalars (ints and ``Fraction``s over Q,
ints in ``range(p)`` over GF(p)), which skip the ``FieldElement`` layer;
or ``SparsePolynomial``s, which carry the jet equations as the
coefficients of a generator evaluated on the generic truncated curve.
Over GF(p) a series of raw ints reduces them mod p when it is built, so
the result of every series operation is reduced; field elements and
polynomials reduce mod p themselves.  The kernel and ``TruncatedSeries``
test a coefficient for zero by its truthiness, so one path serves every
kind.

Series expressions (quotients of t-polynomials with unit denominator)
carry exact data that can be re-expanded at any precision, which is what
the stabilization drivers rely on when they need more coefficients.  An
expression whose coefficients are all base-field constants expands on
raw scalars.

All products and quotients of coefficient lists go through one kernel:
``truncated_product`` and ``truncated_quotient``.  The zero handed to
the kernel is of the kind of the coefficients it works on.  A product
of polynomial coefficients, or of field elements with denominator 1,
builds each output coefficient in one term dict and canonicalizes it
once: a sum of polynomials is the same whatever its order.  Raw scalars
and field elements with other denominators are summed term by term in a
fixed order, because unreduced fractions are not: the order fixes their
representatives.  A product of series expressions skips a factor 1, so
unit denominators are never multiplied.
"""

from __future__ import annotations

from itertools import chain
from typing import Mapping, Sequence

from .errors import DenominatorNotUnit, PrecisionTooLow
from .exact import BaseField, FieldElement, SparsePolynomial

DEFAULT_PRECISION = 24
PRECISION_CAP = 192


def truncated_product(a: Sequence, b: Sequence, length: int, zero) -> list:
    """First ``length`` coefficients of the product of two coefficient lists.

    Ring-generic: coefficients need ``+``, ``*`` and a truthiness that is
    false exactly for zero; zero coefficients are skipped.  Polynomial
    coefficients build each output coefficient in one dict of raw sums
    (``SparsePolynomial.add_product_into``) and canonicalize it once;
    field elements whose nonzero coefficients all have denominator 1
    multiply their numerators that way and wrap each sum once.  A sum of
    polynomials does not depend on its order.  Raw scalars, and field
    elements with any other denominator, accumulate term by term onto
    ``zero`` in (i ascending, j ascending) order; fractions are never
    reduced, so that order fixes the representatives of the result.
    """
    nonzero_b = [(j, cb) for j, cb in enumerate(b[:length]) if cb]
    out = [zero] * length
    if not nonzero_b:
        return out
    nonzero_a = [(i, ca) for i, ca in enumerate(a[: length - nonzero_b[0][0]]) if ca]
    unit = None
    if isinstance(zero, FieldElement) and all(c._den_is_one() for _, c in chain(nonzero_a, nonzero_b)):
        unit = zero.den
        nonzero_a = [(i, c.num) for i, c in nonzero_a]
        nonzero_b = [(j, c.num) for j, c in nonzero_b]
    elif not isinstance(zero, SparsePolynomial):
        # Raw scalars, or some other denominator: term by term, in order.
        for i, ca in nonzero_a:
            for j, cb in nonzero_b:
                if i + j >= length:
                    break
                out[i + j] = out[i + j] + ca * cb
        return out
    # Polynomials: one dict of raw sums per output coefficient.
    sums: list = [None] * length
    for i, ca in nonzero_a:
        for j, cb in nonzero_b:
            k = i + j
            if k >= length:
                break
            if sums[k] is None:
                sums[k] = {}
            ca.add_product_into(cb, sums[k])
    field = zero.field
    for k, acc in enumerate(sums):
        if acc:
            poly = SparsePolynomial.from_sums(field, acc)
            if poly:
                out[k] = poly if unit is None else FieldElement._raw(poly, unit)
    return out


def truncated_quotient(num: Sequence, den: Sequence, length: int, zero, inv0, p=None) -> list:
    """First ``length`` coefficients of num/den, by long division.

    ``inv0`` is the inverse of the unit ``den[0]``, so coefficients need
    only ``+``, ``-`` and ``*``; missing coefficients of ``num`` are
    ``zero``.  Raw int scalars over GF(p) pass ``p``: each coefficient is
    reduced as it is found, so the recursion never grows its ints.
    """
    out = []
    for k in range(length):
        acc = num[k] if k < len(num) else zero
        for i in range(1, min(k, len(den) - 1) + 1):
            acc = acc - den[i] * out[k - i]
        out.append(inv0 * acc % p if p else inv0 * acc)
    return out


class OrderValue:
    """Order of vanishing: Finite(e) or AtLeast(P)."""

    __slots__ = ("_value", "_finite")

    def __init__(self, value: int, finite: bool):
        self._value = value
        self._finite = finite

    @classmethod
    def finite(cls, e: int) -> "OrderValue":
        return cls(e, True)

    @classmethod
    def at_least(cls, bound: int) -> "OrderValue":
        return cls(bound, False)

    @property
    def is_finite(self) -> bool:
        return self._finite

    @property
    def value(self) -> int:
        if not self._finite:
            raise ValueError("order is not finite")
        return self._value

    @property
    def bound(self) -> int:
        """Known lower bound on the order (the value itself when finite)."""
        return self._value

    def min(self, other: "OrderValue") -> "OrderValue":
        if self._finite and other._finite:
            return OrderValue.finite(min(self._value, other._value))
        if self._finite:
            # Finite(e) wins whenever e <= the other side's lower bound.
            return self if self._value <= other._value else OrderValue.at_least(other._value)
        if other._finite:
            return other.min(self)
        return OrderValue.at_least(min(self._value, other._value))

    def plus(self, other: "OrderValue") -> "OrderValue":
        """Saturating sum: any AtLeast operand keeps the sum an AtLeast."""
        return OrderValue(self._value + other._value, self._finite and other._finite)

    def __eq__(self, other):
        return (
            isinstance(other, OrderValue)
            and self._finite == other._finite
            and self._value == other._value
        )

    def __hash__(self):
        return hash((self._finite, self._value))

    def __repr__(self):
        return f"Finite({self._value})" if self._finite else f"AtLeast({self._value})"

    def to_json(self):
        if self._finite:
            return {"kind": "finite", "value": self._value}
        return {"kind": "at_least", "bound": self._value}


def _zero_like(field: BaseField, coeff):
    """The zero of the kind of ``coeff``: a field element, a polynomial or a scalar."""
    if isinstance(coeff, FieldElement):
        return field.fe_zero
    return field.fe_zero.num if isinstance(coeff, SparsePolynomial) else 0


class TruncatedSeries:
    """Power series in t known modulo t^P.

    Coefficients are field elements of the base field's fraction field,
    polynomials over the base field, or raw base-field scalars, reduced
    mod p here over GF(p); see the module docstring.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: BaseField, coeffs: Sequence):
        if not coeffs:
            raise ValueError("a truncated series needs precision >= 1")
        self.field = field
        self.coeffs = tuple(coeffs)
        p = field.p
        if p is not None and self.is_scalar:
            self.coeffs = tuple(c % p if type(c) is int else field.coerce(c) for c in self.coeffs)

    @property
    def is_scalar(self) -> bool:
        """True when the coefficients are raw base-field scalars."""
        return not isinstance(self.coeffs[0], (FieldElement, SparsePolynomial))

    def lifted(self) -> "TruncatedSeries":
        """This series of raw scalars with its coefficients as field elements."""
        field = self.field
        zero = field.fe_zero
        return TruncatedSeries(field, [FieldElement.from_scalar(field, c) if c else zero for c in self.coeffs])

    @classmethod
    def from_coefficients(cls, field: BaseField, coeffs: Sequence, precision: int) -> "TruncatedSeries":
        zero = _zero_like(field, coeffs[0]) if coeffs else field.fe_zero
        padded = list(coeffs[:precision]) + [zero] * max(0, precision - len(coeffs))
        return cls(field, padded)

    @property
    def precision(self) -> int:
        return len(self.coeffs)

    def zero_prefix(self) -> int:
        """Number of leading coefficients that are exactly zero."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return len(self.coeffs)

    def order(self) -> OrderValue:
        z = self.zero_prefix()
        if z < len(self.coeffs):
            return OrderValue.finite(z)
        return OrderValue.at_least(len(self.coeffs))

    def truncate(self, precision: int) -> "TruncatedSeries":
        if precision > len(self.coeffs):
            raise PrecisionTooLow(precision - 1, len(self.coeffs))
        return TruncatedSeries(self.field, self.coeffs[:precision])

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        p = min(len(self.coeffs), len(other.coeffs))
        return TruncatedSeries(self.field, [a + b for a, b in zip(self.coeffs[:p], other.coeffs[:p])])

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        p = min(len(self.coeffs), len(other.coeffs))
        return TruncatedSeries(self.field, [a - b for a, b in zip(self.coeffs[:p], other.coeffs[:p])])

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.field, [-a for a in self.coeffs])

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        pa, pb = len(self.coeffs), len(other.coeffs)
        za, zb = self.zero_prefix(), other.zero_prefix()
        # Unknown coefficients of one factor only meet stored zeros of the
        # other below this bound, so the product is exact to it.
        precision = min(pa + zb, pb + za)
        zero = _zero_like(self.field, self.coeffs[0])
        return TruncatedSeries(self.field, truncated_product(self.coeffs, other.coeffs, precision, zero))

    def shift_down(self, e: int) -> "TruncatedSeries":
        """Divide by t^e; the first e coefficients must be exact zeros."""
        if e == 0:
            return self
        if self.zero_prefix() < e or len(self.coeffs) <= e:
            raise ValueError("cannot divide series by t^e: low coefficients not zero")
        return TruncatedSeries(self.field, self.coeffs[e:])

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and self.field == other.field
            and len(self.coeffs) == len(other.coeffs)
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __str__(self):
        body = _coeffs_text(self.coeffs)
        return f"{body} + O(t^{len(self.coeffs)})"

    def __repr__(self):
        return f"TruncatedSeries({self})"


def _coeffs_text(coeffs) -> str:
    parts = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        text = str(c)
        if "+" in text or "-" in text[1:] or "/" in text:
            text = f"({text})"
        if i == 0:
            parts.append(text)
        elif text == "1":
            parts.append("t" if i == 1 else f"t^{i}")
        elif text == "-1":
            parts.append("-t" if i == 1 else f"-t^{i}")
        else:
            parts.append(f"{text}*t" if i == 1 else f"{text}*t^{i}")
    if not parts:
        return "0"
    out = parts[0]
    for part in parts[1:]:
        out += " - " + part[1:] if part.startswith("-") else " + " + part
    return out


def _is_one(coeffs) -> bool:
    """True when a coefficient tuple is the polynomial 1."""
    return len(coeffs) == 1 and coeffs[0]._den_is_one() and coeffs[0].num.terms == {(): 1}


def _trim(coeffs: list[FieldElement]) -> tuple[FieldElement, ...]:
    last = len(coeffs)
    while last > 1 and coeffs[last - 1].is_zero():
        last -= 1
    return tuple(coeffs[:last])


class SeriesExpression:
    """Quotient of two t-polynomials with unit denominator.

    Carries exact data: ``expand(P)`` produces the first P coefficients,
    and expansions at different precisions agree on their overlap.  The
    coefficients are field elements; when all of them are base-field
    constants the expression is k-rational and expands on raw scalars.
    """

    __slots__ = ("field", "num", "den")

    def __init__(
        self,
        field: BaseField,
        num: Sequence[FieldElement],
        den: Sequence[FieldElement] | None = None,
    ):
        self.field = field
        self.num = _trim(list(num) or [field.fe_zero])
        self.den = _trim(list(den) if den is not None else [field.fe_one])
        if self.den[0].is_zero():
            raise DenominatorNotUnit("series expression denominator vanishes at t = 0")

    @classmethod
    def constant(cls, field: BaseField, value) -> "SeriesExpression":
        fe = value if isinstance(value, FieldElement) else FieldElement.from_scalar(field, value)
        return cls(field, [fe])

    @classmethod
    def t_power(cls, field: BaseField, e: int, coefficient=None) -> "SeriesExpression":
        c = coefficient if coefficient is not None else field.fe_one
        return cls(field, [field.fe_zero] * e + [c])

    def is_zero(self) -> bool:
        return len(self.num) == 1 and self.num[0].is_zero()

    def is_k_rational(self) -> bool:
        """True when every coefficient is a visible base-field constant."""
        return all(c.is_constant() for c in self.num) and all(c.is_constant() for c in self.den)

    def _poly_mul(self, a, b):
        # A factor 1 (a unit denominator, mostly) leaves the other as it is:
        # the kernel would rebuild the same coefficients.
        if _is_one(b):
            return a
        if _is_one(a):
            return b
        return truncated_product(a, b, len(a) + len(b) - 1, self.field.fe_zero)

    def _poly_add(self, a, b):
        zero = self.field.fe_zero
        out = []
        for i in range(max(len(a), len(b))):
            ca = a[i] if i < len(a) else zero
            cb = b[i] if i < len(b) else zero
            out.append(ca + cb)
        return out

    def __add__(self, other: "SeriesExpression") -> "SeriesExpression":
        if self.den == other.den:
            return SeriesExpression(self.field, self._poly_add(self.num, other.num), self.den)
        num = self._poly_add(
            self._poly_mul(self.num, other.den), self._poly_mul(other.num, self.den)
        )
        return SeriesExpression(self.field, num, self._poly_mul(self.den, other.den))

    def __neg__(self) -> "SeriesExpression":
        return SeriesExpression(self.field, [-c for c in self.num], self.den)

    def __sub__(self, other: "SeriesExpression") -> "SeriesExpression":
        return self + (-other)

    def __mul__(self, other: "SeriesExpression") -> "SeriesExpression":
        return SeriesExpression(
            self.field,
            self._poly_mul(self.num, other.num),
            self._poly_mul(self.den, other.den),
        )

    def __truediv__(self, other: "SeriesExpression") -> "SeriesExpression":
        return SeriesExpression(
            self.field,
            self._poly_mul(self.num, other.den),
            self._poly_mul(self.den, other.num),
        )

    def __pow__(self, exponent: int) -> "SeriesExpression":
        if exponent < 0:
            raise ValueError("negative exponent on a series expression")
        result = SeriesExpression.constant(self.field, self.field.fe_one)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, SeriesExpression):
            return NotImplemented
        lhs = self._poly_mul(self.num, other.den)
        rhs = self._poly_mul(other.num, self.den)
        return all(c.is_zero() for c in self._poly_add(lhs, [-c for c in rhs]))

    def expand(self, precision: int) -> TruncatedSeries:
        """First ``precision`` coefficients, by long division.

        A k-rational expression expands on raw scalars, any other on field
        elements.
        """
        if precision < 1:
            raise ValueError("precision must be >= 1")
        field = self.field
        if self.is_k_rational():
            num = [c.constant_value() for c in self.num]
            den = [c.constant_value() for c in self.den]
            coeffs = truncated_quotient(num, den, precision, 0, field.inv(den[0]), field.p)
        else:
            coeffs = truncated_quotient(self.num, self.den, precision, field.fe_zero, self.den[0].inverse())
        return TruncatedSeries(field, coeffs)

    def __str__(self):
        num = _coeffs_text(self.num)
        if len(self.den) == 1 and self.den[0] == self.field.fe_one:
            return num
        return f"({num})/({_coeffs_text(self.den)})"

    def __repr__(self):
        return f"SeriesExpression({self})"


def evaluate_poly_at_series(
    poly: SparsePolynomial,
    assignment: Mapping[str, TruncatedSeries],
    precision: int,
) -> TruncatedSeries:
    """Evaluate an ambient polynomial on series components.

    A coefficient of ``poly`` becomes a constant series of the kind of the
    series it meets: a raw scalar on series of raw scalars, a field
    element otherwise (and when there is no series to meet).
    """
    field = poly.field
    series = next(iter(assignment.values()), None)
    scalar = series is not None and series.is_scalar

    def const(c):
        return TruncatedSeries.from_coefficients(
            field, [c if scalar else FieldElement.from_scalar(field, c)], precision
        )

    return poly.evaluate(assignment, const)
