"""Truncated power series in t with explicit precision semantics.

A series is a dense coefficient list of field elements; its precision is
the list length.  Orders of vanishing distinguish an observed finite
order from "no nonzero coefficient below P was seen", and all arithmetic
propagates precision pessimistically except multiplication, which uses
the sharper rule  P = min(P_a + z_b, P_b + z_a)  where z is the observed
zero-prefix length.  That rule is what keeps diagonalization over
t-truncated rings exact at full working precision.

Series expressions (quotients of t-polynomials with unit denominator)
carry exact data that can be re-expanded at any precision, which is what
the stabilization drivers rely on when they need more coefficients.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .errors import DenominatorNotUnit, NotAUnit, PrecisionTooLow
from .exact import BaseField, FieldElement, SparsePolynomial

DEFAULT_PRECISION = 24
PRECISION_CAP = 192


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


class TruncatedSeries:
    """Power series in t known modulo t^P, over a base field's fraction field."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: BaseField, coeffs: Sequence[FieldElement]):
        if not coeffs:
            raise ValueError("a truncated series needs precision >= 1")
        self.field = field
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, field: BaseField, precision: int) -> "TruncatedSeries":
        z = FieldElement.from_scalar(field, 0)
        return cls(field, [z] * precision)

    @classmethod
    def constant(cls, field: BaseField, value, precision: int) -> "TruncatedSeries":
        z = FieldElement.from_scalar(field, 0)
        coeffs = [z] * precision
        coeffs[0] = value if isinstance(value, FieldElement) else FieldElement.from_scalar(field, value)
        return cls(field, coeffs)

    @classmethod
    def from_coefficients(
        cls, field: BaseField, coeffs: Sequence[FieldElement], precision: int
    ) -> "TruncatedSeries":
        z = FieldElement.from_scalar(field, 0)
        padded = list(coeffs[:precision]) + [z] * max(0, precision - len(coeffs))
        return cls(field, padded)

    @property
    def precision(self) -> int:
        return len(self.coeffs)

    def zero_prefix(self) -> int:
        """Number of leading coefficients that are exactly zero."""
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
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
        zero = FieldElement.from_scalar(self.field, 0)
        out = [zero] * precision
        for i in range(za, pa):
            a = self.coeffs[i]
            if a.is_zero():
                continue
            for j in range(zb, min(pb, precision - i)):
                b = other.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return TruncatedSeries(self.field, out)

    def scale(self, factor: FieldElement) -> "TruncatedSeries":
        return TruncatedSeries(self.field, [factor * c for c in self.coeffs])

    def shift_down(self, e: int) -> "TruncatedSeries":
        """Divide by t^e; the first e coefficients must be exact zeros."""
        if e == 0:
            return self
        if self.zero_prefix() < e or len(self.coeffs) <= e:
            raise ValueError("cannot divide series by t^e: low coefficients not zero")
        return TruncatedSeries(self.field, self.coeffs[e:])

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse of a unit (order exactly zero)."""
        if self.coeffs[0].is_zero():
            raise NotAUnit("series has positive or undetermined order")
        inv0 = self.coeffs[0].inverse()
        out = [inv0]
        for k in range(1, len(self.coeffs)):
            acc = FieldElement.from_scalar(self.field, 0)
            for i in range(1, k + 1):
                acc = acc + self.coeffs[i] * out[k - i]
            out.append(-(inv0 * acc))
        return TruncatedSeries(self.field, out)

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
        if c.is_zero():
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


def _trim(coeffs: list[FieldElement]) -> tuple[FieldElement, ...]:
    last = len(coeffs)
    while last > 1 and coeffs[last - 1].is_zero():
        last -= 1
    return tuple(coeffs[:last])


class SeriesExpression:
    """Quotient of two t-polynomials with unit denominator.

    Carries exact data: ``expand(P)`` produces the first P coefficients,
    and expansions at different precisions agree on their overlap.
    """

    __slots__ = ("field", "num", "den")

    def __init__(
        self,
        field: BaseField,
        num: Sequence[FieldElement],
        den: Sequence[FieldElement] | None = None,
    ):
        zero = FieldElement.from_scalar(field, 0)
        one = FieldElement.from_scalar(field, 1)
        self.field = field
        self.num = _trim(list(num) or [zero])
        self.den = _trim(list(den) if den is not None else [one])
        if self.den[0].is_zero():
            raise DenominatorNotUnit("series expression denominator vanishes at t = 0")

    @classmethod
    def constant(cls, field: BaseField, value) -> "SeriesExpression":
        fe = value if isinstance(value, FieldElement) else FieldElement.from_scalar(field, value)
        return cls(field, [fe])

    @classmethod
    def t_power(cls, field: BaseField, e: int, coefficient=None) -> "SeriesExpression":
        zero = FieldElement.from_scalar(field, 0)
        c = coefficient if coefficient is not None else FieldElement.from_scalar(field, 1)
        return cls(field, [zero] * e + [c])

    def is_zero(self) -> bool:
        return len(self.num) == 1 and self.num[0].is_zero()

    def _poly_mul(self, a, b):
        zero = FieldElement.from_scalar(self.field, 0)
        out = [zero] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca.is_zero():
                continue
            for j, cb in enumerate(b):
                if not cb.is_zero():
                    out[i + j] = out[i + j] + ca * cb
        return out

    def _poly_add(self, a, b):
        zero = FieldElement.from_scalar(self.field, 0)
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
        result = SeriesExpression.constant(self.field, 1)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, SeriesExpression):
            return NotImplemented
        lhs = self._poly_mul(self.num, other.den)
        rhs = self._poly_mul(other.num, self.den)
        return all(c.is_zero() for c in self._poly_add(lhs, [-c for c in rhs]))

    def expand(self, precision: int) -> TruncatedSeries:
        """First ``precision`` coefficients, by long division."""
        if precision < 1:
            raise ValueError("precision must be >= 1")
        zero = FieldElement.from_scalar(self.field, 0)
        inv0 = self.den[0].inverse()
        out = []
        for k in range(precision):
            acc = self.num[k] if k < len(self.num) else zero
            for i in range(1, min(k, len(self.den) - 1) + 1):
                acc = acc - self.den[i] * out[k - i]
            out.append(inv0 * acc)
        return TruncatedSeries(self.field, out)

    def __str__(self):
        num = _coeffs_text(self.num)
        if len(self.den) == 1 and self.den[0] == FieldElement.from_scalar(self.field, 1):
            return num
        return f"({num})/({_coeffs_text(self.den)})"

    def __repr__(self):
        return f"SeriesExpression({self})"


def evaluate_poly_at_series(
    poly: SparsePolynomial,
    assignment: Mapping[str, TruncatedSeries],
    precision: int,
) -> TruncatedSeries:
    """Evaluate an ambient polynomial on series components."""
    field = poly.field
    return poly.evaluate(
        assignment, lambda c: TruncatedSeries.constant(field, FieldElement.from_scalar(field, c), precision)
    )


def evaluate_poly_at_expressions(
    poly: SparsePolynomial,
    assignment: Mapping[str, SeriesExpression],
    field: BaseField,
) -> SeriesExpression:
    """Evaluate an ambient polynomial on exact series expressions."""
    return poly.evaluate(assignment, lambda c: SeriesExpression.constant(field, c))
