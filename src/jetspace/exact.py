"""Exact scalar arithmetic.

Scalars live in the rationals or in a prime field.  On top of them sit
sparse multivariate polynomials (dict from monomial to coefficient) and
unreduced fractions of polynomials, which model rational functions in a
finite set of transcendentals.  Fractions are never reduced to lowest
terms; equality is decided by cross-multiplication, so no multivariate
gcd is ever needed.  A content-stripping pass (integer content plus the
largest common monomial) keeps intermediate growth bounded.

The module also provides exact linear algebra over the fraction field.
One elimination routine, ``echelon_rank_profile``, computes every rank:
matrix rank, and transcendence degree of a family of rational functions
via the Jacobian criterion.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import DivisionByZero, InputError, NotPrime, UnknownVariable

# A monomial is a tuple of (variable, exponent) pairs, sorted by variable
# name, with every exponent positive.  The empty tuple is the constant
# monomial.
Monomial = tuple

_ONE_MONO: Monomial = ()


# Miller-Rabin with the first 13 prime bases is a deterministic primality
# test for every n below this bound (Sorenson and Webster, 2015).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Exact primality for n below _MILLER_RABIN_LIMIT."""
    if n < 2:
        return False
    for b in _MILLER_RABIN_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class BaseField:
    """The rationals, or the field with p elements for a prime p.

    Rational scalars are ``fractions.Fraction``; prime-field scalars are
    ints in ``range(p)``.
    """

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None:
            if p >= _MILLER_RABIN_LIMIT:
                raise InputError(
                    f"prime field characteristic must be below {_MILLER_RABIN_LIMIT}, got {p}"
                )
            if not _is_prime(p):
                raise NotPrime(p)
        self.p = p

    @property
    def characteristic(self) -> int:
        return self.p or 0

    def zero(self):
        return 0 if self.p else Fraction(0)

    def one(self):
        return 1 if self.p else Fraction(1)

    def coerce(self, value):
        """Bring an int or Fraction into this field."""
        if self.p is None:
            return Fraction(value)
        value = Fraction(value)
        den = value.denominator % self.p
        if den == 0:
            raise DivisionByZero(f"denominator of {value} vanishes mod {self.p}")
        return value.numerator * pow(den, self.p - 2, self.p) % self.p

    def add(self, a, b):
        return (a + b) % self.p if self.p else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p else a - b

    def mul(self, a, b):
        return a * b % self.p if self.p else a * b

    def neg(self, a):
        return -a % self.p if self.p else -a

    def inv(self, a):
        if self.is_zero(a):
            raise DivisionByZero("scalar division by zero")
        return pow(a, self.p - 2, self.p) if self.p else 1 / a

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == 0

    def scalar_str(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, BaseField) and self.p == other.p

    def __hash__(self):
        return hash(("BaseField", self.p))

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"


RATIONALS = BaseField()


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    for var, exp in b:
        out[var] = out.get(var, 0) + exp
    return tuple(sorted(out.items()))


def _mono_div(a: Monomial, b: Monomial) -> Monomial:
    """Quotient a / b, assuming b divides a."""
    out = dict(a)
    for var, exp in b:
        rem = out[var] - exp
        if rem:
            out[var] = rem
        else:
            del out[var]
    return tuple(sorted(out.items()))


def _mono_degree(m: Monomial) -> int:
    return sum(exp for _, exp in m)


def _mono_key(m: Monomial):
    # Deterministic order for rendering and iteration.
    return (_mono_degree(m), m)


def _mono_str(m: Monomial) -> str:
    return "*".join(var if exp == 1 else f"{var}^{exp}" for var, exp in m)


class SparsePolynomial:
    """Sparse multivariate polynomial over a BaseField.

    Stored as ``{monomial: coefficient}`` with no zero coefficients.  The
    variable set is open-ended: monomials carry variable names, so
    polynomials over different variable subsets combine freely.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field: BaseField, terms: Mapping[Monomial, object] | None = None):
        self.field = field
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                if not field.is_zero(coeff):
                    clean[mono] = coeff
        self.terms = clean

    @classmethod
    def _raw(cls, field, terms):
        poly = cls.__new__(cls)
        poly.field = field
        poly.terms = terms
        return poly

    @classmethod
    def zero(cls, field: BaseField) -> "SparsePolynomial":
        return cls._raw(field, {})

    @classmethod
    def constant(cls, field: BaseField, value) -> "SparsePolynomial":
        value = field.coerce(value)
        return cls._raw(field, {} if field.is_zero(value) else {_ONE_MONO: value})

    @classmethod
    def variable(cls, field: BaseField, name: str) -> "SparsePolynomial":
        return cls._raw(field, {((name, 1),): field.one()})

    @classmethod
    def monomial(cls, field: BaseField, mono: Monomial, coeff) -> "SparsePolynomial":
        coeff = field.coerce(coeff)
        if field.is_zero(coeff):
            return cls.zero(field)
        return cls._raw(field, {mono: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _ONE_MONO in self.terms)

    def constant_value(self):
        """Coefficient of the constant monomial (the value at the origin)."""
        return self.terms.get(_ONE_MONO, self.field.zero())

    def variables(self) -> list[str]:
        seen = set()
        for mono in self.terms:
            for var, _ in mono:
                seen.add(var)
        return sorted(seen)

    def __add__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        field = self.field
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = field.add(out.get(mono, field.zero()), coeff)
            if field.is_zero(acc):
                out.pop(mono, None)
            else:
                out[mono] = acc
        return SparsePolynomial._raw(field, out)

    def __neg__(self) -> "SparsePolynomial":
        field = self.field
        return SparsePolynomial._raw(field, {m: field.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        return self + (-other)

    def __mul__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        field = self.field
        out: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                mono = _mono_mul(ma, mb)
                acc = field.add(out.get(mono, field.zero()), field.mul(ca, cb))
                if field.is_zero(acc):
                    out.pop(mono, None)
                else:
                    out[mono] = acc
        return SparsePolynomial._raw(field, out)

    def scale(self, scalar) -> "SparsePolynomial":
        field = self.field
        scalar = field.coerce(scalar)
        if field.is_zero(scalar):
            return SparsePolynomial.zero(field)
        return SparsePolynomial._raw(
            field, {m: field.mul(c, scalar) for m, c in self.terms.items()}
        )

    def __pow__(self, exponent: int) -> "SparsePolynomial":
        if exponent < 0:
            raise ValueError("negative exponent on a polynomial")
        result = SparsePolynomial.constant(self.field, 1)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, SparsePolynomial)
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, frozenset(self.terms.items())))

    def derivative(self, var: str) -> "SparsePolynomial":
        """Formal partial derivative; exponents divisible by char vanish."""
        field = self.field
        out: dict = {}
        for mono, coeff in self.terms.items():
            exps = dict(mono)
            exp = exps.get(var, 0)
            if exp == 0:
                continue
            new_coeff = field.mul(coeff, field.coerce(exp))
            if field.is_zero(new_coeff):
                continue
            if exp > 1:
                exps[var] = exp - 1
            else:
                del exps[var]
            new_mono = tuple(sorted(exps.items()))
            acc = field.add(out.get(new_mono, field.zero()), new_coeff)
            if field.is_zero(acc):
                out.pop(new_mono, None)
            else:
                out[new_mono] = acc
        return SparsePolynomial._raw(field, out)

    def evaluate(self, assignment: Mapping[str, object], const: Callable):
        """Evaluate in any commutative ring.

        ``assignment`` maps every variable occurring here to a ring
        element; ``const`` lifts a scalar coefficient into the ring.
        Missing variables raise UnknownVariable.
        """
        power_cache: dict = {}

        def power(var, exp):
            known = power_cache.get(var)
            if known is None:
                if var not in assignment:
                    raise UnknownVariable(var)
                known = {1: assignment[var]}
                power_cache[var] = known
            while exp not in known:
                top = max(known)
                known[top + 1] = known[top] * known[1]
            return known[exp]

        total = None
        for mono in sorted(self.terms, key=_mono_key):
            term = const(self.terms[mono])
            for var, exp in mono:
                term = term * power(var, exp)
            total = term if total is None else total + term
        if total is None:
            return const(self.field.zero())
        return total

    def _content(self) -> Fraction | None:
        """Rational content (gcd of coefficients); None over prime fields."""
        if self.field.p is not None or not self.terms:
            return None
        num = 0
        den = 1
        for coeff in self.terms.values():
            num = gcd(num, coeff.numerator)
            den = den * coeff.denominator // gcd(den, coeff.denominator)
        return Fraction(num, den)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=_mono_key, reverse=True):
            coeff = self.terms[mono]
            text = self.field.scalar_str(coeff)
            mono_text = _mono_str(mono)
            if mono_text:
                if text == "1":
                    text = mono_text
                elif text == "-1":
                    text = "-" + mono_text
                else:
                    text = f"{text}*{mono_text}"
            parts.append(text)
        out = parts[0]
        for part in parts[1:]:
            out += " - " + part[1:] if part.startswith("-") else " + " + part
        return out

    def __repr__(self):
        return f"SparsePolynomial({self})"


class FieldElement:
    """Unreduced fraction of sparse polynomials.

    Equality is cross-multiplication; no gcd reduction ever happens.  A
    light normalization (common monomial factor, rational content, sign
    of the denominator) keeps representatives small and rendering
    deterministic.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: SparsePolynomial, den: SparsePolynomial):
        if den.is_zero():
            raise DivisionByZero("field element with zero denominator")
        self.num, self.den = _normalize_fraction(num, den)

    @classmethod
    def _raw(cls, num, den):
        fe = cls.__new__(cls)
        fe.num = num
        fe.den = den
        return fe

    @classmethod
    def from_scalar(cls, field: BaseField, value) -> "FieldElement":
        return cls._raw(
            SparsePolynomial.constant(field, value), SparsePolynomial.constant(field, 1)
        )

    def _den_is_one(self) -> bool:
        terms = self.den.terms
        return len(terms) == 1 and _ONE_MONO in terms and terms[_ONE_MONO] == self.field.one()

    @classmethod
    def from_poly(cls, poly: SparsePolynomial) -> "FieldElement":
        return cls._raw(poly, SparsePolynomial.constant(poly.field, 1))

    @classmethod
    def variable(cls, field: BaseField, name: str) -> "FieldElement":
        return cls.from_poly(SparsePolynomial.variable(field, name))

    @property
    def field(self) -> BaseField:
        return self.num.field

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        """True when this is visibly a scalar (after light normalization).

        Unreduced pairs with a hidden common polynomial factor may be
        misreported as non-constant; callers use this only as a
        conservative test.
        """
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("field element is not a visible constant")
        return self.field.div(self.num.constant_value(), self.den.constant_value())

    def __add__(self, other: "FieldElement") -> "FieldElement":
        # Polynomials (denominator one) stay polynomials with no
        # normalization pass; that covers almost all arithmetic here.
        if self._den_is_one() and other._den_is_one():
            return FieldElement._raw(self.num + other.num, self.den)
        if self.den is other.den or self.den == other.den:
            return FieldElement(self.num + other.num, self.den)
        return FieldElement(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self + (-other)

    def __neg__(self) -> "FieldElement":
        return FieldElement._raw(-self.num, self.den)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        if self._den_is_one() and other._den_is_one():
            return FieldElement._raw(self.num * other.num, self.den)
        return FieldElement(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        if other.is_zero():
            raise DivisionByZero("division by a zero field element")
        return FieldElement(self.num * other.den, self.den * other.num)

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        return FieldElement(self.den, self.num)

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return (self.num * other.den - other.num * self.den).is_zero()

    def __hash__(self):
        raise TypeError("FieldElement is not hashable (equality is cross-multiplicative)")

    def derivative(self, var: str) -> "FieldElement":
        return FieldElement(
            self.num.derivative(var) * self.den - self.num * self.den.derivative(var),
            self.den * self.den,
        )

    def variables(self) -> list[str]:
        return sorted(set(self.num.variables()) | set(self.den.variables()))

    def __str__(self):
        if self.den.is_constant() and self.den.constant_value() == self.field.one():
            return str(self.num)
        num = str(self.num)
        den = str(self.den)
        if len(self.num.terms) > 1:
            num = f"({num})"
        if len(self.den.terms) > 1:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self):
        return f"FieldElement({self})"


def _common_monomial(polys: Sequence[SparsePolynomial]) -> Monomial:
    """Largest monomial dividing every term of every given polynomial."""
    mins: dict = {}
    first = True
    for poly in polys:
        for mono in poly.terms:
            exps = dict(mono)
            if first:
                mins = exps
                first = False
            else:
                mins = {v: min(e, exps.get(v, 0)) for v, e in mins.items() if exps.get(v, 0)}
            if not mins:
                return _ONE_MONO
    return tuple(sorted((v, e) for v, e in mins.items() if e))


def _normalize_fraction(num: SparsePolynomial, den: SparsePolynomial):
    field = num.field
    one = SparsePolynomial.constant(field, 1)
    if num.is_zero():
        return num, one
    common = _common_monomial((num, den))
    if common:
        num = SparsePolynomial._raw(field, {_mono_div(m, common): c for m, c in num.terms.items()})
        den = SparsePolynomial._raw(field, {_mono_div(m, common): c for m, c in den.terms.items()})
    if field.p is None:
        c_num = num._content()
        c_den = den._content()
        d1, d2 = c_num.denominator, c_den.denominator
        g = Fraction(gcd(c_num.numerator, c_den.numerator), d1 * d2 // gcd(d1, d2))
        lead = den.terms[max(den.terms, key=_mono_key)]
        if lead < 0:
            g = -g
        if g != 1:
            inv = 1 / g
            num = num.scale(inv)
            den = den.scale(inv)
    else:
        lead_inv = field.inv(den.terms[max(den.terms, key=_mono_key)])
        if lead_inv != field.one():
            num = num.scale(lead_inv)
            den = den.scale(lead_inv)
    return num, den


def _clear_row_denominators(row: Sequence[FieldElement]) -> list[SparsePolynomial]:
    """Scale a row by a common denominator multiple; rank is unchanged."""
    field = row[0].field if row else RATIONALS
    dens = [None if entry.den.is_constant() else entry.den for entry in row]
    out = []
    for j, entry in enumerate(row):
        poly = entry.num
        if not poly.is_zero():
            for k, den in enumerate(dens):
                if k != j and den is not None:
                    poly = poly * den
            if dens[j] is None:
                poly = poly.scale(field.inv(entry.den.constant_value()))
        out.append(poly)
    return out


def matrix_rank(matrix: Sequence[Sequence[FieldElement]]) -> int:
    """Exact rank of a matrix of field elements over the fraction field."""
    rows = [row for row in matrix if row]
    if not rows:
        return 0
    field = rows[0][0].field
    poly_rows = [_clear_row_denominators(row) for row in rows]
    return echelon_rank_profile([poly_rows], field)[-1]


def _strip_row(row: list[SparsePolynomial], field: BaseField) -> list[SparsePolynomial]:
    """Divide a whole row by its common content; rank-preserving."""
    nonzero = [p for p in row if not p.is_zero()]
    if not nonzero:
        return row
    common = _common_monomial(nonzero)
    scale = None
    if field.p is None:
        num = 0
        den = 1
        for poly in nonzero:
            c = poly._content()
            num = gcd(num, c.numerator)
            den = den * c.denominator // gcd(den, c.denominator)
        content = Fraction(num, den)
        if content != 1:
            scale = 1 / content
    if common == _ONE_MONO and scale is None:
        return row
    out = []
    for poly in row:
        if poly.is_zero():
            out.append(poly)
            continue
        terms = poly.terms
        if common != _ONE_MONO:
            terms = {_mono_div(m, common): c for m, c in terms.items()}
        poly = SparsePolynomial._raw(field, terms)
        if scale is not None:
            poly = poly.scale(scale)
        out.append(poly)
    return out


def echelon_rank_profile(
    row_blocks: Sequence[Sequence[Sequence[SparsePolynomial]]], field: BaseField
) -> list[int]:
    """Rank after each block of rows, in one elimination pass.

    Rows arrive in blocks; the returned list gives the rank of the span
    of all rows seen so far, one entry per block.  Basis rows are kept in
    echelon form (sorted by leading column), so reducing an incoming row
    against them in order never disturbs already-cleared columns.
    """
    basis: list[tuple[int, list[SparsePolynomial]]] = []
    ranks = []
    for block in row_blocks:
        for row in block:
            row = list(row)
            for lead, brow in basis:
                coeff = row[lead]
                if coeff.is_zero():
                    continue
                blead = brow[lead]
                row = [blead * rc - coeff * bc for rc, bc in zip(row, brow)]
                row = _strip_row(row, field)
            lead = next((j for j, c in enumerate(row) if not c.is_zero()), None)
            if lead is not None:
                basis.append((lead, _strip_row(row, field)))
                basis.sort(key=lambda item: item[0])
        ranks.append(len(basis))
    return ranks


def jacobian_row(g: FieldElement, names: Sequence[str]) -> list[SparsePolynomial]:
    """Gradient of g = num/den in the given variables, scaled by den^2.

    Entry u is num_u*den - num*den_u.  Scaling a row by a nonzero factor
    keeps the rank, so these rows give the Jacobian-criterion rank with
    polynomial entries only.
    """
    return [g.num.derivative(u) * g.den - g.num * g.den.derivative(u) for u in names]


class TranscendenceDegree(NamedTuple):
    value: int
    char_p_jacobian: bool


def transcendence_degree(
    elements: Iterable[FieldElement],
    transcendentals: Sequence[str] | None = None,
) -> TranscendenceDegree:
    """Transcendence degree of the field generated by rational functions.

    Computed as the rank of the Jacobian matrix with respect to the
    transcendentals.  In characteristic zero this is exact; in
    characteristic p it is the Jacobian-criterion value and the returned
    flag is set so callers can surface the caveat.
    """
    elements = [g for g in elements if not g.is_constant()]
    if not elements:
        return TranscendenceDegree(0, False)
    field = elements[0].field
    if transcendentals is None:
        seen = set()
        for g in elements:
            seen.update(g.variables())
        transcendentals = sorted(seen)
    rows = [jacobian_row(g, transcendentals) for g in elements]
    rank = echelon_rank_profile([rows], field)[-1]
    return TranscendenceDegree(rank, field.characteristic > 0)
