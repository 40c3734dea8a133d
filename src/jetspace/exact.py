"""Exact scalar arithmetic.

Scalars live in the rationals or in a prime field.  On top of them sit
sparse multivariate polynomials (dict from monomial to coefficient) and
unreduced fractions of polynomials, which model rational functions in a
finite set of transcendentals.  Fractions are never reduced to lowest
terms; equality is decided by cross-multiplication, so no multivariate
gcd is ever needed.  One content strip, ``_strip_row`` (rational content
and largest common monomial), bounds the growth of field elements and of
the elimination's rows; ``FieldElement.as_polynomial`` reads an element
with a constant denominator as a polynomial.

Scalars are canonical.  Over Q a scalar is an ``int`` exactly when it
is integral and a ``Fraction`` with denominator > 1 otherwise, so the
common integral data runs on machine-fast ints; over GF(p) it is an int
in ``range(p)``.  A polynomial never stores a zero coefficient (a term
that cancels is deleted), and every stored coefficient is canonical and
nonzero.  The polynomial loops work on these raw scalars with one test
of ``p`` per call; over Q a result that is an integral ``Fraction`` is
stored as its ``int``.  The scalar zero and one are the ints 0 and 1 in
every field, and each field holds its zero and one as field elements,
shared by every caller: no polynomial, field element or scalar is
mutated after construction.

The module also provides exact linear algebra over the fraction field.
One elimination routine, ``echelon_rank_profile``, computes every rank:
matrix rank, and transcendence degree of a family of rational functions
via the Jacobian criterion (a family of scaled variables is counted
instead).  It reduces rows sparsely: a row keeps only its nonzero
entries, so a row update multiplies no zeros, which is most of a residue
Jacobian.  ``matrix_rank`` hands it rows of polynomials as they are, and
rows of field elements once their denominators are cleared.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
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

    Rational scalars are canonical: an ``int`` when integral, otherwise a
    ``fractions.Fraction`` with denominator > 1 (zero and one are the
    ints 0 and 1).  Prime-field scalars are ints in ``range(p)``.
    Every method returns an exact scalar of this form, never a float.
    """

    __slots__ = ("p", "fe_zero", "fe_one")

    def __init__(self, p: int | None = None):
        if p is not None:
            if p >= _MILLER_RABIN_LIMIT:
                raise InputError(
                    f"prime field characteristic must be below {_MILLER_RABIN_LIMIT}, got {p}"
                )
            if not _is_prime(p):
                raise NotPrime(p)
        self.p = p
        # The zero and the unit of the fraction field, shared by every caller.
        one_poly = SparsePolynomial(self, {_ONE_MONO: 1})
        self.fe_zero = FieldElement._raw(SparsePolynomial(self, {}), one_poly)
        self.fe_one = FieldElement._raw(one_poly, one_poly)

    @property
    def characteristic(self) -> int:
        return self.p or 0

    def coerce(self, value):
        """Bring an int or Fraction into this field, in canonical form."""
        p = self.p
        if p is None:
            if type(value) is int:
                return value
            return _canonical(value if type(value) is Fraction else Fraction(value))
        if type(value) is int:
            return value % p
        value = Fraction(value)
        den = value.denominator % p
        if den == 0:
            raise DivisionByZero(f"denominator of {value} vanishes mod {p}")
        return value.numerator * pow(den, p - 2, p) % p

    def mul(self, a, b):
        return a * b % self.p if self.p else _canonical(a * b)

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("scalar division by zero")
        return pow(a, self.p - 2, self.p) if self.p else _canonical(1 / Fraction(a))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def __eq__(self, other):
        return isinstance(other, BaseField) and self.p == other.p

    def __hash__(self):
        return hash(("BaseField", self.p))

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"


def _canonical(q):
    """A rational scalar in canonical form: integral values as ``int``."""
    return q.numerator if q.denominator == 1 else q


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Product of two monomials: a merge of their sorted pairs."""
    if not a:
        return b
    if not b:
        return a
    if a[-1][0] < b[0][0]:
        return a + b
    if b[-1][0] < a[0][0]:
        return b + a
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        (va, ea), (vb, eb) = a[i], b[j]
        if va == vb:
            out.append((va, ea + eb))
            i, j = i + 1, j + 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    return tuple(out) + a[i:] + b[j:]


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
    polynomials over different variable subsets combine freely.  The
    constructor takes ownership of ``terms`` as is; build polynomials from
    scalars with ``constant``, ``variable`` and the arithmetic.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field: BaseField, terms: dict):
        self.field = field
        self.terms = terms

    @classmethod
    def zero(cls, field: BaseField) -> "SparsePolynomial":
        return cls(field, {})

    @classmethod
    def constant(cls, field: BaseField, value) -> "SparsePolynomial":
        value = field.coerce(value)
        return cls(field, {_ONE_MONO: value} if value else {})

    @classmethod
    def variable(cls, field: BaseField, name: str) -> "SparsePolynomial":
        return cls(field, {((name, 1),): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _ONE_MONO in self.terms)

    def constant_value(self):
        """Coefficient of the constant monomial (the value at the origin)."""
        return self.terms.get(_ONE_MONO, 0)

    def variables(self) -> list[str]:
        seen = set()
        for mono in self.terms:
            for var, _ in mono:
                seen.add(var)
        return sorted(seen)

    def __add__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        p = self.field.p
        out = dict(self.terms)
        get = out.get
        for mono, coeff in other.terms.items():
            old = get(mono)
            if old is None:
                out[mono] = coeff
                continue
            acc = (old + coeff) % p if p else old + coeff
            if type(acc) is Fraction and acc.denominator == 1:
                acc = acc.numerator
            if acc:
                out[mono] = acc
            else:
                del out[mono]
        return SparsePolynomial(self.field, out)

    def __neg__(self) -> "SparsePolynomial":
        p = self.field.p
        return SparsePolynomial(self.field, {m: p - c if p else -c for m, c in self.terms.items()})

    def __sub__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        p = self.field.p
        out = dict(self.terms)
        get = out.get
        for mono, coeff in other.terms.items():
            old = get(mono)
            if old is None:
                out[mono] = p - coeff if p else -coeff
                continue
            acc = (old - coeff) % p if p else old - coeff
            if type(acc) is Fraction and acc.denominator == 1:
                acc = acc.numerator
            if acc:
                out[mono] = acc
            else:
                del out[mono]
        return SparsePolynomial(self.field, out)

    def __mul__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        p = self.field.p
        out: dict = {}
        get = out.get
        other_items = other.terms.items()
        for ma, ca in self.terms.items():
            for mb, cb in other_items:
                mono = _mono_mul(ma, mb)
                # A product of two nonzero scalars is nonzero in a field.
                prod = ca * cb % p if p else ca * cb
                if type(prod) is Fraction and prod.denominator == 1:
                    prod = prod.numerator
                old = get(mono)
                if old is None:
                    out[mono] = prod
                    continue
                acc = (old + prod) % p if p else old + prod
                if type(acc) is Fraction and acc.denominator == 1:
                    acc = acc.numerator
                if acc:
                    out[mono] = acc
                else:
                    del out[mono]
        return SparsePolynomial(self.field, out)

    def add_product_into(self, other: "SparsePolynomial", sums: dict) -> None:
        """Add the terms of ``self * other`` into ``sums``, a dict of raw sums.

        The sums stay as they come: unreduced mod p, integral ``Fraction``s
        kept, cancelled terms kept as zeros.  ``from_sums`` makes them a
        polynomial once every product is in, so a sum of many products
        copies no dict and canonicalizes each coefficient once.
        """
        get = sums.get
        other_items = other.terms.items()
        for ma, ca in self.terms.items():
            for mb, cb in other_items:
                mono = _mono_mul(ma, mb)
                old = get(mono)
                sums[mono] = ca * cb if old is None else old + ca * cb

    @classmethod
    def from_sums(cls, field: BaseField, sums: dict) -> "SparsePolynomial":
        """The polynomial of a dict of raw sums: canonical coefficients, zeros dropped."""
        p = field.p
        terms = {}
        for mono, coeff in sums.items():
            if p:
                coeff %= p
            elif type(coeff) is Fraction and coeff.denominator == 1:
                coeff = coeff.numerator
            if coeff:
                terms[mono] = coeff
        return cls(field, terms)

    def scale(self, scalar) -> "SparsePolynomial":
        field = self.field
        scalar = field.coerce(scalar)
        if not scalar:
            return SparsePolynomial.zero(field)
        p = field.p
        return SparsePolynomial(
            field, {m: c * scalar % p if p else _canonical(c * scalar) for m, c in self.terms.items()}
        )

    def __pow__(self, exponent: int) -> "SparsePolynomial":
        if exponent < 0:
            raise ValueError("negative exponent on a polynomial")
        result = SparsePolynomial.constant(self.field, 1)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
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
        p = self.field.p
        out: dict = {}
        for mono, coeff in self.terms.items():
            for k, (v, exp) in enumerate(mono):
                if v == var:
                    break
            else:
                continue
            new_coeff = coeff * exp % p if p else coeff * exp
            if not new_coeff:
                continue
            if type(new_coeff) is Fraction and new_coeff.denominator == 1:
                new_coeff = new_coeff.numerator
            rest = ((var, exp - 1),) if exp > 1 else ()
            # Dividing by var is injective on the monomials it divides, so
            # no two terms land on the same monomial.
            out[mono[:k] + rest + mono[k + 1:]] = new_coeff
        return SparsePolynomial(self.field, out)

    def evaluate(self, assignment: Mapping[str, object], const: Callable):
        """Evaluate in any commutative ring.

        ``assignment`` maps every variable occurring here to a ring
        element; ``const`` lifts a scalar coefficient into the ring.
        Missing variables raise UnknownVariable.
        """
        powers = PowerTable(assignment)
        total = None
        for mono in sorted(self.terms, key=_mono_key):
            term = const(self.terms[mono])
            for pair in mono:
                term = term * powers[pair]
            total = term if total is None else total + term
        if total is None:
            return const(0)
        return total

    def value_and_gradient(self, powers: "PowerTable", const: Callable):
        """The value at a point and the value there of every nonzero partial.

        One pass over the terms, with the point's coordinate powers taken
        from ``powers`` (shared by every polynomial evaluated at the point);
        ``const`` lifts a scalar coefficient into their ring, as in
        ``evaluate``.  Returns ``(value, {var: value of d/dvar})``.  The
        partials follow ``derivative``'s coefficient rule: a coefficient
        c*e that is zero in the field (p | e) is skipped, so a variable
        whose partial is the zero polynomial has no entry.

        Every term forms its products.  The jet oracle keeps the terms
        that vanish to order 2 at its point out of the equations it hands
        here (``jets.jet_jacobian_corank``).
        """
        p = self.field.p
        value = None
        partials: dict = {}
        get = partials.get
        power = powers.__getitem__
        for mono, coeff in self.terms.items():
            factors = list(map(power, mono))
            term = const(coeff)
            for factor in factors:
                term = term * factor
            value = term if value is None else value + term
            for k, (var, exp) in enumerate(mono):
                scaled = coeff * exp % p if p else coeff * exp
                if not scaled:
                    continue
                if type(scaled) is Fraction and scaled.denominator == 1:
                    scaled = scaled.numerator
                part = const(scaled)
                if exp > 1:
                    part = part * powers[var, exp - 1]
                for j, factor in enumerate(factors):
                    if j != k:
                        part = part * factor
                old = get(var)
                partials[var] = part if old is None else old + part
        return (const(0) if value is None else value), partials

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=_mono_key, reverse=True):
            coeff = self.terms[mono]
            text = str(coeff)
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


class PowerTable(dict):
    """Powers of the coordinates of one point, keyed like monomial pairs.

    ``table[var, e]`` is the e-th power (e >= 1) of ``assignment[var]``, an
    element of any commutative ring; each power is computed once, as
    ``mul(x^(e-1), x)``, so every polynomial evaluated at the point shares
    them.  ``mul`` defaults to the ring's ``*``.  A variable missing from
    ``assignment`` raises UnknownVariable.
    """

    __slots__ = ("assignment", "mul")

    def __init__(self, assignment: Mapping[str, object], mul: Callable = operator.mul):
        super().__init__()
        self.assignment = assignment
        self.mul = mul

    def __missing__(self, pair):
        var, exp = pair
        if var not in self.assignment:
            raise UnknownVariable(var)
        x = power = self[var, 1] = self.assignment[var]
        for e in range(2, exp + 1):
            known = self.get((var, e))
            power = self[var, e] = self.mul(power, x) if known is None else known
        return power


class FieldElement:
    """Unreduced fraction of sparse polynomials.

    Equality is cross-multiplication; no gcd reduction ever happens.  An
    int or ``Fraction`` compares equal to the field element of the same
    value (mod p over GF(p)).  A light normalization (common monomial
    factor, rational content, sign of the denominator, p/p as 1) keeps
    representatives small and rendering deterministic.
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
        return cls._raw(SparsePolynomial.constant(field, value), field.fe_one.den)

    def _den_is_one(self) -> bool:
        # Over Q and GF(p) alike the unit is stored as the int 1, so this
        # is an int comparison.
        terms = self.den.terms
        return len(terms) == 1 and terms.get(_ONE_MONO) == 1

    @classmethod
    def from_poly(cls, poly: SparsePolynomial) -> "FieldElement":
        return cls._raw(poly, poly.field.fe_one.den)

    @classmethod
    def variable(cls, field: BaseField, name: str) -> "FieldElement":
        return cls.from_poly(SparsePolynomial.variable(field, name))

    @property
    def field(self) -> BaseField:
        return self.num.field

    def is_zero(self) -> bool:
        return not self.num.terms

    def __bool__(self) -> bool:
        return bool(self.num.terms)

    def is_constant(self) -> bool:
        """True when this is visibly a scalar (after light normalization).

        Unreduced pairs with a hidden common polynomial factor may be
        misreported as non-constant; callers use this only as a
        conservative test.
        """
        return self.num.is_constant() and self.den.is_constant()

    def as_polynomial(self) -> SparsePolynomial | None:
        """The polynomial num/den when den is constant (num itself when den is 1), else None."""
        if self._den_is_one():
            return self.num
        if not self.den.is_constant():
            return None
        return self.num.scale(self.field.inv(self.den.constant_value()))

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

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return (self.num * other.den - other.num * self.den).is_zero()
        if isinstance(other, (int, Fraction)):
            # A base-field scalar compares by value, mod p over GF(p); a
            # Fraction whose denominator p divides is no element of GF(p).
            try:
                return (self.num - self.den.scale(other)).is_zero()
            except DivisionByZero:
                return False
        return NotImplemented

    def __hash__(self):
        raise TypeError("FieldElement is not hashable (equality is cross-multiplicative)")

    def variables(self) -> list[str]:
        return sorted(set(self.num.variables()) | set(self.den.variables()))

    def __str__(self):
        if self._den_is_one():
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


RATIONALS = BaseField()


def as_scalar(value):
    """The base-field scalar of a raw scalar or a visibly constant field element, else None."""
    if isinstance(value, FieldElement):
        return value.constant_value() if value.is_constant() else None
    return value


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


def _rational_content(polys: Iterable[SparsePolynomial]) -> Fraction:
    """gcd of all coefficients over Q: gcd of numerators over lcm of denominators."""
    num, den = 0, 1
    for poly in polys:
        for coeff in poly.terms.values():
            num = gcd(num, coeff.numerator)
            den = lcm(den, coeff.denominator)
    return Fraction(num, den)


def _normalize_fraction(num: SparsePolynomial, den: SparsePolynomial):
    """``_strip_row``, then the leading denominator coefficient positive over Q or 1 over GF(p)."""
    field = num.field
    if not num.terms:
        return num, field.fe_one.den
    num, den = _strip_row({0: num, 1: den}, field).values()
    lead = den.terms[max(den.terms, key=_mono_key)]
    if field.p is None:
        if lead < 0:
            num, den = -num, -den
    elif lead != 1:
        lead_inv = field.inv(lead)
        num, den = num.scale(lead_inv), den.scale(lead_inv)
    if num.terms == den.terms:  # p/p is 1
        return field.fe_one.num, field.fe_one.den
    return num, den


def _clear_row_denominators(row: Sequence[FieldElement]) -> list[SparsePolynomial]:
    """A row of field elements as polynomials, scaled by a common denominator multiple.

    An entry with a constant denominator is its polynomial (``as_polynomial``);
    every numerator is multiplied by the other entries' non-constant
    denominators, so the rank is unchanged.
    """
    polys = [entry.as_polynomial() for entry in row]
    out = []
    for j, entry in enumerate(row):
        poly = entry.num if polys[j] is None else polys[j]
        if poly:
            for k, other in enumerate(polys):
                if k != j and other is None:
                    poly = poly * row[k].den
        out.append(poly)
    return out


def matrix_rank(matrix: Sequence[Sequence[SparsePolynomial]] | Sequence[Sequence[FieldElement]]) -> int:
    """Exact rank over the fraction field of a matrix of polynomials or of field elements.

    Every entry is a ``SparsePolynomial``, and the rows go to
    ``echelon_rank_profile`` as they are, or every entry is a
    ``FieldElement``, and each row is first cleared of its denominators.
    """
    rows = [row for row in matrix if row]
    if not rows:
        return 0
    field = rows[0][0].field
    if isinstance(rows[0][0], FieldElement):
        rows = [_clear_row_denominators(row) for row in rows]
    return echelon_rank_profile([rows], field)[-1]


def _strip_row(row: dict[int, SparsePolynomial], field: BaseField) -> dict[int, SparsePolynomial]:
    """Divide a sparse row by its common content; rank-preserving."""
    if not row:
        return row
    polys = row.values()
    common = _common_monomial(polys)
    scale = None
    if field.p is None:
        content = _rational_content(polys)
        if content != 1:
            scale = 1 / content
    if common == _ONE_MONO and scale is None:
        return row
    out = {}
    for j, poly in row.items():
        terms = poly.terms
        if common != _ONE_MONO:
            terms = {_mono_div(m, common): c for m, c in terms.items()}
        poly = SparsePolynomial(field, terms)
        if scale is not None:
            poly = poly.scale(scale)
        out[j] = poly
    return out


def echelon_rank_profile(
    row_blocks: Sequence[Sequence[Sequence[SparsePolynomial]]], field: BaseField
) -> list[int]:
    """Rank after each block of rows, in one elimination pass.

    Rows arrive dense, in blocks; the returned list gives the rank of the
    span of all rows seen so far, one entry per block.  Each row is
    reduced sparsely, as ``{column: entry}`` over its nonzero entries, so
    an update touches only the columns where the incoming row or the
    basis row is nonzero.  Basis rows are kept in echelon form (sorted by
    leading column, the first nonzero one), so reducing an incoming row
    against them in order never disturbs already-cleared columns.
    """
    basis: list[tuple[int, dict[int, SparsePolynomial]]] = []
    ranks = []
    for block in row_blocks:
        for dense in block:
            row = _strip_row({j: c for j, c in enumerate(dense) if c.terms}, field)
            for lead, brow in basis:
                coeff = row.pop(lead, None)
                if coeff is None:
                    continue
                # blead * row - coeff * brow; its lead column cancels exactly.
                blead = brow[lead]
                out = {j: blead * c for j, c in row.items()}
                for j, bc in brow.items():
                    if j == lead:
                        continue
                    prod = coeff * bc
                    old = out.get(j)
                    if old is None:
                        out[j] = -prod
                        continue
                    diff = old - prod
                    if diff.terms:
                        out[j] = diff
                    else:
                        del out[j]
                row = _strip_row(out, field)
                if not row:
                    break
            if row:
                basis.append((min(row), row))
                basis.sort(key=lambda item: item[0])
        ranks.append(len(basis))
    return ranks


class TranscendenceDegree(NamedTuple):
    ranks: list[int]
    char_p_jacobian: bool


def _scaled_variable(g: FieldElement) -> str | None:
    """v when g is c*v/d for one variable v and nonzero scalars c and d, else None."""
    if len(g.num.terms) != 1 or not g.den.is_constant():
        return None
    (mono,) = g.num.terms
    return mono[0][0] if len(mono) == 1 and mono[0][1] == 1 else None


def transcendence_degree(blocks: Sequence[Sequence], field: BaseField) -> TranscendenceDegree:
    """Transcendence degrees of the fields generated by growing sets of rational functions.

    ``ranks[k]`` is the transcendence degree over the base field of the
    elements of ``blocks[0..k]``: raw base-field scalars and field
    elements, decided from the elements alone.  Scalars and visibly
    constant field elements add nothing.  When every other element is
    c*v/d (one variable v to the first power, nonzero scalars c and d),
    ``ranks[k]`` counts the distinct such v, and no elimination runs.
    Otherwise it is the rank, in one elimination for all blocks, of the
    Jacobian of the nonconstant elements with respect to every variable
    they use.  The row of g = num/den is num_u*den - num*den_u, its
    gradient scaled by den^2, so entries stay polynomials; for c*v/d that
    row is c*d in column v alone, so the count is the same rank in every
    characteristic.  In characteristic zero the rank is exact; in
    characteristic p it is the Jacobian-criterion value, and the flag is
    set when any element is nonconstant so callers can surface the caveat.
    """
    nonconstant = [[g for g in block if isinstance(g, FieldElement) and not g.is_constant()] for block in blocks]
    char_p = field.characteristic > 0 and any(nonconstant)
    fresh = [[_scaled_variable(g) for g in block] for block in nonconstant]
    if not any(None in names for names in fresh):
        return TranscendenceDegree([len(seen) for seen in accumulate(map(set, fresh), set.union)], char_p)
    variables = sorted({u for block in nonconstant for g in block for u in g.variables()})
    rows = [
        [[g.num.derivative(u) * g.den - g.num * g.den.derivative(u) for u in variables] for g in block]
        for block in nonconstant
    ]
    return TranscendenceDegree(echelon_rank_profile(rows, field), char_p)
