"""Affine variety presentations, morphisms, and differential presentations.

A variety is an ambient variable list plus ideal generators; the module
of differentials is presented by the Jacobian matrix of the generators
(rows = one gradient per generator, columns = the ambient basis forms).
For a morphism the relative differentials are presented by stacking the
source ideal gradients on top of the Jacobian rows of the component
polynomials; the zeroth Fitting ideal of that presentation is the
Jacobian ideal of the morphism.

Ideal membership of morphism images is never checked statically (that
would need Groebner bases); it is validated along arcs where the
computations actually happen.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .errors import InputError
from .exact import BaseField, SparsePolynomial


@dataclass(frozen=True)
class VarietyPresentation:
    """X = Spec of polynomials in ``variables`` modulo ``generators``.

    ``declared_dim`` is the user-asserted dimension at the points of
    interest; when absent, analyses fall back to the free rank of the
    differentials along the arc under study and say so.
    """

    base: BaseField
    variables: tuple[str, ...]
    generators: tuple[SparsePolynomial, ...] = ()
    declared_dim: int | None = None
    name: str = ""

    def __post_init__(self):
        seen = set()
        for v in self.variables:
            if v in seen:
                raise InputError(f"duplicate ambient variable {v!r}")
            seen.add(v)
        for g in self.generators:
            extra = [v for v in g.variables() if v not in seen]
            if extra:
                raise InputError(
                    f"generator {g} uses undeclared variable{'s' if len(extra) > 1 else ''} "
                    + ", ".join(extra)
                )

    @property
    def ambient_dim(self) -> int:
        return len(self.variables)


@dataclass(frozen=True)
class MorphismPresentation:
    """Polynomial map from ``source`` to ``target``, one component per target variable."""

    source: VarietyPresentation
    target: VarietyPresentation
    components: tuple[SparsePolynomial, ...]
    name: str = ""

    def __post_init__(self):
        if len(self.components) != len(self.target.variables):
            raise InputError(
                f"morphism needs {len(self.target.variables)} components, got {len(self.components)}"
            )
        allowed = set(self.source.variables)
        for comp in self.components:
            extra = [v for v in comp.variables() if v not in allowed]
            if extra:
                raise InputError(f"component {comp} uses non-source variables: {', '.join(extra)}")

    def component_map(self) -> dict[str, SparsePolynomial]:
        return dict(zip(self.target.variables, self.components))


@dataclass(frozen=True)
class DifferentialPresentation:
    """Cokernel presentation of a module of differentials.

    ``matrix`` has one row per relation and one column per symbol in
    ``column_symbols``; the presented module is the cokernel of the row
    span inside the free module on those symbols.
    """

    column_symbols: tuple[str, ...]
    matrix: tuple[tuple[SparsePolynomial, ...], ...]

    @property
    def num_columns(self) -> int:
        return len(self.column_symbols)

    @property
    def num_rows(self) -> int:
        return len(self.matrix)


def omega_presentation(X: VarietyPresentation) -> DifferentialPresentation:
    """Differentials of X, presented by the Jacobian of its generators."""
    symbols = tuple(f"d{v}" for v in X.variables)
    rows = tuple(
        tuple(g.derivative(v) for v in X.variables) for g in X.generators
    )
    return DifferentialPresentation(symbols, rows)


def relative_omega_presentation(f: MorphismPresentation) -> DifferentialPresentation:
    """Differentials of the source relative to the target, along f.

    Rows: gradients of the source ideal generators, then the Jacobian
    rows of the components.  The zeroth Fitting ideal of the cokernel is
    the Jacobian ideal of f.
    """
    src_vars = f.source.variables
    symbols = tuple(f"d{v}" for v in src_vars)
    rows = [tuple(g.derivative(v) for v in src_vars) for g in f.source.generators]
    rows.extend(tuple(comp.derivative(v) for v in src_vars) for comp in f.components)
    return DifferentialPresentation(symbols, tuple(rows))


def compose_morphisms(g: MorphismPresentation, f: MorphismPresentation) -> MorphismPresentation:
    """g after f, as a single morphism presentation."""
    if g.source.variables != f.target.variables:
        raise InputError("composition mismatch: source of the outer map differs from the inner target")
    env = f.component_map()
    components = tuple(
        comp.evaluate(env, lambda c: SparsePolynomial.constant(f.source.base, c))
        for comp in g.components
    )
    name = f"{g.name or 'g'}{f.name or 'f'}"
    return MorphismPresentation(f.source, g.target, components, name=name)


def polynomial_minors(
    rows: Sequence[Sequence[SparsePolynomial]], size: int, base: BaseField
) -> list[SparsePolynomial]:
    """All size x size minors of a polynomial matrix (small inputs only)."""
    if size <= 0:
        return [SparsePolynomial.constant(base, 1)]
    if not rows or size > len(rows) or size > len(rows[0]):
        return []
    out = []
    col_count = len(rows[0])
    for row_idx in combinations(range(len(rows)), size):
        for col_idx in combinations(range(col_count), size):
            out.append(cofactor_det([[rows[i][j] for j in col_idx] for i in row_idx]))
    return out


def cofactor_det(m: Sequence[Sequence]):
    """Determinant of a nonempty square matrix over any commutative ring.

    Entries need only +, unary - and *.  Zero entries are not skipped: a
    truncated series that is zero to its precision still bounds the
    precision of the sum, and dropping it would overstate what is known.
    """
    if len(m) == 1:
        return m[0][0]
    acc = None
    for j, top in enumerate(m[0]):
        sub = [[row[k] for k in range(len(m)) if k != j] for row in m[1:]]
        term = top * cofactor_det(sub)
        if j % 2 == 1:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def jacobian_ideal_generators(X: VarietyPresentation, dim: int) -> list[SparsePolynomial]:
    """Generators of the Jacobian ideal: the (N - dim)-minors of the Jacobian."""
    pres = omega_presentation(X)
    return polynomial_minors(pres.matrix, pres.num_columns - dim, X.base)
