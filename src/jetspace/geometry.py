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


@dataclass(frozen=True)
class DifferentialPresentation:
    """Cokernel presentation of a module of differentials.

    ``matrix`` has one row per relation and ``num_columns`` columns, one
    per basis form dx of the ambient variables; the presented module is
    the cokernel of the row span inside the free module on those forms.
    """

    num_columns: int
    matrix: tuple[tuple[SparsePolynomial, ...], ...]


def omega_presentation(X: VarietyPresentation) -> DifferentialPresentation:
    """Differentials of X, presented by the Jacobian of its generators."""
    rows = tuple(
        tuple(g.derivative(v) for v in X.variables) for g in X.generators
    )
    return DifferentialPresentation(len(X.variables), rows)


def relative_omega_presentation(f: MorphismPresentation) -> DifferentialPresentation:
    """Differentials of the source relative to the target, along f.

    Rows: gradients of the source ideal generators, then the Jacobian
    rows of the components.  The zeroth Fitting ideal of the cokernel is
    the Jacobian ideal of f.
    """
    src_vars = f.source.variables
    rows = tuple(tuple(comp.derivative(v) for v in src_vars) for comp in f.components)
    return DifferentialPresentation(len(src_vars), omega_presentation(f.source).matrix + rows)


def minors(matrix: Sequence[Sequence], size: int, table: dict | None = None) -> list:
    """All size x size minors of a matrix over any commutative ring.

    Minors come row subsets first, then column subsets, each in
    lexicographic order.  Each one expands along its first row, and its
    sub-minors are read from ``table``, keyed by (row indices, column
    indices) and filled as they are computed; pass one table for several
    sizes and every minor is computed once.  Entries need only +, unary
    - and *.  Zero entries are not skipped: a truncated series that is
    zero to its precision still bounds the precision of the sum, and
    dropping it would overstate what is known.
    """
    if table is None:
        table = {}

    def det(row_idx: tuple[int, ...], col_idx: tuple[int, ...]):
        key = (row_idx, col_idx)
        found = table.get(key)
        if found is not None:
            return found
        top = matrix[row_idx[0]]
        if len(row_idx) == 1:
            found = top[col_idx[0]]
        else:
            for j, c in enumerate(col_idx):
                term = top[c] * det(row_idx[1:], col_idx[:j] + col_idx[j + 1 :])
                if j % 2 == 1:
                    term = -term
                found = term if j == 0 else found + term
        table[key] = found
        return found

    col_count = len(matrix[0])
    return [
        det(row_idx, col_idx)
        for row_idx in combinations(range(len(matrix)), size)
        for col_idx in combinations(range(col_count), size)
    ]


def jacobian_ideal_generators(X: VarietyPresentation, dim: int) -> list[SparsePolynomial]:
    """Generators of the Jacobian ideal: the (N - dim)-minors of the Jacobian.

    A size <= 0 gives [1]; a size above the Jacobian's rows or columns gives [].
    """
    rows, size = omega_presentation(X).matrix, len(X.variables) - dim
    if size <= 0:
        return [SparsePolynomial.constant(X.base, 1)]
    return minors(rows, size) if rows else []
