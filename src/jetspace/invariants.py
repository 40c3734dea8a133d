"""Invariant factors, Betti numbers, and Fitting invariants along arcs.

A finitely presented module pulled back along an arc or jet becomes a
module over a t-truncated power series ring, hence a direct sum of a
free part and cyclic pieces t^{e_i}.  ``smith_orders`` finds that
decomposition by iterated pivoting: pick an entry of smallest finite
order e, factor it as t^e times a unit, and clear its row and column by
elementary operations (everything left has order >= e, so the steps
stay exact at full working precision).  Columns never touched by a
finite pivot contribute free summands.

There is one diagonalization mode, along the arc.  The level-n module is
the arc-level one base-changed to k[t]/t^(n+1), so its profile is
``InvariantProfile.at_level(n)``: pivots above n become free.

The Betti number is the free rank; the sequence of invariant factors is
the descending list of pivot orders, padded with the cap (level + 1 at a
finite level, "at least the working precision" along the arc) below the
free rank.  Fitting invariants are the tail sums

    c_i = min(cap, e_i + e_{i+1} + ...),

and ``fitting_minor_oracle`` computes all of them independently, as
minimal orders of minors, giving a check that the decomposition and the
minors agree (base-change compatibility of Fitting ideals).  A minor is
a unit exactly when its residue in k is nonzero, so the oracle decides
order 0 on the matrix of constant terms and expands series minors,
enumerated once from one table of sub-determinants, only for the sizes
whose residue minors all vanish.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .arcs import Arc
from .errors import MatrixTooLarge, PrecisionTooLow
from .geometry import DifferentialPresentation, minors, omega_presentation
from .jets import jet_levels
from .series import PRECISION_CAP, OrderValue, TruncatedSeries

_MINOR_DIMENSION_BOUND = 8


@dataclass(frozen=True)
class InvariantProfile:
    """Decomposition data of a pulled-back module.

    ``factors`` lists the positive pivot orders in descending order
    (trivial order-0 pieces are dropped; they only reduce the free
    rank).  ``precision_limited`` is set when a nonempty corner of the
    matrix never produced a finite order below the working precision, so
    the free rank is an upper bound and entries below it are provisional.
    """

    level: int | None
    num_columns: int
    betti: int
    factors: tuple[int, ...]
    precision: int
    precision_limited: bool

    def invariant_factor(self, i: int) -> OrderValue:
        """e_i: cap below the free rank, then the descending pivot orders."""
        if i < 0:
            raise IndexError("invariant factor index must be >= 0")
        if i < self.betti:
            if self.level is None:
                return OrderValue.at_least(self.precision)
            return OrderValue.finite(self.level + 1)
        idx = i - self.betti
        return OrderValue.finite(self.factors[idx] if idx < len(self.factors) else 0)

    def fitting_invariant(self, i: int) -> OrderValue:
        """c_i: capped tail sum of the invariant factors from index i."""
        if i < 0:
            raise IndexError("fitting invariant index must be >= 0")
        if i < self.betti:
            return self.invariant_factor(i)
        tail = sum(self.factors[i - self.betti :], 0)
        if self.level is not None:
            tail = min(self.level + 1, tail)
        return OrderValue.finite(tail)

    def at_level(self, n: int) -> "InvariantProfile":
        """The level-n profile of this arc-level one.

        Reduction mod t^(n+1) maps the diagonalization to a level-n one:
        pivots e <= n survive; pivots e > n and an undecided block (zero
        mod t^precision, so valid only for n < precision) become free.
        """
        if self.level is not None:
            raise ValueError("at_level needs an arc-level profile")
        jet_levels([n])
        if self.precision_limited and n >= self.precision:
            raise PrecisionTooLow(n, self.precision)
        return InvariantProfile(
            level=n,
            num_columns=self.num_columns,
            betti=self.betti + sum(e > n for e in self.factors),
            factors=tuple(e for e in self.factors if e <= n),
            precision=n + 1,
            precision_limited=False,
        )

    def precision_json(self):
        return {"kind": "at_least" if self.precision_limited else "finite", "bound": self.precision}

    def to_json(self):
        return {
            "level": "infinity" if self.level is None else self.level,
            "free_rank": self.betti,
            "factors": list(self.factors),
            "fitting": [self.fitting_invariant(i).to_json() for i in range(self.num_columns + 1)],
            "precision": self.precision,
            "precision_limited": self.precision_limited,
        }


def smith_orders(
    matrix: Sequence[Sequence[TruncatedSeries]],
    num_columns: int,
    *,
    precision: int | None = None,
) -> InvariantProfile:
    """Diagonalize a relation matrix along an arc.

    Rows are relations, columns are module generators (``num_columns``
    of them).  The ring is truncated at the smallest entry precision (or
    ``precision`` for an empty matrix).  Vanishing only means "no
    coefficient seen below the working precision", and flags the profile
    as precision limited when it blocks the decomposition.
    """
    rows = [list(row) for row in matrix]
    if rows and any(len(row) != num_columns for row in rows):
        raise ValueError("matrix rows disagree with num_columns")
    if rows:
        ring_precision = min(entry.precision for row in rows for entry in row)
        rows = [[entry.truncate(ring_precision) for entry in row] for row in rows]
    else:
        if precision is None:
            raise ValueError("empty matrix needs an explicit precision")
        ring_precision = precision

    active_rows = list(range(len(rows)))
    active_cols = list(range(num_columns))
    pivots: list[int] = []
    while active_rows and active_cols:
        best = None
        for i in active_rows:
            for j in active_cols:
                o = rows[i][j].order()
                if o.is_finite and (best is None or (o.value, i, j) < best):
                    best = (o.value, i, j)
        if best is None:
            break
        e, pi, pj = best
        # Clear the pivot column by unit cross-multiplication:
        #   row_i <- unit * row_i - (entry / t^e) * row_pivot,
        # where pivot = t^e * unit.  Scaling a relation by a unit is an
        # elementary operation, and every active entry has order >= e, so
        # the update stays exact at the full ring precision.
        unit = rows[pi][pj].shift_down(e)
        for i in active_rows:
            if i == pi:
                continue
            entry = rows[i][pj]
            if entry.zero_prefix() == entry.precision:
                continue
            factor = entry.shift_down(e)
            for j in active_cols:
                if j != pj:
                    rows[i][j] = unit * rows[i][j] - factor * rows[pi][j]
        active_rows.remove(pi)
        active_cols.remove(pj)
        pivots.append(e)

    limited = bool(active_rows and active_cols)
    betti = num_columns - len(pivots)
    factors = tuple(sorted((e for e in pivots if e > 0), reverse=True))
    return InvariantProfile(
        level=None,
        num_columns=num_columns,
        betti=betti,
        factors=factors,
        precision=ring_precision,
        precision_limited=limited,
    )


def fitting_minor_oracle(
    matrix: Sequence[Sequence[TruncatedSeries]],
    num_columns: int | None = None,
    precision: int | None = None,
) -> list[OrderValue]:
    """Orders of the Fitting ideals, i = 0..N, straight from minors.

    Entry i is the minimal order of the (N-i) x (N-i) minors.  A minor
    has order 0 exactly when its image under the residue map k[[t]] -> k
    is nonzero, so each size is first decided on the matrix of constant
    terms: one nonzero residue minor makes the order 0.  Only sizes whose
    residue minors all vanish enumerate their series minors, from one
    table shared by those sizes, so each is computed once.  Deliberately
    brute force and independent of ``smith_orders``; small matrices only,
    and the inputs and the size bound are checked before any minor.
    """
    rows = [list(row) for row in matrix]
    if num_columns is None:
        if not rows:
            raise ValueError("empty matrix needs explicit num_columns")
        num_columns = len(rows[0])
    if any(len(row) != num_columns for row in rows):
        raise ValueError("matrix rows disagree with num_columns")
    if precision is None and rows:
        precision = min(entry.precision for row in rows for entry in row)
    if precision is None:
        raise ValueError("empty matrix needs an explicit precision")
    if precision < 1:
        raise ValueError("the minor oracle needs precision >= 1")
    if len(rows) > _MINOR_DIMENSION_BOUND or num_columns > _MINOR_DIMENSION_BOUND:
        raise MatrixTooLarge((len(rows), num_columns), _MINOR_DIMENSION_BOUND)
    residues = [[entry.coeffs[0] for entry in row] for row in rows]
    corner = rows[0][0] if rows and num_columns else None
    # Raw scalars over GF(p) are reduced, but their integer minors are not.
    reduce = corner.field.coerce if corner is not None and corner.field.p and corner.is_scalar else None
    residue_table: dict = {}
    table: dict = {}
    orders = []
    for size in range(num_columns, -1, -1):
        result = OrderValue.at_least(precision) if size else OrderValue.finite(0)
        if 0 < size <= len(rows):
            residue_minors = minors(residues, size, residue_table)
            if any(map(reduce, residue_minors) if reduce else residue_minors):
                result = OrderValue.finite(0)
            else:
                for det in minors(rows, size, table):
                    result = result.min(det.truncate(min(det.precision, precision)).order())
        orders.append(result)
    return orders


def pullback_matrix(
    presentation: DifferentialPresentation, arc: Arc
) -> list[list[TruncatedSeries]]:
    """Evaluate a polynomial relation matrix along an arc."""
    return [[arc.evaluate(entry) for entry in row] for row in presentation.matrix]


def profile_of_omega(arc: Arc) -> InvariantProfile:
    """Arc-level invariant profile of the differentials of the variety along an arc.

    No precision refinement happens here; see ``refined_profile_of_omega``.
    A level-n profile is ``profile_of_omega(arc.with_precision(n + 1)).at_level(n)``.
    """
    presentation = omega_presentation(arc.variety)
    matrix = pullback_matrix(presentation, arc)
    return smith_orders(matrix, presentation.num_columns, precision=arc.precision)


def refined_profile_of_omega(
    arc: Arc, cap: int = PRECISION_CAP
) -> tuple[InvariantProfile, Arc]:
    """Arc-level profile, doubling the precision until it resolves.

    Returns the profile together with the (possibly re-expanded) arc so
    callers keep the extra coefficients.  If the cap is reached, the
    profile comes back precision limited: the undecided blocks are
    reported, never guessed.
    """
    return refined_pullback_profile(omega_presentation(arc.variety), arc, cap)


def refined_pullback_profile(
    presentation: DifferentialPresentation,
    arc: Arc,
    cap: int = PRECISION_CAP,
) -> tuple[InvariantProfile, Arc]:
    """Arc-level profile of an arbitrary presentation along an arc, refined."""
    current = arc
    while True:
        matrix = pullback_matrix(presentation, current)
        profile = smith_orders(matrix, presentation.num_columns, precision=current.precision)
        if not profile.precision_limited:
            return profile, current
        if current.precision >= cap:
            return profile, current
        current = current.with_precision(min(2 * current.precision, cap))
