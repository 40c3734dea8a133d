"""Invariant factors, Betti numbers, and Fitting invariants along arcs.

A finitely presented module pulled back along an arc or jet becomes a
module over a t-truncated power series ring, hence a direct sum of a
free part and cyclic pieces t^{e_i}.  ``smith_orders`` finds that
decomposition by iterated pivoting: pick an entry of smallest finite
order e, factor it as t^e times a unit, and clear its row and column by
elementary operations (everything left has order >= e, so the steps
stay exact at full working precision).  Columns never touched by a
finite pivot contribute free summands.

The Betti number is the free rank; the sequence of invariant factors is
the descending list of pivot orders, padded with the cap (level + 1 at a
finite level, "at least the working precision" along the arc) below the
free rank.  Fitting invariants are the tail sums

    c_i = min(cap, e_i + e_{i+1} + ...),

and ``fitting_minor_oracle`` recomputes them from scratch as minimal
orders of minors, giving an independent check that the decomposition and
the minors agree (base-change compatibility of Fitting ideals).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .arcs import Arc
from .errors import MatrixTooLarge, PrecisionTooLow
from .geometry import DifferentialPresentation, cofactor_det, omega_presentation
from .series import PRECISION_CAP, OrderValue, TruncatedSeries

# Level value meaning "along the whole arc, to working precision".
ARC_LEVEL = None

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

    @property
    def is_arc_level(self) -> bool:
        return self.level is None

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
            if self.level is None:
                return OrderValue.at_least(self.precision)
            return OrderValue.finite(self.level + 1)
        tail = sum(self.factors[i - self.betti :], 0)
        if self.level is not None:
            tail = min(self.level + 1, tail)
        return OrderValue.finite(tail)

    def fitting_invariants(self, count: int) -> list[OrderValue]:
        return [self.fitting_invariant(i) for i in range(count)]

    def to_json(self):
        return {
            "level": "infinity" if self.level is None else self.level,
            "free_rank": self.betti,
            "factors": list(self.factors),
            "fitting": [
                ov.to_json() for ov in self.fitting_invariants(self.num_columns + 1)
            ],
            "precision": self.precision,
            "precision_limited": self.precision_limited,
        }


def smith_orders(
    matrix: Sequence[Sequence[TruncatedSeries]],
    num_columns: int,
    level: int | None = None,
    precision: int | None = None,
) -> InvariantProfile:
    """Diagonalize a relation matrix over a t-truncated ring.

    Rows are relations, columns are module generators (``num_columns``
    of them).  At a finite ``level`` the ring is truncated at t^(level+1)
    and vanishing below that cap is genuine; at arc level, vanishing only
    means "no coefficient seen below the working precision" and flags the
    profile as precision limited when it blocks the decomposition.
    """
    rows = [list(row) for row in matrix]
    if rows and any(len(row) != num_columns for row in rows):
        raise ValueError("matrix rows disagree with num_columns")
    if level is not None:
        ring_precision = level + 1
        rows = [[entry.truncate(ring_precision) for entry in row] for row in rows]
    elif rows:
        ring_precision = min(entry.precision for row in rows for entry in row)
        rows = [[entry.truncate(ring_precision) for entry in row] for row in rows]
    else:
        if precision is None:
            raise ValueError("empty matrix needs an explicit precision")
        ring_precision = precision if level is None else level + 1

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

    limited = bool(level is None and active_rows and active_cols)
    betti = num_columns - len(pivots)
    factors = tuple(sorted((e for e in pivots if e > 0), reverse=True))
    return InvariantProfile(
        level=level,
        num_columns=num_columns,
        betti=betti,
        factors=factors,
        precision=ring_precision,
        precision_limited=limited,
    )


def fitting_minor_oracle(
    matrix: Sequence[Sequence[TruncatedSeries]],
    i: int,
    num_columns: int | None = None,
    precision: int | None = None,
) -> OrderValue:
    """Order of the i-th Fitting ideal, straight from minors.

    Enumerates every (N-i) x (N-i) minor and takes the minimal order.
    Deliberately brute force and independent of ``smith_orders``; small
    matrices only.
    """
    rows = [list(row) for row in matrix]
    if num_columns is None:
        if not rows:
            raise ValueError("empty matrix needs explicit num_columns")
        num_columns = len(rows[0])
    if precision is None and rows:
        precision = min(entry.precision for row in rows for entry in row)
    if precision is None:
        raise ValueError("empty matrix needs an explicit precision")
    size = num_columns - i
    if size <= 0:
        return OrderValue.finite(0)
    if len(rows) > _MINOR_DIMENSION_BOUND or num_columns > _MINOR_DIMENSION_BOUND:
        raise MatrixTooLarge((len(rows), num_columns), _MINOR_DIMENSION_BOUND)
    if size > len(rows):
        return OrderValue.at_least(precision)
    result = OrderValue.at_least(precision)
    for row_idx in combinations(range(len(rows)), size):
        for col_idx in combinations(range(num_columns), size):
            det = cofactor_det([[rows[r][c] for c in col_idx] for r in row_idx])
            result = result.min(det.truncate(min(det.precision, precision)).order())
    return result


def pullback_matrix(
    presentation: DifferentialPresentation, arc: Arc
) -> list[list[TruncatedSeries]]:
    """Evaluate a polynomial relation matrix along an arc."""
    return [[arc.evaluate(entry) for entry in row] for row in presentation.matrix]


def profile_of_omega(arc: Arc, level: int | None = ARC_LEVEL) -> InvariantProfile:
    """Invariant profile of the differentials of the variety along an arc.

    At a finite level the arc must know at least level+1 coefficients.
    No precision refinement happens here; see ``refined_profile_of_omega``.
    """
    if level is not None and level >= arc.precision:
        raise PrecisionTooLow(level, arc.precision)
    presentation = omega_presentation(arc.variety)
    matrix = pullback_matrix(presentation, arc)
    return smith_orders(
        matrix, presentation.num_columns, level=level, precision=arc.precision
    )


def refined_profile_of_omega(
    arc: Arc, cap: int = PRECISION_CAP
) -> tuple[InvariantProfile, Arc]:
    """Arc-level profile, doubling the precision until it resolves.

    Returns the profile together with the (possibly re-expanded) arc so
    callers keep the extra coefficients.  If the cap is reached, or the
    arc cannot be re-expanded, the profile comes back precision limited:
    the undecided blocks are reported, never guessed.
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
        profile = smith_orders(
            matrix, presentation.num_columns, level=ARC_LEVEL, precision=current.precision
        )
        if not profile.precision_limited:
            return profile, current
        if not current.refinable or current.precision >= cap:
            return profile, current
        current = current.with_precision(min(2 * current.precision, cap))
