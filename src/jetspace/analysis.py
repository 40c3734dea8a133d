"""Headline invariants of arcs: fiber dimensions, embedding dimensions,
jet codimension, the birational transformation rule, and maximal
divisorial arcs.

Every closed formula here has an independent route next to it somewhere
in the package: jet fiber dimensions against the jet Jacobian corank,
decomposition-based Fitting orders against raw minors, and the
divisorial-arc embedding dimensions against the stabilization loop.

The embedding dimension of the local ring at an arc is the limit of the
non-decreasing sequence

    s_n = (n+1) * D - dim(alpha_n),

where D is the free rank of the pulled-back differentials along the arc
and dim(alpha_n) the transcendence degree of the residue field of the
level-n truncation.  No command diagonalizes a jet level on its own
(``smith_orders`` has one mode, along the arc): the level-n module is the
arc-level one base-changed to k[t]/t^(n+1), so its profile comes from the
arc-level pivots (``InvariantProfile.at_level``), and a report states the
arc-level profile's precision (``InvariantProfile.precision_json``).  Each
command refines an arc once, and every level is read off that one
profile: the oracle's fiber dimensions at all its levels, and level 0,
which is Omega_X at the arc's center, so its free rank N - rank J(center)
is the BTR smoothness test.  One residue profile gives dim(alpha_n) at
every level (``Arc.residue_dimension_profile``, decided by
``transcendence_degree`` from the coefficients: a count of distinct
variables where each nonconstant coefficient is a scaled variable, one
elimination otherwise).  Stabilization of s_n is detected
heuristically over a fixed window of ``WINDOW`` levels, so a horizon
n_max below ``WINDOW - 1`` is refused; a sequence that keeps growing is
reported as "suspected infinite", never as a proof.  ``embdim_arc`` and
``jet_codim`` are one stabilization driver and differ only in D; the
driver serves several dimension sources from one refinement and one
residue profile.

The BTR and the Mather check compare embedding dimensions as one
extended value (``_extended``): a report that did not stabilize reads
as infinity, and so does a Jacobian order known only from below.

The Mather check is the birational transformation rule at the maximal
divisorial arc.  On a smooth chart the generic contact-order-q arc beta
along a divisor E has embedding dimension q and ord_beta(Jac_f) =
q * khat_E, so the BTR at beta gives q * (khat_E + 1) at its image;
``mather_discrepancy_check`` runs one ``btr_check`` at beta and reads
the Jacobian order, both embedding dimensions and the image's center
off its report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .arcs import Arc, generic_arc, push_arc
from .errors import (
    InputError,
    InternalInvariantViolation,
    MissingDeclaredDim,
    NonDivisibleJacobianOrder,
    PrecisionLimited,
)
from .exact import as_scalar
from .geometry import MorphismPresentation, relative_omega_presentation
from .invariants import InvariantProfile, refined_profile_of_omega, refined_pullback_profile
from .jets import jet_jacobian_corank, jet_levels
from .series import PRECISION_CAP, OrderValue

DEFAULT_N_MAX = 12
WINDOW = 3  # a verdict compares s_n at the last WINDOW levels
ORACLE_LEVELS = range(7)  # the levels an oracle check covers when none is named


@dataclass(frozen=True)
class FiberDimension:
    """Fiber dimension of the jet-scheme differentials at a liftable jet.

    (n+1) d_n plus the order of the matching Fitting ideal on the arc.
    d_n is the level-n free rank and the Fitting order a tail sum, both
    read off the arc-level decomposition.  d_n is at least the arc-level
    free rank, so the tail sum is finite.  It is exact even when that
    free rank is provisional, because a hidden factor lies above the
    working precision and therefore below index d_n in the descending
    order.
    """

    level: int
    arc_profile: InvariantProfile
    arc: Arc  # evaluated on: the input arc with > level coefficients, refined

    @property
    def jet_betti(self) -> int:
        return self.arc_profile.at_level(self.level).betti

    @property
    def fitting_order(self) -> OrderValue:
        return self.arc_profile.fitting_invariant(self.jet_betti)

    @property
    def value(self) -> int:
        return (self.level + 1) * self.jet_betti + self.fitting_order.value

    @property
    def precision_limited(self) -> bool:
        return self.arc_profile.precision_limited

    def to_json(self):
        return {
            "level": self.level,
            "value": self.value,
            "jet_free_rank": self.jet_betti,
            "fitting_order": self.fitting_order.to_json(),
            "precision": self.arc_profile.precision_json(),
        }


def fiber_dim_formula(arc: Arc, n: int, cap: int = PRECISION_CAP) -> FiberDimension:
    """Fiber dimension at level n from the refined arc-level profile."""
    jet_levels([n])
    return FiberDimension(n, *refined_profile_of_omega(arc.with_precision(n + 1), cap))


@dataclass(frozen=True)
class OracleCheck:
    """Closed formula vs. brute-force jet Jacobian corank at one level."""

    fiber: FiberDimension
    corank: int

    @property
    def precision_limited(self) -> bool:
        return self.fiber.precision_limited

    @property
    def match(self) -> bool:
        return self.fiber.value == self.corank

    def to_json(self):
        return {
            "level": self.fiber.level,
            "formula": self.fiber.value,
            "jet_jacobian_corank": self.corank,
            "match": self.match,
        }


def oracle_check(
    arc: Arc, levels: Sequence[int], cap: int = PRECISION_CAP
) -> list[OracleCheck]:
    """Compare the fiber-dimension formula with the jet Jacobian corank, level by level.

    One refinement of the arc and one jet Jacobian serve every level: each
    level's formula reads the refined profile, and one
    ``jet_jacobian_corank`` call at the top level's jet gives every
    level's corank.  Levels that are empty or not ints >= 0 raise
    InputError, as in ``jet_jacobian_corank``.
    """
    levels = jet_levels(levels)
    top = max(levels)
    profile, arc = refined_profile_of_omega(arc.with_precision(top + 1), cap)
    fibers = [FiberDimension(n, profile, arc) for n in levels]
    coranks = jet_jacobian_corank(arc.variety, levels, arc.truncate(top).coordinates)
    return [OracleCheck(fiber, corank) for fiber, corank in zip(fibers, coranks)]


@dataclass(frozen=True)
class JetEmbeddingDimension:
    fiber: FiberDimension
    residue_dim: int
    char_p_jacobian: bool

    @property
    def value(self) -> int:
        return self.fiber.value - self.residue_dim

    @property
    def precision_limited(self) -> bool:
        return self.fiber.precision_limited

    def to_json(self):
        out = {
            "level": self.fiber.level,
            "value": self.value,
            "fiber_dim": self.fiber.to_json(),
            "residue_dim": self.residue_dim,
        }
        if self.char_p_jacobian:
            out["char_p_jacobian"] = True
        return out


def embdim_jet(arc: Arc, n: int, cap: int = PRECISION_CAP) -> JetEmbeddingDimension:
    """Embedding dimension of the jet scheme at the level-n truncation."""
    fiber = fiber_dim_formula(arc, n, cap)
    residue_dims, char_p = fiber.arc.residue_dimension_profile(n)
    return JetEmbeddingDimension(fiber, residue_dims[n], char_p)


@dataclass(frozen=True)
class StabRow:
    level: int
    jet_betti: int
    residue_dim: int


@dataclass(frozen=True)
class StabilizationReport:
    """Sequence s_n = (n+1) D - dim(alpha_n) with a stabilization verdict.

    D (``ambient_rank``) is the declared dimension or the arc-level free
    rank, as ``dim_source`` says.  ``value`` is set when the last
    ``WINDOW`` values agree and the level-n free rank has reached the
    arc-level one, and is None otherwise.  A report that does not
    stabilize means suspected infinite embedding dimension: the point is
    either inside the singular arcs or not a stable point.
    """

    kind: str  # "embdim-arc" or "jet-codim"
    dim_source: str  # "betti" or "declared"
    rows: tuple[StabRow, ...]
    arc_profile: InvariantProfile
    char_p_jacobian: bool
    arc: Arc  # evaluated on: the input arc, refined and known up to level n_max

    @property
    def ambient_rank(self) -> int:
        if self.dim_source == "declared":
            return self.arc.variety.declared_dim
        return self.arc_profile.betti

    @property
    def value(self) -> int | None:
        tail = self.codim_sequence()[-WINDOW:]
        reached = all(r.jet_betti == self.arc_profile.betti for r in self.rows[-WINDOW:])
        if len(set(tail)) == 1 and reached:
            return tail[-1]
        return None

    @property
    def stabilized(self) -> bool:
        return self.value is not None

    @property
    def n_max(self) -> int:
        return self.rows[-1].level

    @property
    def precision_limited(self) -> bool:
        return self.arc_profile.precision_limited

    def verdict(self) -> str:
        if self.stabilized:
            return f"Stabilized({self.value})"
        return f"NotStabilizedUpTo({self.n_max})"

    def codim_sequence(self) -> list[int]:
        rank = self.ambient_rank
        return [(row.level + 1) * rank - row.residue_dim for row in self.rows]

    def to_json(self):
        out = {
            "kind": self.kind,
            "dim_source": self.dim_source,
            "dim_value": self.ambient_rank,
            "sequence": [
                {
                    "level": r.level,
                    "jet_free_rank": r.jet_betti,
                    "residue_dim": r.residue_dim,
                    "codim": s_n,
                }
                for r, s_n in zip(self.rows, self.codim_sequence())
            ],
            "window": WINDOW,
            "verdict": self.verdict(),
            "stabilized": self.stabilized,
            "value": self.value,
            "precision": self.arc_profile.precision_json(),
        }
        if self.char_p_jacobian:
            out["char_p_jacobian"] = True
        return out


def _check_horizon(n_max: int) -> None:
    # Levels 0..n_max must hold a full window, or no verdict could ever close.
    if n_max < WINDOW - 1:
        raise InputError(f"n_max must be >= {WINDOW - 1} to hold a window of {WINDOW} levels, got {n_max}")


def _stabilizations(
    arc: Arc, requests: Sequence[tuple[str, str]], n_max: int, cap: int
) -> list[StabilizationReport]:
    """s_n for n <= n_max on the refined arc, one report per (kind, dim_source).

    The arc is refined, its residue dimensions eliminated and its rows
    built once for all requests, which differ only in D: ``declared``
    trusts the presentation's declared_dim; ``betti`` uses the free rank
    of the differentials along this arc.
    """
    for _, dim_source in requests:
        if dim_source not in ("declared", "betti"):
            raise InputError(f"unknown dimension source {dim_source!r}")
        if dim_source == "declared" and arc.variety.declared_dim is None:
            raise MissingDeclaredDim()
    _check_horizon(n_max)
    arc_profile, arc = refined_profile_of_omega(arc, cap)
    arc = arc.with_precision(n_max + 1)
    # A limited arc-level profile serves only the levels below its precision.
    levels = arc_profile
    if arc_profile.precision_limited and arc_profile.precision <= n_max:
        levels = refined_profile_of_omega(arc, arc.precision)[0]
    residue_dims, char_p = arc.residue_dimension_profile(n_max)
    rows = tuple(StabRow(n, levels.at_level(n).betti, residue_dims[n]) for n in range(n_max + 1))
    reports = [
        StabilizationReport(kind, dim_source, rows, arc_profile, char_p, arc)
        for kind, dim_source in requests
    ]
    for report in reports:
        seq = report.codim_sequence()
        for n, (prev, s_n) in enumerate(zip(seq, seq[1:]), 1):
            if s_n < prev:
                raise InternalInvariantViolation(
                    f"codimension sequence decreased at level {n}: {s_n} < {prev}"
                )
    return reports


def embdim_arc(
    arc: Arc,
    n_max: int = DEFAULT_N_MAX,
    cap: int = PRECISION_CAP,
) -> StabilizationReport:
    """Embedding dimension of the arc space at the arc, via stabilization."""
    return _stabilizations(arc, [("embdim-arc", "betti")], n_max, cap)[0]


def jet_codim(
    arc: Arc,
    dim_source: str = "betti",
    n_max: int = DEFAULT_N_MAX,
    cap: int = PRECISION_CAP,
) -> StabilizationReport:
    """Jet codimension of the arc, with the dimension source made explicit.

    The ``betti`` source is the dimension at the arc's generic point for
    reduced equidimensional varieties away from the singular locus.
    """
    return _stabilizations(arc, [("jet-codim", dim_source)], n_max, cap)[0]


def _extended(report: StabilizationReport) -> float:
    """The report's value, with a sequence that did not stabilize read as infinity."""
    return report.value if report.stabilized else math.inf


@dataclass(frozen=True)
class BtrReport:
    """Embedding-dimension bookkeeping across a birational morphism.

    A side that did not stabilize, or an undetermined Jacobian order, is
    infinity: all quantities infinite is consistent, a finite side against
    an infinite one is not.  The equality is asserted only when the source
    is smooth at the arc's center.
    """

    ord_jacobian: OrderValue
    source: StabilizationReport
    target: StabilizationReport
    smooth_at_center: bool

    def _extended_values(self) -> tuple[float, float, float]:
        """Source and target embedding dimensions and the Jacobian order, extended."""
        jac = self.ord_jacobian.value if self.ord_jacobian.is_finite else math.inf
        return _extended(self.source), _extended(self.target), jac

    @property
    def inequalities_hold(self) -> bool:
        src, tgt, jac = self._extended_values()
        return src <= tgt <= src + jac

    @property
    def equality_holds(self) -> bool | None:
        src, tgt, jac = self._extended_values()
        return tgt == src + jac if self.smooth_at_center else None

    @property
    def precision_limited(self) -> bool:
        """An undetermined Jacobian order, or either side's profile limited."""
        return (
            not self.ord_jacobian.is_finite
            or self.source.precision_limited
            or self.target.precision_limited
        )

    def to_json(self):
        return {
            "ord_jacobian": self.ord_jacobian.to_json(),
            "embdim_source": self.source.to_json(),
            "embdim_target": self.target.to_json(),
            "smooth_at_center": self.smooth_at_center,
            "inequalities_hold": self.inequalities_hold,
            "equality_holds": self.equality_holds,
        }


def btr_check(
    f: MorphismPresentation,
    beta: Arc,
    n_max: int = DEFAULT_N_MAX,
    cap: int = PRECISION_CAP,
) -> BtrReport:
    """Check the birational transformation rule along one arc.

    Computes the order of the morphism Jacobian as the zeroth Fitting
    invariant of the relative differentials pulled back to the arc, the
    embedding dimensions on both sides, the two-sided inequalities, and
    the equality whenever the source is smooth at the arc's center.
    """
    _check_horizon(n_max)
    alpha = push_arc(f, beta)
    relative = relative_omega_presentation(f)
    rel_profile, beta = refined_pullback_profile(relative, beta, cap)
    ord_jac = rel_profile.fitting_invariant(0)
    source_report = embdim_arc(beta, n_max, cap)
    target_report = embdim_arc(alpha, n_max, cap)
    source_dim = f.source.declared_dim
    if source_dim is None:
        source_dim = source_report.arc_profile.betti
    # Level 0 is Omega_X at the center: free rank N - rank J(center).
    smooth = not f.source.generators or source_report.arc_profile.at_level(0).betti == source_dim
    return BtrReport(ord_jac, source_report, target_report, smooth)


def resolve_divisor_var(source, divisor_var) -> int:
    """Position of the divisor variable, given by name or 1-based index."""
    if isinstance(divisor_var, str):
        try:
            return source.variables.index(divisor_var)
        except ValueError:
            raise InputError(f"divisor variable {divisor_var!r} is not a source variable")
    if isinstance(divisor_var, bool) or not isinstance(divisor_var, int):
        raise InputError(f"divisor variable must be a name or a 1-based index, got {divisor_var!r}")
    idx = divisor_var
    if not 1 <= idx <= len(source.variables):
        raise InputError(f"divisor variable index {idx} out of range")
    return idx - 1


def _divisor_arc(f: MorphismPresentation, divisor_var, q: int, precision: int) -> tuple[Arc, str]:
    """Generic contact-order-q source arc along a coordinate divisor, and its variable.

    The source chart must be affine space; the divisor is the vanishing
    locus of one source coordinate.  The arc carries one fresh
    transcendental per coefficient, the divisor coordinate starting at t^q,
    and is built at precision at least 2q + 2, so that it shows its
    contact order.
    """
    if f.source.generators:
        raise InputError("divisorial arcs are built on a smooth affine-space chart")
    if isinstance(q, bool) or not isinstance(q, int) or q < 1:
        raise InputError(f"contact order q must be an int >= 1, got {q!r}")
    j = resolve_divisor_var(f.source, divisor_var)
    starts = [q if i == j else 0 for i in range(len(f.source.variables))]
    return generic_arc(f.source, starts, max(precision, 2 * q + 2)), f.source.variables[j]


def divisorial_arc(f: MorphismPresentation, divisor_var, q: int, precision: int) -> tuple[Arc, Arc]:
    """Generic contact-order-q arc along a coordinate divisor, and its pushforward."""
    beta = _divisor_arc(f, divisor_var, q, precision)[0]
    return beta, push_arc(f, beta)


@dataclass(frozen=True)
class MatherReport:
    """Embedding dimension at a maximal divisorial arc vs. the discrepancy formula."""

    q: int
    divisor_var: str
    btr: BtrReport  # at the divisorial arc; its Jacobian order is finite and divisible by q
    center_is_closed_point: bool
    target_dim: int | None

    @property
    def mather_discrepancy(self) -> int:
        return self.btr.ord_jacobian.value // self.q

    @property
    def expected_embdim(self) -> int:
        return self.q * (self.mather_discrepancy + 1)

    @property
    def source_equals_q(self) -> bool:
        return _extended(self.btr.source) == self.q

    @property
    def target_matches(self) -> bool:
        return _extended(self.btr.target) == self.expected_embdim

    @property
    def dim_bound_holds(self) -> bool | None:
        """mather_discrepancy + 1 >= dim X, when the image's center is closed and dim X known."""
        if self.center_is_closed_point and self.target_dim is not None:
            return self.mather_discrepancy + 1 >= self.target_dim
        return None

    def to_json(self):
        return {
            "q": self.q,
            "divisor_var": self.divisor_var,
            "ord_jacobian": self.btr.ord_jacobian.value,
            "mather_discrepancy": self.mather_discrepancy,
            "expected_embdim": self.expected_embdim,
            "embdim_source": self.btr.source.to_json(),
            "embdim_target": self.btr.target.to_json(),
            "source_equals_q": self.source_equals_q,
            "target_matches": self.target_matches,
            "center_is_closed_point": self.center_is_closed_point,
            "target_dim": self.target_dim,
            "dim_bound_holds": self.dim_bound_holds,
        }

    @property
    def precision_limited(self) -> bool:
        return self.btr.precision_limited

    @property
    def passed(self) -> bool:
        return self.source_equals_q and self.target_matches and self.dim_bound_holds is not False


def mather_discrepancy_check(
    f: MorphismPresentation,
    divisor_var,
    q: int,
    precision: int,
    n_max: int = DEFAULT_N_MAX,
    cap: int = PRECISION_CAP,
) -> MatherReport:
    """The BTR at the maximal divisorial arc, checked against the discrepancy formula.

    On the smooth chart the generic contact-order-q arc beta along the
    divisor has embedding dimension q and ord_beta(Jac_f) = q * khat, so
    the BTR gives q * (khat + 1) at its image arc, khat being the Mather
    discrepancy.  When the image arc is centered at a closed point, the
    discrepancy plus one must also bound the target dimension from below.
    """
    beta, name = _divisor_arc(f, divisor_var, q, max(precision, n_max + 2))
    btr = btr_check(f, beta, n_max, cap)
    ord_jac, target = btr.ord_jacobian, btr.target
    if not ord_jac.is_finite:
        raise PrecisionLimited(
            "order of the morphism Jacobian is undetermined below the precision cap",
            bound=ord_jac.bound,
        )
    if ord_jac.value % q != 0:
        raise NonDivisibleJacobianOrder(ord_jac.value, q)
    target_dim = f.target.declared_dim
    if target_dim is None and not target.precision_limited:
        target_dim = target.arc_profile.betti
    return MatherReport(
        q=q,
        divisor_var=name,
        btr=btr,
        center_is_closed_point=all(as_scalar(c) is not None for c in target.arc.center()),
        target_dim=target_dim,
    )
