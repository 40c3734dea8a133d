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
level-n truncation.  Stabilization of s_n is detected heuristically over
a window; a sequence that keeps growing is reported as "suspected
infinite", never as a proof.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arcs import Arc, generic_arc, push_arc, validate_morphism_on_arc
from .errors import (
    InputError,
    InternalInvariantViolation,
    MissingDeclaredDim,
    NonDivisibleJacobianOrder,
    PrecisionLimited,
    PrecisionTooLow,
)
from .exact import FieldElement, matrix_rank
from .geometry import MorphismPresentation, relative_omega_presentation
from .invariants import (
    InvariantProfile,
    profile_of_omega,
    refined_profile_of_omega,
    refined_pullback_profile,
)
from .jets import jet_jacobian_corank
from .series import PRECISION_CAP, OrderValue

DEFAULT_N_MAX = 12
DEFAULT_WINDOW = 3


@dataclass(frozen=True)
class FiberDimension:
    """Fiber dimension of the jet-scheme differentials at a liftable jet."""

    level: int
    value: int
    jet_betti: int
    fitting_order: OrderValue
    arc_profile: InvariantProfile
    jet_profile: InvariantProfile

    def to_json(self):
        return {
            "level": self.level,
            "value": self.value,
            "jet_free_rank": self.jet_betti,
            "fitting_order": self.fitting_order.to_json(),
            "precision": {
                "kind": "at_least" if self.arc_profile.precision_limited else "finite",
                "bound": self.arc_profile.precision,
            },
        }


def fiber_dim_formula(arc: Arc, n: int, cap: int = PRECISION_CAP) -> FiberDimension:
    """(n+1) d_n plus the order of the matching Fitting ideal on the arc.

    d_n is the free rank at level n; the Fitting order is read off the
    arc-level decomposition (refined as needed).  The tail sums used here
    are exact even when the arc-level free rank is provisional, because a
    hidden factor lies above the working precision and therefore below
    index d_n in the descending order.
    """
    if arc.precision <= n:
        arc = arc.with_precision(n + 1)
    arc_profile, arc = refined_profile_of_omega(arc, cap)
    jet_profile = profile_of_omega(arc, n)
    d_n = jet_profile.betti
    c = arc_profile.fitting_invariant(d_n)
    if not c.is_finite:
        raise PrecisionLimited(
            f"Fitting order at index {d_n} is undetermined below precision {arc_profile.precision}",
            bound=arc_profile.precision,
        )
    return FiberDimension(
        level=n,
        value=(n + 1) * d_n + c.value,
        jet_betti=d_n,
        fitting_order=c,
        arc_profile=arc_profile,
        jet_profile=jet_profile,
    )


@dataclass(frozen=True)
class OracleCheck:
    """Closed formula vs. brute-force jet Jacobian corank at one level."""

    level: int
    formula_value: int
    corank: int
    precision_limited: bool

    @property
    def match(self) -> bool:
        return self.formula_value == self.corank

    def to_json(self):
        return {
            "level": self.level,
            "formula": self.formula_value,
            "jet_jacobian_corank": self.corank,
            "match": self.match,
        }


def oracle_check(arc: Arc, n: int, cap: int = PRECISION_CAP) -> OracleCheck:
    """Compare the fiber-dimension formula with the jet Jacobian corank."""
    fiber = fiber_dim_formula(arc, n, cap)
    if arc.precision <= n:
        arc = arc.with_precision(n + 1)
    jet = arc.truncate(n)
    corank = jet_jacobian_corank(arc.variety, n, jet.coordinates)
    return OracleCheck(
        level=n,
        formula_value=fiber.value,
        corank=corank,
        precision_limited=fiber.arc_profile.precision_limited,
    )


@dataclass(frozen=True)
class JetEmbeddingDimension:
    level: int
    value: int
    fiber: FiberDimension
    residue_dim: int
    char_p_jacobian: bool

    def to_json(self):
        out = {
            "level": self.level,
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
    if arc.precision <= n:
        arc = arc.with_precision(n + 1)
    jet = arc.truncate(n)
    return JetEmbeddingDimension(
        level=n,
        value=fiber.value - jet.residue_dim,
        fiber=fiber,
        residue_dim=jet.residue_dim,
        char_p_jacobian=jet.char_p_jacobian,
    )


@dataclass(frozen=True)
class StabRow:
    level: int
    jet_betti: int
    residue_dim: int
    codim: int  # s_n


@dataclass(frozen=True)
class StabilizationReport:
    """Sequence s_n = (n+1) D - dim(alpha_n) with a stabilization verdict.

    ``stabilized`` requires the last ``window`` values to agree and the
    level-n free rank to have reached the arc-level one.  A report that
    does not stabilize means suspected infinite embedding dimension: the
    point is either inside the singular arcs or not a stable point.
    """

    kind: str  # "embdim-arc" or "jet-codim"
    dim_source: str  # "betti" or "declared"
    ambient_rank: int  # D
    rows: tuple[StabRow, ...]
    window: int
    stabilized: bool
    value: int | None
    arc_profile: InvariantProfile
    char_p_jacobian: bool

    @property
    def n_max(self) -> int:
        return self.rows[-1].level

    @property
    def suspected_infinite(self) -> bool:
        return not self.stabilized

    def verdict(self) -> str:
        if self.stabilized:
            return f"Stabilized({self.value})"
        return f"NotStabilizedUpTo({self.n_max})"

    def codim_sequence(self) -> list[int]:
        return [row.codim for row in self.rows]

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
                    "codim": r.codim,
                }
                for r in self.rows
            ],
            "window": self.window,
            "verdict": self.verdict(),
            "stabilized": self.stabilized,
            "value": self.value,
            "precision": {
                "kind": "at_least" if self.arc_profile.precision_limited else "finite",
                "bound": self.arc_profile.precision,
            },
        }
        if self.char_p_jacobian:
            out["char_p_jacobian"] = True
        return out


def _stabilization(
    arc: Arc,
    rank: int,
    dim_source: str,
    kind: str,
    n_max: int,
    window: int,
    arc_profile: InvariantProfile,
) -> StabilizationReport:
    if n_max < 0 or window < 1:
        raise InputError("n_max must be >= 0 and window >= 1")
    if arc.precision <= n_max:
        if not arc.refinable:
            raise PrecisionTooLow(n_max, arc.precision)
        arc = arc.with_precision(n_max + 1)
    residue_dims, char_p = arc.residue_dimension_profile(n_max)
    rows = []
    prev = None
    lower_bound = rank - residue_dims[0]
    for n in range(n_max + 1):
        d_n = profile_of_omega(arc, n).betti
        s_n = (n + 1) * rank - residue_dims[n]
        if prev is not None and s_n < prev:
            raise InternalInvariantViolation(
                f"codimension sequence decreased at level {n}: {s_n} < {prev}"
            )
        if s_n < lower_bound:
            raise InternalInvariantViolation(
                f"codimension {s_n} fell below the center bound {lower_bound} at level {n}"
            )
        rows.append(StabRow(n, d_n, residue_dims[n], s_n))
        prev = s_n
    tail = rows[-window:]
    stabilized = (
        len(tail) == window
        and len({r.codim for r in tail}) == 1
        and all(r.jet_betti == arc_profile.betti for r in tail)
    )
    return StabilizationReport(
        kind=kind,
        dim_source=dim_source,
        ambient_rank=rank,
        rows=tuple(rows),
        window=window,
        stabilized=stabilized,
        value=tail[-1].codim if stabilized else None,
        arc_profile=arc_profile,
        char_p_jacobian=char_p,
    )


def embdim_arc(
    arc: Arc,
    n_max: int = DEFAULT_N_MAX,
    window: int = DEFAULT_WINDOW,
    cap: int = PRECISION_CAP,
) -> StabilizationReport:
    """Embedding dimension of the arc space at the arc, via stabilization."""
    profile, arc = refined_profile_of_omega(arc, cap)
    return _stabilization(arc, profile.betti, "betti", "embdim-arc", n_max, window, profile)


def jet_codim(
    arc: Arc,
    dim_source: str = "betti",
    n_max: int = DEFAULT_N_MAX,
    window: int = DEFAULT_WINDOW,
    cap: int = PRECISION_CAP,
) -> StabilizationReport:
    """Jet codimension of the arc, with the dimension source made explicit.

    ``declared`` trusts the presentation's declared_dim; ``betti`` uses
    the free rank of the differentials along this arc, which is the
    dimension at the arc's generic point for reduced equidimensional
    varieties away from the singular locus.
    """
    profile, arc = refined_profile_of_omega(arc, cap)
    if dim_source == "declared":
        if arc.variety.declared_dim is None:
            raise MissingDeclaredDim()
        rank = arc.variety.declared_dim
    elif dim_source == "betti":
        rank = profile.betti
    else:
        raise InputError(f"unknown dimension source {dim_source!r}")
    return _stabilization(arc, rank, dim_source, "jet-codim", n_max, window, profile)


def _at_most(left: StabilizationReport, right: StabilizationReport) -> bool:
    """left <= right with NotStabilized treated as suspected infinity."""
    if left.stabilized:
        return (not right.stabilized) or left.value <= right.value
    return not right.stabilized


def _at_most_sum(
    target: StabilizationReport, source: StabilizationReport, extra: OrderValue
) -> bool:
    """target <= source + extra under the same extended semantics."""
    if not target.stabilized:
        return (not source.stabilized) or not extra.is_finite
    if not source.stabilized or not extra.is_finite:
        return True
    return target.value <= source.value + extra.value


@dataclass(frozen=True)
class BtrReport:
    """Embedding-dimension bookkeeping across a birational morphism."""

    ord_jacobian: OrderValue
    source: StabilizationReport
    target: StabilizationReport
    smooth_at_center: bool
    inequalities_hold: bool
    equality_holds: bool | None  # asserted only when the source is smooth at the center

    def to_json(self):
        return {
            "ord_jacobian": self.ord_jacobian.to_json(),
            "embdim_source": self.source.to_json(),
            "embdim_target": self.target.to_json(),
            "smooth_at_center": self.smooth_at_center,
            "inequalities_hold": self.inequalities_hold,
            "equality_holds": self.equality_holds,
        }


def _smooth_at_center(f: MorphismPresentation, beta: Arc, source_dim: int) -> bool:
    """Jacobian criterion for the source at the arc's center."""
    if not f.source.generators:
        return True
    center = dict(zip(f.source.variables, beta.center()))
    field = f.source.base

    def const(c):
        return FieldElement.from_scalar(field, c)

    rows = [
        [g.derivative(v).evaluate(center, const) for v in f.source.variables]
        for g in f.source.generators
    ]
    return matrix_rank(rows) == len(f.source.variables) - source_dim


def btr_check(
    f: MorphismPresentation,
    beta: Arc,
    n_max: int = DEFAULT_N_MAX,
    window: int = DEFAULT_WINDOW,
    cap: int = PRECISION_CAP,
) -> BtrReport:
    """Check the birational transformation rule along one arc.

    Computes the order of the morphism Jacobian as the zeroth Fitting
    invariant of the relative differentials pulled back to the arc, the
    embedding dimensions on both sides, the two-sided inequalities, and
    the equality whenever the source is smooth at the arc's center.
    """
    validate_morphism_on_arc(f, beta)
    alpha = push_arc(f, beta)
    relative = relative_omega_presentation(f)
    rel_profile, beta = refined_pullback_profile(relative, beta, cap)
    ord_jac = rel_profile.fitting_invariant(0)
    source_report = embdim_arc(beta, n_max, window, cap)
    target_report = embdim_arc(alpha, n_max, window, cap)
    source_dim = f.source.declared_dim
    if source_dim is None:
        source_dim = source_report.arc_profile.betti
    smooth = _smooth_at_center(f, beta, source_dim)
    ineq = _at_most(source_report, target_report) and _at_most_sum(
        target_report, source_report, ord_jac
    )
    equality = None
    if smooth:
        if source_report.stabilized and target_report.stabilized and ord_jac.is_finite:
            equality = target_report.value == source_report.value + ord_jac.value
        else:
            # All quantities suspected infinite is consistent; a finite
            # side against an infinite one is not.
            equality = (not source_report.stabilized or not ord_jac.is_finite) == (
                not target_report.stabilized
            )
    return BtrReport(
        ord_jacobian=ord_jac,
        source=source_report,
        target=target_report,
        smooth_at_center=smooth,
        inequalities_hold=ineq,
        equality_holds=equality,
    )


def _resolve_divisor_var(source, divisor_var) -> int:
    if isinstance(divisor_var, str):
        try:
            return source.variables.index(divisor_var)
        except ValueError:
            raise InputError(f"divisor variable {divisor_var!r} is not a source variable")
    idx = int(divisor_var)
    if not 1 <= idx <= len(source.variables):
        raise InputError(f"divisor variable index {idx} out of range")
    return idx - 1


def divisorial_arc(
    f: MorphismPresentation,
    divisor_var,
    q: int,
    precision: int,
) -> tuple[Arc, Arc]:
    """Generic contact-order-q arc along a coordinate divisor, and its image.

    The source chart must be affine space; the divisor is the vanishing
    locus of one source coordinate.  The source arc carries one fresh
    transcendental per coefficient (the divisor coordinate starting at
    t^q), and the image arc is its pushforward.
    """
    if f.source.generators:
        raise InputError("divisorial arcs are built on a smooth affine-space chart")
    if q < 1:
        raise InputError("contact order q must be >= 1")
    j = _resolve_divisor_var(f.source, divisor_var)
    starts = [q if i == j else 0 for i in range(len(f.source.variables))]
    beta = generic_arc(f.source, starts, precision)
    alpha = push_arc(f, beta)
    return beta, alpha


@dataclass(frozen=True)
class MatherReport:
    """Embedding dimension at a maximal divisorial arc vs. the discrepancy formula."""

    q: int
    divisor_var: str
    ord_jacobian: int
    mather_discrepancy: int  # ord_jacobian / q
    source: StabilizationReport
    target: StabilizationReport
    expected_embdim: int  # q * (mather_discrepancy + 1)
    source_equals_q: bool
    target_matches: bool
    center_is_closed_point: bool
    target_dim: int | None
    dim_bound_holds: bool | None  # mather_discrepancy + 1 >= dim X, when applicable

    def to_json(self):
        return {
            "q": self.q,
            "divisor_var": self.divisor_var,
            "ord_jacobian": self.ord_jacobian,
            "mather_discrepancy": self.mather_discrepancy,
            "expected_embdim": self.expected_embdim,
            "embdim_source": self.source.to_json(),
            "embdim_target": self.target.to_json(),
            "source_equals_q": self.source_equals_q,
            "target_matches": self.target_matches,
            "center_is_closed_point": self.center_is_closed_point,
            "target_dim": self.target_dim,
            "dim_bound_holds": self.dim_bound_holds,
        }

    @property
    def passed(self) -> bool:
        ok = self.source_equals_q and self.target_matches
        if self.dim_bound_holds is not None:
            ok = ok and self.dim_bound_holds
        return ok


def mather_discrepancy_check(
    f: MorphismPresentation,
    divisor_var,
    q: int,
    precision: int,
    n_max: int = DEFAULT_N_MAX,
    window: int = DEFAULT_WINDOW,
    cap: int = PRECISION_CAP,
) -> MatherReport:
    """Build the maximal divisorial arc data and check the discrepancy formula.

    The embedding dimension at the image arc must be q times (Mather
    discrepancy + 1); the source arc itself must have embedding dimension
    q.  When the image arc is centered at a closed point, the discrepancy
    plus one must also bound the target dimension from below.
    """
    needed = max(precision, n_max + 2, 2 * q + 2)
    beta, alpha = divisorial_arc(f, divisor_var, q, needed)
    relative = relative_omega_presentation(f)
    rel_profile, beta = refined_pullback_profile(relative, beta, cap)
    ord_jac = rel_profile.fitting_invariant(0)
    if not ord_jac.is_finite:
        raise PrecisionLimited(
            "order of the morphism Jacobian is undetermined below the precision cap",
            bound=rel_profile.precision,
        )
    if ord_jac.value % q != 0:
        raise NonDivisibleJacobianOrder(ord_jac.value, q)
    khat = ord_jac.value // q
    source_report = embdim_arc(beta, n_max, window, cap)
    target_report = embdim_arc(alpha, n_max, window, cap)
    expected = q * (khat + 1)
    center = alpha.center()
    center_closed = all(c.is_constant() for c in center)
    target_dim = f.target.declared_dim
    if target_dim is None and not target_report.arc_profile.precision_limited:
        target_dim = target_report.arc_profile.betti
    bound = None
    if center_closed and target_dim is not None:
        bound = khat + 1 >= target_dim
    j = _resolve_divisor_var(f.source, divisor_var)
    return MatherReport(
        q=q,
        divisor_var=f.source.variables[j],
        ord_jacobian=ord_jac.value,
        mather_discrepancy=khat,
        source=source_report,
        target=target_report,
        expected_embdim=expected,
        source_equals_q=source_report.stabilized and source_report.value == q,
        target_matches=target_report.stabilized and target_report.value == expected,
        center_is_closed_point=center_closed,
        target_dim=target_dim,
        dim_bound_holds=bound,
    )
