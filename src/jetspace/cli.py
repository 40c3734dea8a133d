"""Command line front end.

Reads a JSON problem document, dispatches one analysis, and prints a
report to stdout as JSON (default) or a plain text rendering.  Reports
never contain timestamps and all ordering is fixed, so identical inputs
produce byte-identical output.

Exit codes: 0 success, 1 validation or domain error, 2 when --strict is
set and the result is precision limited.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .analysis import (
    btr_check,
    divisorial_arc,
    embdim_arc,
    embdim_jet,
    fiber_dim_formula,
    jet_codim,
    mather_discrepancy_check,
    oracle_check,
)
from .catalog import run_catalog
from .document import ProblemDocument, load_document
from .errors import InputError, JetspaceError
from .invariants import profile_of_omega, refined_profile_of_omega
from .jets import jet_ideal
from .series import DEFAULT_PRECISION, PRECISION_CAP

_COMMANDS_NEEDING_DOCUMENT = (
    "jet-ideal",
    "profile",
    "fiber-dim",
    "embdim-jet",
    "embdim-arc",
    "jet-codim",
    "btr",
    "divisorial",
    "mather-check",
    "oracle-check",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetspace",
        description="Exact invariants of arc spaces and jet schemes of affine varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, needs_n=False):
        p = sub.add_parser(name, help=help_text)
        if name != "catalog":
            p.add_argument("document", help="JSON problem document")
            p.add_argument("--arc", help="arc name (default: first declared arc)")
            p.add_argument("--n", type=int, help="jet level")
            p.add_argument("--n-max", type=int, dest="n_max", help="stabilization horizon")
            p.add_argument("--window", type=int, help="stabilization window")
            p.add_argument("--precision", type=int, help="working precision in t")
            p.add_argument("--q", type=int, help="contact order for divisorial arcs")
            p.add_argument("--divisor-var", dest="divisor_var", help="divisor coordinate (name or 1-based index)")
            p.add_argument(
                "--dim-source",
                dest="dim_source",
                choices=("betti", "declared"),
                help="dimension source for jet codimension",
            )
        p.add_argument("--strict", action="store_true", help="exit 2 on precision-limited results")
        p.add_argument("--format", choices=("json", "text"), default="json")
        return p

    add("jet-ideal", "equations of the level-n jet scheme")
    add("profile", "invariant factors and Fitting invariants along an arc")
    add("fiber-dim", "fiber dimension of jet-scheme differentials, with oracle cross-check")
    add("embdim-jet", "embedding dimension of the jet scheme at a truncation")
    add("embdim-arc", "embedding dimension of the arc space at an arc")
    add("jet-codim", "jet codimension of an arc")
    add("btr", "birational transformation rule along a source arc")
    add("divisorial", "build a maximal divisorial arc pair")
    add("mather-check", "check the Mather-discrepancy embedding-dimension formula")
    add("oracle-check", "fiber-dimension formula vs jet Jacobian corank")
    add("catalog", "run the built-in verification catalog")
    return parser


def _param(args, doc: ProblemDocument | None, key: str, default=None, required=False):
    """Flag value, then the document's matching task/params, then default."""
    value = getattr(args, key, None)
    if value is None and doc is not None:
        for task in doc.tasks:
            if task.get("command") == args.command and key in task:
                value = task[key]
                break
    if value is None and doc is not None:
        value = doc.params.get(key)
    if value is None:
        value = default
    if value is None and required:
        raise InputError(f"missing parameter {key!r} (flag --{key.replace('_', '-')} or document params)")
    return value


def _arc_name(args, doc: ProblemDocument) -> str:
    name = _param(args, doc, "arc")
    return name if name is not None else doc.default_arc_name()


def _source_arc(args, doc: ProblemDocument, precision: int):
    if doc.morphism is None:
        raise InputError("document declares no morphism")
    name = _arc_name(args, doc)
    return doc.build_arc(name, precision), name


def _cmd_jet_ideal(args, doc, cap):
    n = int(_param(args, doc, "n", required=True))
    ideal = jet_ideal(doc.variety, n)
    report = {
        "command": "jet-ideal",
        "variety": doc.variety.name or "variety",
        "level": n,
        "variables": list(ideal.jet_variables),
        "generators": [[str(g) for g in row] for row in ideal.generators],
    }
    return report, False


def _cmd_profile(args, doc, cap):
    precision = int(_param(args, doc, "precision", DEFAULT_PRECISION))
    name = _arc_name(args, doc)
    arc = doc.build_arc(name, precision)
    n = _param(args, doc, "n")
    if n is None:
        profile, arc = refined_profile_of_omega(arc, cap)
    else:
        n = int(n)
        if arc.precision <= n:
            arc = arc.with_precision(n + 1)
        profile = profile_of_omega(arc, n)
    report = {
        "command": "profile",
        "variety": doc.variety.name or "variety",
        "arc": name,
        "profile": profile.to_json(),
    }
    return report, profile.precision_limited


def _cmd_fiber_dim(args, doc, cap):
    precision = int(_param(args, doc, "precision", DEFAULT_PRECISION))
    n = int(_param(args, doc, "n", required=True))
    name = _arc_name(args, doc)
    arc = doc.build_arc(name, precision)
    fiber = fiber_dim_formula(arc, n, cap)
    oracle = oracle_check(arc, n, cap)
    report = {
        "command": "fiber-dim",
        "variety": doc.variety.name or "variety",
        "arc": name,
        "fiber_dim": fiber.to_json(),
        "oracle": oracle.to_json(),
    }
    return report, fiber.arc_profile.precision_limited


def _cmd_embdim_jet(args, doc, cap):
    precision = int(_param(args, doc, "precision", DEFAULT_PRECISION))
    n = int(_param(args, doc, "n", required=True))
    name = _arc_name(args, doc)
    arc = doc.build_arc(name, precision)
    result = embdim_jet(arc, n, cap)
    report = {
        "command": "embdim-jet",
        "variety": doc.variety.name or "variety",
        "arc": name,
        "embdim_jet": result.to_json(),
    }
    return report, result.fiber.arc_profile.precision_limited


def _cmd_embdim_arc(args, doc, cap):
    precision = int(_param(args, doc, "precision", DEFAULT_PRECISION))
    n_max = int(_param(args, doc, "n_max", 12))
    window = int(_param(args, doc, "window", 3))
    name = _arc_name(args, doc)
    arc = doc.build_arc(name, precision)
    result = embdim_arc(arc, n_max, window, cap)
    report = {
        "command": "embdim-arc",
        "variety": doc.variety.name or "variety",
        "arc": name,
        "report": result.to_json(),
    }
    if result.suspected_infinite:
        report["note"] = "suspected infinite embedding dimension (did not stabilize)"
    return report, result.arc_profile.precision_limited


def _cmd_jet_codim(args, doc, cap):
    precision = int(_param(args, doc, "precision", DEFAULT_PRECISION))
    n_max = int(_param(args, doc, "n_max", 12))
    window = int(_param(args, doc, "window", 3))
    dim_source = _param(args, doc, "dim_source", "betti")
    name = _arc_name(args, doc)
    arc = doc.build_arc(name, precision)
    result = jet_codim(arc, dim_source, n_max, window, cap)
    report = {
        "command": "jet-codim",
        "variety": doc.variety.name or "variety",
        "arc": name,
        "report": result.to_json(),
    }
    if result.suspected_infinite:
        report["note"] = "suspected infinite jet codimension (did not stabilize)"
    return report, result.arc_profile.precision_limited


def _cmd_btr(args, doc, cap):
    precision = int(_param(args, doc, "precision", DEFAULT_PRECISION))
    n_max = int(_param(args, doc, "n_max", 12))
    window = int(_param(args, doc, "window", 3))
    beta, name = _source_arc(args, doc, precision)
    result = btr_check(doc.morphism, beta, n_max, window, cap)
    report = {
        "command": "btr",
        "morphism": doc.morphism.name or "morphism",
        "arc": name,
        "report": result.to_json(),
    }
    limited = (
        not result.ord_jacobian.is_finite
        or result.source.arc_profile.precision_limited
        or result.target.arc_profile.precision_limited
    )
    return report, limited


def _cmd_divisorial(args, doc, cap):
    if doc.morphism is None:
        raise InputError("document declares no morphism")
    precision = int(_param(args, doc, "precision", DEFAULT_PRECISION))
    q = int(_param(args, doc, "q", required=True))
    divisor_var = _param(args, doc, "divisor_var", required=True)
    beta, alpha = divisorial_arc(doc.morphism, divisor_var, q, precision)
    report = {
        "command": "divisorial",
        "morphism": doc.morphism.name or "morphism",
        "q": q,
        "divisor_var": str(divisor_var),
        "source_arc": [str(series) for series in beta.expansions],
        "image_arc": [str(series) for series in alpha.expansions],
        "precision": precision,
    }
    return report, False


def _cmd_mather_check(args, doc, cap):
    if doc.morphism is None:
        raise InputError("document declares no morphism")
    precision = int(_param(args, doc, "precision", DEFAULT_PRECISION))
    n_max = int(_param(args, doc, "n_max", 12))
    window = int(_param(args, doc, "window", 3))
    q = int(_param(args, doc, "q", required=True))
    divisor_var = _param(args, doc, "divisor_var", required=True)
    result = mather_discrepancy_check(doc.morphism, divisor_var, q, precision, n_max, window, cap)
    report = {
        "command": "mather-check",
        "morphism": doc.morphism.name or "morphism",
        "report": result.to_json(),
        "passed": result.passed,
    }
    return report, False


def _cmd_oracle_check(args, doc, cap):
    precision = int(_param(args, doc, "precision", DEFAULT_PRECISION))
    name = _arc_name(args, doc)
    arc = doc.build_arc(name, precision)
    n = _param(args, doc, "n")
    levels = [int(n)] if n is not None else list(range(7))
    results = [oracle_check(arc, level, cap) for level in levels]
    report = {
        "command": "oracle-check",
        "variety": doc.variety.name or "variety",
        "arc": name,
        "checks": [r.to_json() for r in results],
        "all_match": all(r.match for r in results),
    }
    return report, any(r.precision_limited for r in results)


def _cmd_catalog(args, doc, cap):
    result = run_catalog()
    report = {"command": "catalog"}
    report.update(result.to_json())
    return report, False


_DISPATCH = {
    "jet-ideal": _cmd_jet_ideal,
    "profile": _cmd_profile,
    "fiber-dim": _cmd_fiber_dim,
    "embdim-jet": _cmd_embdim_jet,
    "embdim-arc": _cmd_embdim_arc,
    "jet-codim": _cmd_jet_codim,
    "btr": _cmd_btr,
    "divisorial": _cmd_divisorial,
    "mather-check": _cmd_mather_check,
    "oracle-check": _cmd_oracle_check,
    "catalog": _cmd_catalog,
}


def _render_text(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, (dict, list)) and item:
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(item, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar_text(item)}")
    elif isinstance(value, list):
        if all(not isinstance(item, (dict, list)) for item in value):
            lines.append(f"{pad}{_scalar_text(value)}")
        else:
            for i, item in enumerate(value):
                lines.append(f"{pad}- [{i}]")
                lines.extend(_render_text(item, indent + 1))
    else:
        lines.append(f"{pad}{_scalar_text(value)}")
    return lines


def _scalar_text(value) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(_scalar_text(v) for v in value) + "]"
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def _render_catalog_text(report) -> str:
    lines = []
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        lines.append(f"{status}  {check['name']}  ({check['cases']} cases)")
        if not check["passed"]:
            lines.extend(_render_text(check["details"], indent=1))
    lines.append("overall: " + ("PASS" if report["passed"] else "FAIL"))
    return "\n".join(lines)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cap_env = os.environ.get("JETSPACE_PRECISION_CAP")
    try:
        cap = int(cap_env) if cap_env else PRECISION_CAP
        if cap < 2:
            raise InputError("JETSPACE_PRECISION_CAP must be >= 2")
        doc = None
        if args.command in _COMMANDS_NEEDING_DOCUMENT:
            doc = load_document(args.document)
        report, limited = _DISPATCH[args.command](args, doc, cap)
    except JetspaceError as err:
        print(f"error[{type(err).__name__}]: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"error[ValueError]: {err}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    elif args.command == "catalog":
        print(_render_catalog_text(report))
    else:
        print("\n".join(_render_text(report)))
    if limited and args.strict:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
