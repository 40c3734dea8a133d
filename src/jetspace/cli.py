"""Command line front end.

Reads a JSON problem document, runs one analysis, and prints a report to
stdout as JSON (default) or a plain text rendering.  Reports never
contain timestamps and all ordering is fixed, so identical inputs produce
byte-identical output.

One table, ``COMMANDS``, drives parsing, parameters and reports.  A
command's flags are the parameters it reads, plus --strict and --format.

Exit codes: 0 success, 1 a usage, validation or domain error, a failing
catalog check, or a formula that disagrees with its oracle (``fiber-dim``,
``oracle-check``), 2 when --strict is set and the result is precision
limited.  A failed check takes precedence over --strict.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable

from .analysis import (
    DEFAULT_N_MAX,
    ORACLE_LEVELS,
    btr_check,
    divisorial_arc,
    embdim_arc,
    embdim_jet,
    jet_codim,
    mather_discrepancy_check,
    oracle_check,
    resolve_divisor_var,
)
from .document import PARAMETERS, load_document
from .errors import InputError, JetspaceError
from .invariants import refined_profile_of_omega
from .jets import jet_ideal
from .series import DEFAULT_PRECISION, PRECISION_CAP

REQUIRED = object()  # the default of a parameter that has none


@dataclass(frozen=True)
class Command:
    """One row of the command table.

    ``params`` maps each parameter the command reads to its default; an
    ``arc`` becomes the named arc (default: the first declared) built at
    ``precision``, and a ``divisor_var`` the source variable's name.
    ``run(doc, values, cap)`` calls the analysis, and ``body(result,
    values)`` follows the header naming the document's ``subject`` (None:
    no document).  A result that did not stabilize gets a note on the
    ``infinite`` quantity.  ``failed(result)`` is true when the result
    is a failed check; the command then exits 1 after printing its report.
    """

    help: str
    params: dict[str, Any]
    run: Callable
    body: Callable = lambda result, v: {"report": result.to_json()}
    subject: str | None = "variety"
    infinite: str | None = None
    failed: Callable = lambda result: False


def _catalog(doc, v, cap):
    # Only this command reads the catalog, so the other commands never import it.
    from .catalog import run_catalog

    return run_catalog()


def _profile(doc, v, cap):
    if v.n is None:
        return refined_profile_of_omega(v.arc, cap)[0]
    # A cap of n + 1 diagonalizes once, at the arc's precision.
    return refined_profile_of_omega(v.arc.with_precision(v.n + 1), v.n + 1)[0].at_level(v.n)


_ARC = {"arc": None, "precision": DEFAULT_PRECISION}
_STABILIZATION = {"n_max": DEFAULT_N_MAX}
_DIVISOR = {"q": REQUIRED, "divisor_var": REQUIRED}

COMMANDS = {
    "jet-ideal": Command(
        "equations of the level-n jet scheme",
        {"n": REQUIRED},
        lambda doc, v, cap: jet_ideal(doc.variety, v.n),
        lambda ideal, v: {
            "level": v.n,
            "variables": list(ideal.jet_variables),
            "generators": [[str(g) for g in row] for row in ideal.generators],
        },
    ),
    "profile": Command(
        "invariant factors and Fitting invariants along an arc",
        {**_ARC, "n": None},
        _profile,
        lambda profile, v: {"profile": profile.to_json()},
    ),
    "fiber-dim": Command(
        "fiber dimension of jet-scheme differentials, with oracle cross-check",
        {**_ARC, "n": REQUIRED},
        lambda doc, v, cap: oracle_check(v.arc, [v.n], cap)[0],
        lambda check, v: {"fiber_dim": check.fiber.to_json(), "oracle": check.to_json()},
        failed=lambda check: not check.match,
    ),
    "embdim-jet": Command(
        "embedding dimension of the jet scheme at a truncation",
        {**_ARC, "n": REQUIRED},
        lambda doc, v, cap: embdim_jet(v.arc, v.n, cap),
        lambda result, v: {"embdim_jet": result.to_json()},
    ),
    "embdim-arc": Command(
        "embedding dimension of the arc space at an arc",
        {**_ARC, **_STABILIZATION},
        lambda doc, v, cap: embdim_arc(v.arc, v.n_max, cap),
        infinite="embedding dimension",
    ),
    "jet-codim": Command(
        "jet codimension of an arc",
        {**_ARC, **_STABILIZATION, "dim_source": "betti"},
        lambda doc, v, cap: jet_codim(v.arc, v.dim_source, v.n_max, cap),
        infinite="jet codimension",
    ),
    "btr": Command(
        "birational transformation rule along a source arc",
        {**_ARC, **_STABILIZATION},
        lambda doc, v, cap: btr_check(doc.morphism, v.arc, v.n_max, cap),
        subject="morphism",
    ),
    "divisorial": Command(
        "build a maximal divisorial arc pair",
        {"precision": DEFAULT_PRECISION, **_DIVISOR},
        lambda doc, v, cap: divisorial_arc(doc.morphism, v.divisor_var, v.q, v.precision),
        lambda arcs, v: {
            "q": v.q,
            "divisor_var": v.divisor_var,
            "source_arc": [str(series) for series in arcs[0].expansions],
            "image_arc": [str(series) for series in arcs[1].expansions],
            "precision": arcs[0].precision,
        },
        subject="morphism",
    ),
    "mather-check": Command(
        "check the Mather-discrepancy embedding-dimension formula",
        {"precision": DEFAULT_PRECISION, **_STABILIZATION, **_DIVISOR},
        lambda doc, v, cap: mather_discrepancy_check(
            doc.morphism, v.divisor_var, v.q, v.precision, v.n_max, cap
        ),
        lambda result, v: {"report": result.to_json(), "passed": result.passed},
        subject="morphism",
    ),
    "oracle-check": Command(
        "fiber-dimension formula vs jet Jacobian corank",
        {**_ARC, "n": None},
        lambda doc, v, cap: oracle_check(v.arc, ORACLE_LEVELS if v.n is None else [v.n], cap),
        lambda checks, v: {
            "checks": [check.to_json() for check in checks],
            "all_match": all(check.match for check in checks),
        },
        failed=lambda checks: not all(check.match for check in checks),
    ),
    "catalog": Command(
        "run the built-in verification catalog",
        {},
        _catalog,
        lambda result, v: result.to_json(),
        subject=None,
        failed=lambda result: not result.passed,
    ),
}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an ``InputError`` instead of exiting with 2."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="jetspace",
        description="Exact invariants of arc spaces and jet schemes of affine varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, row in COMMANDS.items():
        p = sub.add_parser(name, help=row.help, allow_abbrev=False)
        if row.subject is not None:
            p.add_argument("document", help="JSON problem document")
        for key in row.params:
            spec = PARAMETERS[key]
            p.add_argument(
                spec.flag, dest=key, type=spec.flag_type, choices=spec.choices, help=spec.help
            )
        p.add_argument("--strict", action="store_true", help="exit 2 on precision-limited results")
        p.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def _param(args, doc, key: str, default):
    """Flag value, then the document's params, then default."""
    value = getattr(args, key)
    if value is None:
        value = doc.params.get(key)
    if value is None:
        if default is REQUIRED:
            flag = PARAMETERS[key].flag
            raise InputError(f"missing parameter {key!r} (flag {flag} or document params)")
        return default
    return PARAMETERS[key].check(value)


def _report(args, cap):
    """The report of ``args.command`` and the analysis result behind it."""
    row = COMMANDS[args.command]
    report = {"command": args.command}
    doc = None
    if row.subject is not None:
        doc = load_document(args.document)
        subject = getattr(doc, row.subject)
        if subject is None:
            raise InputError(f"document declares no {row.subject}")
        report[row.subject] = subject.name or row.subject
    v = argparse.Namespace(**{k: _param(args, doc, k, d) for k, d in row.params.items()})
    if "arc" in row.params:
        report["arc"] = doc.default_arc_name() if v.arc is None else v.arc
        v.arc = doc.build_arc(report["arc"], v.precision)
    if "divisor_var" in row.params:
        source = doc.morphism.source
        v.divisor_var = source.variables[resolve_divisor_var(source, v.divisor_var)]
    result = row.run(doc, v, cap)
    report.update(row.body(result, v))
    if row.infinite and not result.stabilized:
        report["note"] = f"suspected infinite {row.infinite} (did not stabilize)"
    return report, result


def _precision_cap() -> int:
    text = os.environ.get("JETSPACE_PRECISION_CAP") or str(PRECISION_CAP)
    if not text.strip().isdecimal() or not 2 <= int(text) <= PRECISION_CAP:
        raise InputError(f"JETSPACE_PRECISION_CAP={text!r} is not an integer in 2..{PRECISION_CAP}")
    return int(text)


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
    try:
        args = _parser().parse_args(argv)
        report, result = _report(args, _precision_cap())
    except SystemExit as stop:  # --help
        return stop.code
    except (JetspaceError, ValueError) as err:
        print(f"error[{type(err).__name__}]: {err}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    elif args.command == "catalog":
        print(_render_catalog_text(report))
    else:
        print("\n".join(_render_text(report)))
    if COMMANDS[args.command].failed(result):
        return 1
    # A result with no precision_limited (a jet ideal, an arc pair, the
    # catalog) involves no truncated order, so it is never limited.
    results = result if isinstance(result, (list, tuple)) else (result,)
    if args.strict and any(getattr(r, "precision_limited", False) for r in results):
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
