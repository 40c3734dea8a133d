"""Command line interface: dispatch, parameters, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from jetspace.analysis import DEFAULT_N_MAX
from jetspace.cli import COMMANDS, main
from jetspace.document import PARAMETERS
from jetspace.exprs import MAX_LITERAL_DIGITS
from jetspace.series import DEFAULT_PRECISION, PRECISION_CAP

CUSP_DOC = {
    "field": "rationals",
    "variety": {
        "name": "cusp",
        "variables": ["x", "y"],
        "generators": ["y^2 - x^3"],
        "declared_dim": 1,
    },
    "arcs": {"main": {"components": ["t^2", "t^3"]}},
    "params": {"n": 3},
}

WHITNEY_DOC = {
    "field": "rationals",
    "variety": {
        "name": "whitney",
        "variables": ["x", "y", "z"],
        "generators": ["x*y^2 - z^2"],
        "declared_dim": 2,
    },
    "arcs": {
        "singular-generic": {"components": [{"generic": {"start": 1}}, "0", "0"]},
        "off-axis": {"components": ["1", "t", "t"]},
    },
}

BLOWUP_DOC = {
    "field": "rationals",
    "variety": {"name": "plane", "variables": ["x", "y"], "declared_dim": 2},
    "morphism": {
        "name": "blowup",
        "source": {"name": "chart", "variables": ["u", "v"], "declared_dim": 2},
        "components": ["u", "u*v"],
    },
    "arcs": {
        "contact1": {
            "on": "source",
            "components": [{"generic": {"start": 1}}, {"generic": {"start": 0}}],
        }
    },
}


def _write(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fiber_dim_with_oracle(tmp_path, capsys):
    path = _write(tmp_path, CUSP_DOC)
    code, out, _ = _run(capsys, ["fiber-dim", path, "--n", "3"])
    assert code == 0
    report = json.loads(out)
    assert report["fiber_dim"]["value"] == 7
    assert report["oracle"]["match"] is True


def test_fiber_dim_evaluates_the_formula_once(tmp_path, capsys, monkeypatch):
    from jetspace import analysis

    calls = []
    refine = analysis.refined_profile_of_omega
    monkeypatch.setattr(analysis, "refined_profile_of_omega", lambda *a: calls.append(a) or refine(*a))
    path = _write(tmp_path, CUSP_DOC)
    assert _run(capsys, ["fiber-dim", path, "--n", "3"])[0] == 0
    assert len(calls) == 1


def test_mather_check_pushes_once_and_refines_three_times(capsys, monkeypatch):
    from jetspace import analysis, invariants

    pushes, refines = [], []
    push, refine = analysis.push_arc, invariants.refined_pullback_profile
    monkeypatch.setattr(analysis, "push_arc", lambda *a: pushes.append(a) or push(*a))
    counted = lambda *a: refines.append(a) or refine(*a)
    monkeypatch.setattr(analysis, "refined_pullback_profile", counted)
    monkeypatch.setattr(invariants, "refined_pullback_profile", counted)
    path = str(PROBLEMS / "blowup-plane.json")
    assert _run(capsys, ["mather-check", path, "--q", "2", "--divisor-var", "u"])[0] == 0
    assert (len(pushes), len(refines)) == (1, 3)


def test_parameter_falls_back_to_document(tmp_path, capsys):
    path = _write(tmp_path, CUSP_DOC)
    code, out, _ = _run(capsys, ["fiber-dim", path])
    assert code == 0
    assert json.loads(out)["fiber_dim"]["level"] == 3


def test_profile_command(tmp_path, capsys):
    path = _write(tmp_path, CUSP_DOC)
    code, out, _ = _run(capsys, ["profile", path, "--arc", "main"])
    assert code == 0
    report = json.loads(out)
    assert report["profile"]["free_rank"] == 1
    assert report["profile"]["factors"] == [3]


def test_jet_ideal_command(tmp_path, capsys):
    path = _write(tmp_path, CUSP_DOC)
    code, out, _ = _run(capsys, ["jet-ideal", path, "--n", "1"])
    assert code == 0
    report = json.loads(out)
    assert report["variables"] == ["x[0]", "x[1]", "y[0]", "y[1]"]
    assert len(report["generators"][0]) == 2


def test_embdim_arc_suspected_infinite(tmp_path, capsys):
    path = _write(tmp_path, WHITNEY_DOC)
    code, out, _ = _run(
        capsys, ["embdim-arc", path, "--arc", "singular-generic", "--precision", "16"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["report"]["verdict"] == "NotStabilizedUpTo(12)"
    assert "suspected infinite" in report["note"]


def test_strict_mode_flags_precision_limited(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("JETSPACE_PRECISION_CAP", "48")
    path = _write(tmp_path, WHITNEY_DOC)
    code, out, _ = _run(
        capsys, ["profile", path, "--arc", "singular-generic", "--strict"]
    )
    assert code == 2
    assert json.loads(out)["profile"]["precision_limited"] is True


def test_strict_oracle_check_flags_precision_limited(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("JETSPACE_PRECISION_CAP", "48")
    path = _write(tmp_path, WHITNEY_DOC)
    argv = ["oracle-check", path, "--arc", "singular-generic", "--n", "2"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    strict_code, strict_out, _ = _run(capsys, argv + ["--strict"])
    assert strict_code == 2
    assert strict_out == out
    assert json.loads(out)["all_match"] is True


CUSP_NORMALIZATION_DOC = {
    "field": "rationals",
    "variety": {
        "name": "cusp",
        "variables": ["x", "y"],
        "generators": ["y^2 - x^3"],
        "declared_dim": 1,
    },
    "morphism": {
        "name": "normalization",
        "source": {"name": "line", "variables": ["u"], "declared_dim": 1},
        "components": ["u^2", "u^3"],
    },
}


def test_strict_mather_check_flags_precision_limited(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("JETSPACE_PRECISION_CAP", "24")
    path = _write(tmp_path, CUSP_NORMALIZATION_DOC)
    argv = ["mather-check", path, "--q", "9", "--divisor-var", "u"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    strict_code, strict_out, _ = _run(capsys, argv + ["--strict"])
    assert strict_code == 2
    assert strict_out == out
    target = json.loads(out)["report"]["embdim_target"]
    assert target["precision"] == {"kind": "at_least", "bound": 24}


def test_strict_mather_check_passes_when_exact(tmp_path, capsys):
    path = _write(tmp_path, BLOWUP_DOC)
    argv = ["mather-check", path, "--q", "2", "--divisor-var", "u", "--strict"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_btr_command(tmp_path, capsys):
    path = _write(tmp_path, BLOWUP_DOC)
    code, out, _ = _run(capsys, ["btr", path, "--arc", "contact1", "--n-max", "8"])
    assert code == 0
    report = json.loads(out)["report"]
    assert report["equality_holds"] is True
    assert report["embdim_target"]["value"] == 2


def test_mather_command(tmp_path, capsys):
    path = _write(tmp_path, BLOWUP_DOC)
    code, out, _ = _run(
        capsys, ["mather-check", path, "--q", "2", "--divisor-var", "u"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["report"]["expected_embdim"] == 4


def test_divisorial_command(tmp_path, capsys):
    path = _write(tmp_path, BLOWUP_DOC)
    code, out, _ = _run(
        capsys, ["divisorial", path, "--q", "1", "--divisor-var", "u", "--precision", "8"]
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["source_arc"]) == 2
    assert len(report["image_arc"]) == 2


def test_divisorial_arc_is_built_to_show_its_contact_order(capsys):
    # Precision 2q + 2 over the default 24, as mather-check builds it.
    path = str(PROBLEMS / "blowup-plane.json")
    code, out, _ = _run(capsys, ["divisorial", path, "--q", "30", "--divisor-var", "u"])
    assert code == 0
    report = json.loads(out)
    assert report["precision"] == 62
    assert report["source_arc"][0].startswith("u1_30*t^30 + ")
    assert report["image_arc"][0].startswith("u1_30*t^30 + ")


def test_oracle_check_all_levels(tmp_path, capsys):
    doc = {k: v for k, v in CUSP_DOC.items() if k != "params"}
    path = _write(tmp_path, doc)
    code, out, _ = _run(capsys, ["oracle-check", path])
    assert code == 0
    report = json.loads(out)
    assert report["all_match"] is True
    assert [c["level"] for c in report["checks"]] == list(range(7))


def test_oracle_check_refines_the_arc_once_for_all_levels(tmp_path, capsys, monkeypatch):
    from jetspace import analysis

    calls = []
    refine = analysis.refined_profile_of_omega
    monkeypatch.setattr(analysis, "refined_profile_of_omega", lambda *a: calls.append(a) or refine(*a))
    monkeypatch.setenv("JETSPACE_PRECISION_CAP", "48")
    path = _write(tmp_path, WHITNEY_DOC)
    code, out, _ = _run(capsys, ["oracle-check", path, "--arc", "singular-generic", "--strict"])
    assert code == 2
    assert len(json.loads(out)["checks"]) == 7
    assert len(calls) == 1


def test_negative_declared_dim_is_an_input_error(tmp_path, capsys):
    doc = json.loads(json.dumps(CUSP_DOC))
    doc["variety"]["declared_dim"] = -2
    path = _write(tmp_path, doc)
    code, _, err = _run(capsys, ["jet-codim", path, "--dim-source", "declared"])
    assert code == 1
    assert err.startswith("error[InputError]: variety.declared_dim")


def test_validation_error_exit_code(tmp_path, capsys):
    doc = dict(CUSP_DOC)
    doc["arcs"] = {"bad": {"components": ["t^2", "t^2"]}}
    path = _write(tmp_path, doc)
    code, out, err = _run(capsys, ["profile", path, "--arc", "bad"])
    assert code == 1
    assert "NotOnVariety" in err


def test_parse_error_exit_code(tmp_path, capsys):
    doc = dict(CUSP_DOC)
    doc["variety"] = {
        "variables": ["x", "y"],
        "generators": ["y^2 - w^3"],
        "declared_dim": 1,
    }
    path = _write(tmp_path, doc)
    code, out, err = _run(capsys, ["profile", path])
    assert code == 1
    assert "ParseError" in err and "column" in err


@pytest.mark.parametrize(
    "doc, error",
    [
        (dict(CUSP_DOC, field={"prime": True}), "error[InputError]: field.prime: expected an integer"),
        (
            dict(CUSP_DOC, arcs={"main": {"components": ["1/0", "t^3"]}}),
            "error[ParseError]: division by zero at column 3 in arcs.main.components[0]",
        ),
        (
            {"field": {"prime": 5}, "variety": {"variables": ["x"], "generators": ["x/5"]}},
            "error[ParseError]: division by zero at column 3 in variety.generators[0]",
        ),
    ],
    ids=["bool-prime", "series-division-by-zero", "literal-divisor-zero-mod-p"],
)
def test_bool_prime_and_zero_divisor_exit_with_typed_errors(tmp_path, capsys, doc, error):
    code, out, err = _run(capsys, ["profile", _write(tmp_path, doc)])
    assert (code, out) == (1, "")
    assert err.startswith(error)


@pytest.mark.parametrize(
    "doc, message",
    [
        (dict(CUSP_DOC, arcs={"main": 5}), "arcs.main: expected an object"),
        (
            dict(CUSP_DOC, variety={"variables": ["x", "y"], "generator": ["y^2 - x^3"]}),
            "variety.generator: unknown key",
        ),
        # A parameter comes from a flag or params, and a morphism maps into the document's variety.
        (
            dict(CUSP_DOC, tasks=[{"command": "profile", "n": 1}]),
            "document.tasks: unknown key (known: field, transcendentals, variety, morphism, arcs, params)\n",
        ),
        (
            dict(BLOWUP_DOC, morphism={**BLOWUP_DOC["morphism"], "target": BLOWUP_DOC["variety"]}),
            "morphism.target: unknown key (known: name, source, components)\n",
        ),
        (
            dict(CUSP_DOC, params={"window": 3}),
            "params.window: unknown key (known: n, n_max, precision, q, divisor_var, arc, dim_source)\n",
        ),
    ],
)
def test_malformed_document_exits_with_an_input_error(tmp_path, capsys, doc, message):
    code, out, err = _run(capsys, ["profile", _write(tmp_path, doc)])
    assert (code, out) == (1, "")
    assert err.startswith(f"error[InputError]: {message}")


@pytest.mark.parametrize(
    "doc, argv, key",
    [
        (CUSP_DOC, ["profile", "--precision", "193"], "precision"),
        (CUSP_DOC, ["fiber-dim", "--n", "192"], "n"),
        (CUSP_DOC, ["embdim-arc", "--n-max", "191"], "n_max"),
        (BLOWUP_DOC, ["divisorial", "--q", "96", "--divisor-var", "u"], "q"),
        (dict(CUSP_DOC, params={"n": 10**9}), ["fiber-dim"], "n"),
        (dict(CUSP_DOC, params={"precision": 10**6}), ["profile"], "precision"),
        # The longest JSON integer a document may hold.
        (dict(CUSP_DOC, params={"n": 10**MAX_LITERAL_DIGITS - 1}), ["fiber-dim"], "n"),
    ],
)
def test_numeric_parameter_above_ceiling_rejected(tmp_path, capsys, doc, argv, key):
    # Rejection only: the value is refused before any computation starts.
    path = _write(tmp_path, doc)
    code, out, err = _run(capsys, [argv[0], path] + argv[1:])
    assert code == 1
    assert out == ""
    assert "error[InputError]" in err
    assert f"parameter {key!r}" in err and f"ceiling {PARAMETERS[key].ceiling}" in err


def test_json_integer_above_literal_ceiling_rejected(tmp_path, capsys):
    digits = MAX_LITERAL_DIGITS + 1
    path = _write(tmp_path, dict(CUSP_DOC, params={"n": 10**digits - 1}))
    code, out, err = _run(capsys, ["fiber-dim", path])
    assert (code, out) == (1, "")
    assert err == f"error[InputError]: {path}: integer of {digits} digits exceeds the maximum {MAX_LITERAL_DIGITS}\n"


def test_parameter_ceilings_cover_shipped_values():
    assert PARAMETERS["precision"].ceiling == PRECISION_CAP
    assert DEFAULT_PRECISION <= PARAMETERS["precision"].ceiling
    assert DEFAULT_N_MAX <= PARAMETERS["n_max"].ceiling
    # The highest jet level and contact order the benchmark queries.
    assert PARAMETERS["n"].ceiling >= 24 and PARAMETERS["q"].ceiling >= 3
    problems = Path(__file__).resolve().parent.parent / "problems"
    for path in sorted(problems.glob("*.json")):
        doc = json.loads(path.read_text())
        values = doc.get("params", {})
        for key, spec in PARAMETERS.items():
            if key in values and spec.ceiling is not None:
                assert int(values[key]) <= spec.ceiling, (path.name, key)


def test_text_format(tmp_path, capsys):
    path = _write(tmp_path, CUSP_DOC)
    code, out, _ = _run(capsys, ["fiber-dim", path, "--n", "3", "--format", "text"])
    assert code == 0
    assert "value: 7" in out
    assert "match: yes" in out


def test_report_json_round_trips(tmp_path, capsys):
    path = _write(tmp_path, CUSP_DOC)
    code, first, _ = _run(capsys, ["profile", path])
    code2, second, _ = _run(capsys, ["profile", path])
    assert code == code2 == 0
    assert first == second
    assert json.loads(first) == json.loads(second)


CUSP_PROBLEM = str(Path(__file__).resolve().parent.parent / "problems" / "cusp.json")


@pytest.mark.parametrize(
    "argv, verdict",
    [
        (["oracle-check", CUSP_PROBLEM, "--arc", "main", "--n", "3"], lambda r: r["all_match"]),
        (["oracle-check", CUSP_PROBLEM, "--arc", "main"], lambda r: r["all_match"]),
        (["fiber-dim", CUSP_PROBLEM, "--arc", "main", "--n", "3"], lambda r: r["oracle"]["match"]),
    ],
    ids=["oracle-check-n3", "oracle-check-all-levels", "fiber-dim-n3"],
)
def test_oracle_mismatch_exits_one(capsys, monkeypatch, argv, verdict):
    from jetspace import analysis

    corank = analysis.jet_jacobian_corank
    assert _run(capsys, argv)[0] == 0
    monkeypatch.setattr(analysis, "jet_jacobian_corank", lambda *a: [c + 1 for c in corank(*a)])
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert err == ""
    assert verdict(json.loads(out)) is False


def test_oracle_mismatch_exits_one_under_strict(tmp_path, capsys, monkeypatch):
    # Unpatched, this check matches and is precision limited, so --strict
    # exits 2 (test_strict_oracle_check_flags_precision_limited); a failed
    # check takes precedence.
    from jetspace import analysis

    corank = analysis.jet_jacobian_corank
    monkeypatch.setattr(analysis, "jet_jacobian_corank", lambda *a: [c + 1 for c in corank(*a)])
    monkeypatch.setenv("JETSPACE_PRECISION_CAP", "48")
    path = _write(tmp_path, WHITNEY_DOC)
    argv = ["oracle-check", path, "--arc", "singular-generic", "--n", "2"]
    code, out, _ = _run(capsys, argv)
    strict_code, strict_out, _ = _run(capsys, argv + ["--strict"])
    assert (code, strict_code) == (1, 1)
    assert strict_out == out
    assert json.loads(out)["all_match"] is False


def test_catalog_exits_one_when_a_check_fails(capsys, monkeypatch):
    from jetspace import catalog

    def failing_check():
        return catalog.CheckResult("always-fails", False, 1, {"reason": "injected"})

    monkeypatch.setattr(catalog, "_ALL_CHECKS", (("always-fails", failing_check),))
    code, out, _ = _run(capsys, ["catalog", "--format", "text"])
    assert code == 1
    assert out.splitlines()[0] == "FAIL  always-fails  (1 cases)"
    assert out.splitlines()[-1] == "overall: FAIL"
    json_code, json_out, _ = _run(capsys, ["catalog"])
    assert json_code == 1
    assert json.loads(json_out)["passed"] is False


# sha256 of the text output and the exit code of each command on the shipped
# problem documents (the --strict entries pin the precision-limited exit).  jet-ideal and divisorial render polynomial and
# field-element strings, so a kernel change that alters a representative
# shows up here even when the catalog bytes do not move.
PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
GOLDEN_OUTPUTS = [
    ("blowup-plane.json", ("jet-ideal", "--n", "3"), 0, "1f132028ef1b23d31262ea9b8c0c1881acb9153017d217ced07a47c8f55e8445"),
    ("blowup-plane.json", ("jet-ideal", "--n", "12"), 0, "499cb65df2655cdc49171193ca3692a3c1c7f8a3ca404de57f72eb5632f7c00f"),
    ("blowup-plane.json", ("profile", "--arc", "contact1"), 0, "7e9b50f0ab414322d4e6808ea047242becfcd740d74b30c34de599cbb5450fb7"),
    ("blowup-plane.json", ("embdim-arc", "--arc", "contact1"), 0, "63a7bca10b2d1bebdd125086387e76da95490d1e9bd002e7aa96ab26a8b77c0f"),
    ("blowup-plane.json", ("divisorial",), 0, "460f47225e8c816331b56cd12782e32e1f55a1466f79cb5cb4e2426c1845d685"),
    ("blowup-plane.json", ("divisorial", "--q", "2"), 0, "683801a5f90c7c6fc82d745411f6bada5f89d967048b67e9e4f57c8a204edb85"),
    ("cusp.json", ("jet-ideal", "--n", "3"), 0, "c92931a085cc44305482299f247e5e409be4f269258a0d76ac41543a73b3c5db"),
    ("cusp.json", ("jet-ideal", "--n", "12"), 0, "95906274a597b24b79ed25d2f7c6a80d66d8f3dd23e06966c376e0f012eebb19"),
    ("cusp.json", ("profile", "--arc", "main"), 0, "ad3e89b1320b91251be7c754e4f61839d13a3a426863dbd2ae4a1b068e9715d5"),
    ("cusp.json", ("embdim-arc", "--arc", "main"), 0, "f1757fe80c7e36e9c7b5acbd9cd1eec6c89ca2d1975ef5c7170ac91775ab9ef6"),
    ("cusp.json", ("profile", "--arc", "unit-branch"), 0, "381aea1144fda6a08b109a1d7da03c5cafa1d0108453efedd950775a77fd56bf"),
    ("cusp.json", ("embdim-arc", "--arc", "unit-branch"), 0, "10b9fb5695e19555e83d5f1eed28f6d4a89732d36c7c72ddfa19e8150487c364"),
    ("umbrella-char2.json", ("jet-ideal", "--n", "3"), 0, "d4abc5de71a7ba77ba3cf413fb0791d7da55e56c2bb8439edeb0c6a8ec939b2f"),
    ("umbrella-char2.json", ("jet-ideal", "--n", "12"), 0, "23f1ab0761a7b18d8554aa841301e33367c9438198e19d875348095a438a559b"),
    ("umbrella-char2.json", ("profile", "--arc", "off"), 0, "6137f8c430f295a3b37cd4dddfdc9c7f8bbdc8c716d8e5cbb6128a3cca44c75a"),
    ("umbrella-char2.json", ("embdim-arc", "--arc", "off"), 0, "87cf76632626ff320c4956167fe6e2df11aaa666653cf31b40913638651ce064"),
    ("umbrella-char2.json", ("profile", "--arc", "singular-jet"), 0, "ed21d3ed37ed96f122f697bf9d0d683ee20bd39f1ca6bc8d73b2a604a318baee"),
    ("umbrella-char2.json", ("embdim-arc", "--arc", "singular-jet"), 0, "6634cba80c2d7e99cf4bc38ad53eb1e189429390b1f703799e2d913ec94bfd21"),
    ("whitney.json", ("jet-ideal", "--n", "3"), 0, "2a9c832e5a52a36ba937712ba6b2a5a77a509bbfbe0c28c0bdb1b0a9758b0c99"),
    ("whitney.json", ("jet-ideal", "--n", "12"), 0, "a5d917c83e3790c669deb5d424c6b4540e2fc174d69d44ca7e05cc777be3ee18"),
    ("whitney.json", ("profile", "--arc", "off-axis"), 0, "f02f3acd3ee5d3a228344ae638dd41492d59bd1409eab9a753e1bc67e8c28460"),
    ("whitney.json", ("embdim-arc", "--arc", "off-axis"), 0, "2b6f14f67dc29ab2ca850b7ebd4b7de62f21eef40b8fac107ca44fc9ef2d979d"),
    ("whitney.json", ("profile", "--arc", "through-origin"), 0, "d1d7662644cda46ee18d8d984ee5a09a09161ac6374cdce323d81e2138c73e07"),
    ("whitney.json", ("embdim-arc", "--arc", "through-origin"), 0, "f0248ff184d456243a83cb6cc580634168cbf4982b50b9a6b5a8fa02c1cd53b8"),
    ("whitney.json", ("profile", "--arc", "singular-jet"), 0, "1713547a6937dd93fe99a327bd6f61f06d9ef3603f09c786795732a01876357c"),
    ("whitney.json", ("embdim-arc", "--arc", "singular-jet"), 0, "6f65f7ab9aa123c27bf033a03dd46e63c8d0b1613ee0999853b37f1beae4ea7e"),
    ("whitney.json", ("profile", "--arc", "singular-generic"), 0, "1b4f9ab545f5c7c47732301f5aa5e0a1071747f8234566686813380da9b02fda"),
    ("whitney.json", ("embdim-arc", "--arc", "singular-generic"), 0, "92de045f1e0706ff6d8cde4f105dee0a18f63fadba497c39d34bb6a32b270fc7"),
    ("blowup-plane.json", ("btr", "--arc", "contact1"), 0, "91d443122ed18f8b731f2e47d9475f59ce40cdd0b01fc16fffb68da3031f1c2f"),
    ("blowup-plane.json", ("btr", "--arc", "contact1", "--n-max", "6", "--strict"), 0, "235c14bf01b7e3d637d338ecbc4aa5533aba220229aa27abcb6de74336f86f9a"),
    ("blowup-plane.json", ("mather-check",), 0, "94e0566dc24f7a071e23b380d86e72147141bdf3a6959216ddc1ec8acba20808"),
    ("blowup-plane.json", ("mather-check", "--q", "2", "--strict"), 0, "1d2dfe4883a372c8919ecc205c3a3d9d8fda6ec307bac33d4af8c450ada90069"),
    ("blowup-plane.json", ("mather-check", "--q", "1", "--divisor-var", "v"), 0, "ecca085097649d19bbdcbff04dfacecf9bb804538bb23d99b502e189bd7201d7"),
    ("cusp.json", ("fiber-dim", "--arc", "main"), 0, "db1ec14ecb42118cac8e9706b1dc56113bab135bffbb7b7e4ababaca6593aa5a"),
    ("cusp.json", ("fiber-dim", "--arc", "unit-branch", "--n", "4"), 0, "c29f16ecd9395f204b225766897e5a10c01e192e393aeb94b945bceb28571149"),
    ("cusp.json", ("embdim-jet", "--arc", "main", "--n", "5"), 0, "49ce770cf56bc530f7954548cf1a1a40bfdd640e449f273c613d82259b07ad66"),
    ("cusp.json", ("embdim-jet", "--arc", "unit-branch"), 0, "5919e6d122d42bbe54a37d42370831d3ecabe4c53c0b40de4e451ff92e9c964a"),
    ("cusp.json", ("jet-codim", "--arc", "main"), 0, "f9550a1818a6c5f56384c4817e4dc12d6f3329278dd9363762dfd3031f9ef608"),
    ("cusp.json", ("jet-codim", "--arc", "unit-branch", "--dim-source", "declared"), 0, "9e1c48dab6ff05c342c7339c78b5d4fd38bfba4215383bcc5f4676762c8c4468"),
    ("cusp.json", ("oracle-check", "--arc", "main"), 0, "bf0170b386a57e2b79182543a5380da528bb1c498715689ecc9690482d2fd69b"),
    ("cusp.json", ("oracle-check", "--arc", "unit-branch", "--n", "3"), 0, "504437f7a7703faf5f2ef4631bd080c2ce09c26aedff8e175d400812a0bf5588"),
    ("umbrella-char2.json", ("fiber-dim", "--arc", "off", "--n", "3"), 0, "bbe3bbf2d4ab6f5815c4ceda3f37c0afd2fe4724f1afa945387f14f920b7942b"),
    ("umbrella-char2.json", ("embdim-jet", "--arc", "singular-jet", "--n", "3"), 0, "6bdbb510e3cca8ece241b72a20489bab65b992628deddd80995a34f2e27a3d26"),
    ("umbrella-char2.json", ("jet-codim", "--arc", "off", "--dim-source", "declared"), 0, "fcb1343943cfd398c7e950ded03b2b13c18f68eb0ba0a81de56c493138e5d7f0"),
    ("umbrella-char2.json", ("jet-codim", "--arc", "singular-jet", "--strict"), 2, "fa16b11776052cdf894bce2dcd00a3bb2f7ed9daf9aa41b4d2790832ee2d7706"),
    ("umbrella-char2.json", ("oracle-check", "--arc", "off", "--n", "4"), 0, "96ea1b08c79690d9041d415b48d6c03f9d7a8864ce0afa09070f47612c18ccb3"),
    ("whitney.json", ("fiber-dim", "--arc", "through-origin", "--n", "3"), 0, "53d80b2df3aaa97f149bb976793225ebf46f391553b187bd58dd4e8209274747"),
    ("whitney.json", ("fiber-dim", "--arc", "singular-jet", "--n", "2", "--strict"), 2, "830231ad86da60cba738db78c4c3ccacf5de83c1880552de9af4a71b46efafd8"),
    ("whitney.json", ("embdim-jet", "--arc", "singular-jet", "--n", "2"), 0, "c6faa4f72fb6ef30a1f3d4eb56ec7cfb33ef4c628c93b52b455a26ad6580414b"),
    ("whitney.json", ("embdim-jet", "--arc", "singular-generic", "--n", "1", "--strict"), 2, "38f584f520754e8c14861088cab1edf2352d3b725b1408e20a5e77e724bebd08"),
    ("whitney.json", ("jet-codim", "--arc", "off-axis", "--dim-source", "declared"), 0, "50a2ae44258897f0038c4aba29d13d44ade5e99ae34334d517b853d2db0f4f81"),
    ("whitney.json", ("jet-codim", "--arc", "singular-jet", "--strict"), 2, "928c65420ea86aca206c1694618dead8e01a117752306edecf433eae5d84b2b7"),
    ("whitney.json", ("oracle-check", "--arc", "through-origin", "--n", "2"), 0, "aee04aa6275b5aee3dcb02fc35e45074866f7d12a8799a844a7ca70d811f3f0a"),
    ("whitney.json", ("oracle-check", "--arc", "singular-generic", "--n", "1", "--strict"), 2, "c059acfde21d94dbc01c1f1cd9d800e194babc77cb3dc844287b8da1247f8917"),
]


@pytest.mark.parametrize(
    "document, argv, expected_code, expected_sha256",
    GOLDEN_OUTPUTS,
    ids=[f"{doc[:-5]}:{' '.join(argv)}" for doc, argv, _, _ in GOLDEN_OUTPUTS],
)
def test_golden_text_output(capsys, document, argv, expected_code, expected_sha256):
    command, *flags = argv
    code, out, _ = _run(capsys, [command, str(PROBLEMS / document), *flags, "--format", "text"])
    assert code == expected_code
    assert hashlib.sha256(out.encode()).hexdigest() == expected_sha256


def test_golden_outputs_cover_every_problem_document():
    covered = {doc for doc, _, _, _ in GOLDEN_OUTPUTS}
    assert covered == {path.name for path in PROBLEMS.glob("*.json")}


# sha256 of the JSON output of jet-ideal at level 12 on each shipped problem
# document: its equations are truncated-series products of polynomials.
GOLDEN_JET_IDEAL_JSON = [
    ("blowup-plane.json", "59e28ddf50e89a24ae10b7aca4f82f5ee521679c6da26d64d07d9aa1712d69d2"),
    ("cusp.json", "163a896a079184cffea576ac8c81d893cf073c52219df708eaa2802089e359e9"),
    ("umbrella-char2.json", "76dbfd497e15af0a8e8f25f3e136d2864c4d2be6d172f9c1e4973562069a89bd"),
    ("whitney.json", "e3704e678fcd80700667b07e830d3ac593f920e9c9be234b69caf634cb7970d1"),
]


@pytest.mark.parametrize("document, expected_sha256", GOLDEN_JET_IDEAL_JSON, ids=[d[:-5] for d, _ in GOLDEN_JET_IDEAL_JSON])
def test_golden_jet_ideal_json_at_level_12(capsys, document, expected_sha256):
    code, out, _ = _run(capsys, ["jet-ideal", str(PROBLEMS / document), "--n", "12"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == expected_sha256


# sha256 of the JSON and text outputs of commands whose source arc is generic,
# or generic plus a constant, so its residue dimensions are counted, not
# eliminated.  Taken before the count replaced the elimination; the text of
# embdim-arc on whitney's singular-generic arc is pinned in GOLDEN_OUTPUTS.
GENERIC_PLUS_CONSTANT_DOC = {
    **{k: v for k, v in BLOWUP_DOC.items() if k != "arcs"},
    "arcs": {
        "generic-plus-constant": {"on": "source", "components": [{"generic": {"start": 1}}, "2 + t"]}
    },
}
GOLDEN_COUNTED_RESIDUE_OUTPUTS = [
    ("whitney", ("embdim-arc", "--arc", "singular-generic"), "json", "c5e543ac41131bb9a81d9354c8264e7a111450966d27e201bd3412e72d3977b3"),
    ("whitney", ("embdim-jet", "--arc", "singular-generic", "--n", "6"), "json", "e85468affd9a396f967c2ab182c7444b5abb98543f1aec0a13961e9da2b4606e"),
    ("whitney", ("embdim-jet", "--arc", "singular-generic", "--n", "6"), "text", "857bcd556e339ea7f2b6876d3bee0dd69f80d0d75fdc38d4f0358eeafe0123b2"),
    ("generic-plus-constant", ("btr", "--arc", "generic-plus-constant"), "json", "ca9dc407ee8b8d0ecba014e9aefb0642670ebe014b4698b94d26027119272ea3"),
    ("generic-plus-constant", ("btr", "--arc", "generic-plus-constant"), "text", "8236069f7fef40a6cba22901f724e530ae0d36ddc120c2fa888b0d3b8e2cb437"),
]


@pytest.mark.parametrize(
    "document, argv, fmt, expected_sha256",
    GOLDEN_COUNTED_RESIDUE_OUTPUTS,
    ids=[f"{doc}:{' '.join(argv)}:{fmt}" for doc, argv, fmt, _ in GOLDEN_COUNTED_RESIDUE_OUTPUTS],
)
def test_golden_counted_residue_output(tmp_path, capsys, document, argv, fmt, expected_sha256):
    if document == "whitney":
        path = str(PROBLEMS / "whitney.json")
    else:
        path = _write(tmp_path, GENERIC_PLUS_CONSTANT_DOC)
    command, *flags = argv
    code, out, _ = _run(capsys, [command, path, *flags, "--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == expected_sha256


# sha256 of `jetspace catalog --format text`.
CATALOG_TEXT_SHA256 = "bf70edcb13943434b33bc86a845b08d1b19127226ed85338405658508659c014"


def test_golden_catalog_text(capsys):
    code, out, _ = _run(capsys, ["catalog", "--format", "text"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CATALOG_TEXT_SHA256


# Text output with JETSPACE_PRECISION_CAP=4, where the arc-level profile of
# the singular jet stays precision limited.  At the default precision it
# serves every level up to n_max; with --precision 8 <= n_max it serves none
# of the higher levels, so it is recomputed once at precision n_max + 1.
CAP4_GOLDEN_OUTPUTS = [
    (("embdim-arc", "--arc", "singular-jet", "--n-max", "12"), 0, "27a60640df38b7eb64ee708985198278cd49429da1a3ee16fdea8f83f2dca4d1"),
    (("embdim-arc", "--arc", "singular-jet", "--n-max", "12", "--precision", "8"), 0, "08b36dbd97868be94f074b18f833c309f2574cd8dbd67ee4e23e422cad6425b9"),
    (("jet-codim", "--arc", "singular-jet", "--n-max", "12", "--precision", "8", "--strict"), 2, "dd26fa5adaa2388fc92ae1e51ce1e0aa9c3765684f11c0a74d26177d60dc5b8b"),
]


@pytest.mark.parametrize(
    "argv, expected_code, expected_sha256",
    CAP4_GOLDEN_OUTPUTS,
    ids=[" ".join(argv) for argv, _, _ in CAP4_GOLDEN_OUTPUTS],
)
def test_golden_whitney_output_at_precision_cap_4(capsys, monkeypatch, argv, expected_code, expected_sha256):
    monkeypatch.setenv("JETSPACE_PRECISION_CAP", "4")
    command, *flags = argv
    code, out, _ = _run(capsys, [command, str(PROBLEMS / "whitney.json"), *flags, "--format", "text"])
    assert code == expected_code
    assert hashlib.sha256(out.encode()).hexdigest() == expected_sha256


# sha256 over every `profile --n` run on the shipped problem arcs, at n = 0-25,
# 40 and 63, at the default precision and at --precision 4: each run's exit
# code on one line, then its JSON output.  Pinned when each level was still
# diagonalized on its own; a level profile is now read off the arc-level one.
PROFILE_LEVELS = [*range(26), 40, 63]
PROFILE_LEVELS_SHA256 = "0e2e1a3eb63098e11dc0d834b99bddb8970049c763e523da8a761c0f75c42c8f"


def test_golden_profile_at_every_level(capsys):
    digest, runs = hashlib.sha256(), 0
    for path in sorted(PROBLEMS.glob("*.json")):
        for arc in json.loads(path.read_text())["arcs"]:
            for precision in ((), ("--precision", "4")):
                for n in PROFILE_LEVELS:
                    code, out, _ = _run(capsys, ["profile", str(path), "--arc", arc, "--n", str(n), *precision])
                    digest.update(f"{code}\n".encode())
                    digest.update(out.encode())
                    runs += 1
    assert runs == 504
    assert digest.hexdigest() == PROFILE_LEVELS_SHA256


# An image arc that leaves its target reports the morphism, whether the
# failure shows at the first precision or only after a refinement (24 -> 96).
@pytest.mark.parametrize("precision", [(), ("--precision", "64")], ids=["refined", "at-first-precision"])
def test_image_arc_off_the_target_is_an_invalid_morphism(tmp_path, capsys, precision):
    doc = {
        "variety": {"variables": ["x", "y", "z"], "generators": ["x*y^2 - z^2"]},
        "morphism": {"source": {"variables": ["u"]}, "components": ["u", "0", "u^30"]},
        "arcs": {"main": {"on": "source", "components": ["t"]}},
    }
    code, out, err = _run(capsys, ["btr", _write(tmp_path, doc), *precision])
    assert (code, out) == (1, "")
    assert err.startswith("error[MorphismInvalidOnArc]: target generator #1 does not vanish on the pushed arc")
    assert "t^60" in err


@pytest.mark.parametrize(
    "generator, error",
    [
        ("x - ((2^256)^256)^256", "power of coefficient size 66048 bits exceeds the maximum 8192 at column 14"),
        ("x - " + "9" * 5000, "integer literal of 5000 digits exceeds the maximum 1000 at column 5"),
        ("x - (2^256)^31*(2^256)^31", "product of coefficient size 15874 bits exceeds the maximum 8192 at column 15"),
        ("(" * 200 + "x" + ")" * 200, "nesting deeper than the maximum 100 at column 101"),
        ("-" * 3000 + "x", "nesting deeper than the maximum 100 at column 101"),
    ],
    ids=["constant-tower", "long-literal", "constant-product", "nested-parentheses", "nested-minus"],
)
def test_coefficient_bounds_exit_with_parse_errors(tmp_path, capsys, generator, error):
    doc = {"variety": {"variables": ["x"], "generators": [generator]}}
    code, out, err = _run(capsys, ["jet-ideal", _write(tmp_path, doc), "--n", "1"])
    assert (code, out) == (1, "")
    assert err.startswith(f"error[ParseError]: {error} in variety.generators[0]")


# Usage errors and unaccepted flags: exit 1 with a typed error, never SystemExit.
@pytest.mark.parametrize(
    "argv",
    [
        ["jet-ideal", "cusp.json", "--n", "1", "--q", "5"],
        ["catalog", "--n", "3"],
        ["profile", "cusp.json", "--bogus"],
        ["fiber-dim"],
        ["no-such-command"],
        [],
        ["fiber-dim", "cusp.json", "--n", "three"],
        ["jet-codim", "cusp.json", "--dim-source", "guessed"],
        ["embdim-arc", "cusp.json", "--n", "3"],
    ],
    ids=lambda argv: " ".join(argv) or "no-arguments",
)
def test_usage_error_returns_one(capsys, argv):
    argv = [str(PROBLEMS / a) if a.endswith(".json") else a for a in argv]
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error[InputError]: ")


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["fiber-dim", "--help"]) == 0
    assert "--n N" in capsys.readouterr().out


def _unread_flags():
    for command, row in COMMANDS.items():
        document = [] if row.subject is None else [str(PROBLEMS / "blowup-plane.json")]
        for key, spec in PARAMETERS.items():
            if key not in row.params:
                yield [command, *document, spec.flag, "1"]


@pytest.mark.parametrize("argv", list(_unread_flags()), ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_flag_the_command_does_not_read_is_rejected(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert f"unrecognized arguments: {argv[-2]} 1" in err


@pytest.mark.parametrize("command", list(COMMANDS))
def test_window_is_no_flag(capsys, command):
    # The stabilization window is the constant analysis.WINDOW, on every command.
    document = [] if COMMANDS[command].subject is None else [str(PROBLEMS / "blowup-plane.json")]
    code, out, err = _run(capsys, [command, *document, "--window", "3"])
    assert (code, out) == (1, "")
    assert err == "error[InputError]: jetspace: unrecognized arguments: --window 3\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["embdim-arc", "--arc", "contact1"],
        ["mather-check", "--q", "1", "--divisor-var", "u"],
    ],
    ids=["embdim-arc", "mather-check"],
)
def test_horizon_below_the_window_is_refused(capsys, argv):
    # A verdict compares the last 3 levels, so levels 0..1 could never show a plateau.
    path = str(PROBLEMS / "blowup-plane.json")
    code, out, err = _run(capsys, [argv[0], path, *argv[1:], "--n-max", "1"])
    assert (code, out) == (1, "")
    assert err == "error[InputError]: parameter 'n_max' is 1, below its floor 2\n"


def test_horizon_at_the_floor_stabilizes(capsys):
    code, out, err = _run(capsys, ["embdim-arc", str(PROBLEMS / "blowup-plane.json"), "--arc", "contact1", "--n-max", "2"])
    assert (code, err) == (0, "")
    assert json.loads(out)["report"]["verdict"] == "Stabilized(1)"


def test_cli_imports_the_catalog_only_in_its_command():
    # A fresh interpreter: the tests in this process have imported the catalog already.
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, jetspace.cli; print('jetspace.catalog' in sys.modules, 'jetspace.analysis' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.split() == ["False", "True"]


def test_parser_is_built_once(tmp_path, capsys):
    from jetspace.cli import _parser

    path = _write(tmp_path, CUSP_DOC)
    for _ in range(3):
        assert _run(capsys, ["jet-ideal", path, "--n", "1"])[0] == 0
    assert _parser.cache_info().misses == 1


# Floors and types, by rejection only: each value is refused before any
# computation, from a flag or the params block alike.
REJECTED_VALUES = [
    (CUSP_DOC, ["embdim-jet", "--n", "-2"], "parameter 'n' is -2, below its floor 0"),
    (CUSP_DOC, ["fiber-dim", "--n", "-1"], "parameter 'n' is -1, below its floor 0"),
    (CUSP_DOC, ["profile", "--n", "-1"], "parameter 'n' is -1, below its floor 0"),
    (CUSP_DOC, ["oracle-check", "--n", "-1"], "parameter 'n' is -1, below its floor 0"),
    (CUSP_DOC, ["embdim-arc", "--n-max", "-1"], "parameter 'n_max' is -1, below its floor 2"),
    (CUSP_DOC, ["profile", "--precision", "0"], "parameter 'precision' is 0, below its floor 1"),
    (BLOWUP_DOC, ["divisorial", "--q", "0", "--divisor-var", "u"], "parameter 'q' is 0, below its floor 1"),
    (dict(CUSP_DOC, params={"n": 3.7}), ["fiber-dim"], "parameter 'n' is 3.7, expected int"),
    (dict(CUSP_DOC, params={"n": True}), ["fiber-dim"], "parameter 'n' is true, expected int"),
    (dict(CUSP_DOC, params={"n": "3"}), ["jet-ideal"], "parameter 'n' is \"3\", expected int"),
    (dict(CUSP_DOC, params={"precision": -1}), ["profile"], "below its floor 1"),
    (dict(CUSP_DOC, params={"arc": ["main"]}), ["profile"], "parameter 'arc' is [\"main\"], expected str"),
    (dict(CUSP_DOC, params={"dim_source": "guessed"}), ["jet-codim"], "expected one of betti, declared"),
    (dict(BLOWUP_DOC, params={"q": 1, "divisor_var": False}), ["divisorial"], "expected str or int"),
]


@pytest.mark.parametrize(
    "doc, argv, message",
    REJECTED_VALUES,
    ids=[f"{argv[0]}:{message}" for _, argv, message in REJECTED_VALUES],
)
def test_parameter_below_floor_or_of_wrong_type_rejected(tmp_path, capsys, doc, argv, message):
    path = _write(tmp_path, doc)
    code, out, err = _run(capsys, [argv[0], path] + argv[1:])
    assert code == 1
    assert out == ""
    assert err.startswith("error[InputError]: ") and message in err


@pytest.mark.parametrize("cap", ["100000000", "193", "1", "abc", "4.5", "-48"])
def test_precision_cap_out_of_range_rejected(tmp_path, capsys, monkeypatch, cap):
    monkeypatch.setenv("JETSPACE_PRECISION_CAP", cap)
    path = _write(tmp_path, CUSP_DOC)
    code, out, err = _run(capsys, ["fiber-dim", path])
    assert code == 1
    assert out == ""
    assert err.startswith("error[InputError]: JETSPACE_PRECISION_CAP=")


def test_digit_divisor_var_is_a_one_based_index(capsys):
    path = str(PROBLEMS / "blowup-plane.json")
    by_name = json.loads(_run(capsys, ["divisorial", path, "--divisor-var", "u", "--q", "1"])[1])
    code, out, _ = _run(capsys, ["divisorial", path, "--divisor-var", "1", "--q", "1"])
    assert code == 0
    by_index = json.loads(out)
    assert by_index["divisor_var"] == "u"
    assert by_index["source_arc"] == by_name["source_arc"]
    assert by_index["image_arc"] == by_name["image_arc"]
    argv = ["mather-check", path, "--q", "2", "--divisor-var"]
    assert _run(capsys, argv + ["1"]) == _run(capsys, argv + ["u"])


def test_strict_btr_flags_undetermined_jacobian_order(tmp_path, capsys):
    doc = dict(BLOWUP_DOC, arcs={"in-exceptional": {"on": "source", "components": ["0", "t"]}})
    path = _write(tmp_path, doc)
    code, out, _ = _run(capsys, ["btr", path, "--n-max", "4", "--strict"])
    assert code == 2
    assert json.loads(out)["report"]["ord_jacobian"]["kind"] != "finite"


def test_mather_check_with_zero_jacobian_is_precision_limited(tmp_path, capsys):
    doc = json.loads((PROBLEMS / "blowup-plane.json").read_text())
    doc["morphism"]["components"] = ["u", "u"]
    path = _write(tmp_path, doc)
    code, out, err = _run(capsys, ["mather-check", path, "--q", "1", "--divisor-var", "u"])
    assert (code, out) == (1, "")
    assert err == (
        "error[PrecisionLimited]: order of the morphism Jacobian is undetermined below the precision cap\n"
    )


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


_MISSING = object()  # a document path that does not exist

# Typed errors, and features, on paths that no other test reaches.  Each row
# is the command with its flags (the document path follows the command), the
# document (a dict written as JSON, raw text written as is, or _MISSING),
# the exit code, and the start of stderr, one line with no traceback, where
# {path} stands for the document's path (exit 1), or a piece of stdout (exit 0).
UNREACHED_PATHS = [
    pytest.param(
        ["fiber-dim"], _without(CUSP_DOC, "params"), 1,
        "error[InputError]: missing parameter 'n' (flag --n or document params)",
        id="required-parameter-set-nowhere",
    ),
    pytest.param(["btr"], CUSP_DOC, 1, "error[InputError]: document declares no morphism", id="btr-without-morphism"),
    pytest.param(
        ["profile"], _without(CUSP_DOC, "arcs"), 1, "error[InputError]: document defines no arcs", id="profile-without-arcs"
    ),
    pytest.param(
        ["btr"], dict(BLOWUP_DOC, arcs={"main": {"components": ["t", "t^2"]}}), 1,
        "error[InputError]: arc does not live on the source of the morphism",
        id="btr-on-a-variety-arc",
    ),
    pytest.param(
        ["profile"], dict(CUSP_DOC, arcs={"main": {"on": "source", "components": ["t^2", "t^3"]}}), 1,
        "error[InputError]: arcs.main.on: 'source' needs a morphism block",
        id="on-source-without-morphism",
    ),
    pytest.param(
        ["profile"], dict(CUSP_DOC, arcs={"main": {"on": "target", "components": ["t^2", "t^3"]}}), 1,
        "error[InputError]: arcs.main.on: expected 'variety' or 'source'",
        id="unknown-on",
    ),
    pytest.param(
        ["jet-ideal", "--n", "1"], {"variety": {"variables": ["x"], "generators": ["x $ 1"]}}, 1,
        "error[ParseError]: unexpected character '$' at column 3 in variety.generators[0]",
        id="unexpected-character",
    ),
    pytest.param(
        ["jet-ideal", "--n", "1"], {"variety": {"variables": ["x"], "generators": ["x^\u00b2"]}}, 1,
        "error[ParseError]: unexpected character '\u00b2' at column 3 in variety.generators[0]",
        id="non-ascii-digit",
    ),
    pytest.param(["profile"], '{"variety": ', 1, "error[InputError]: {path} is not valid JSON", id="invalid-json"),
    pytest.param(["profile"], _MISSING, 1, "error[InputError]: cannot read {path}", id="unreadable-path"),
    pytest.param(["profile"], [CUSP_DOC], 1, "error[InputError]: document root must be a JSON object", id="non-object-root"),
    pytest.param(
        ["profile"], dict(CUSP_DOC, arcs={"main": {"components": [{"generic": 5}, "t^3"]}}), 1,
        "error[InputError]: arcs.main.components[0].generic: expected an object",
        id="generic-spec-not-an-object",
    ),
    pytest.param(
        ["profile"], dict(CUSP_DOC, arcs={"main": {"components": [5, "t^3"]}}), 1,
        "error[InputError]: arcs.main.components[0]: expected an expression string or a generic spec",
        id="component-neither-string-nor-generic",
    ),
    pytest.param(
        ["jet-ideal", "--n", "1"], {"variety": {"variables": ["x"], "generators": [5]}}, 1,
        "error[InputError]: variety.generators[0]: expected a string",
        id="non-string-generator",
    ),
    pytest.param(
        ["jet-ideal", "--n", "1"], {"variety": {"variables": []}}, 1,
        "error[InputError]: variety.variables: expected a nonempty list of names",
        id="empty-variables",
    ),
    pytest.param(
        ["divisorial", "--q", "1", "--divisor-var", "w"], BLOWUP_DOC, 1,
        "error[InputError]: divisor variable 'w' is not a source variable",
        id="divisor-var-not-a-source-variable",
    ),
    pytest.param(
        ["divisorial", "--q", "1", "--divisor-var", "5"], BLOWUP_DOC, 1,
        "error[InputError]: divisor variable index 5 out of range",
        id="divisor-var-index-out-of-range",
    ),
    pytest.param(
        ["jet-codim", "--dim-source", "declared"], dict(CUSP_DOC, variety=_without(CUSP_DOC["variety"], "declared_dim")), 1,
        "error[MissingDeclaredDim]: variety has no declared_dim, so the declared dimension source is unavailable\n",
        id="declared-source-without-declared-dim",
    ),
    # With no declared_dim, smoothness at the center compares with the free rank.
    pytest.param(
        ["btr"],
        {
            "transcendentals": ["a"],
            "variety": {"variables": ["x"]},
            "morphism": {"source": {"variables": ["u", "v"], "generators": ["v - u^2"]}, "components": ["u"]},
            "arcs": {"main": {"on": "source", "components": ["a + t", "(a + t)^2"]}},
        },
        0, '"smooth_at_center": true',
        id="btr-source-without-declared-dim",
    ),
    # With no declared_dim, the target dimension is the free rank.
    pytest.param(
        ["mather-check", "--q", "1", "--divisor-var", "u"],
        {
            "variety": {"variables": ["x", "y"]},
            "morphism": {"source": {"variables": ["u", "v"]}, "components": ["u", "u*v"]},
        },
        0, '"target_dim": 2',
        id="mather-target-without-declared-dim",
    ),
]


@pytest.mark.parametrize("argv, doc, expected_code, expected", UNREACHED_PATHS)
def test_unreached_paths(tmp_path, capsys, argv, doc, expected_code, expected):
    path = tmp_path / "doc.json"
    if isinstance(doc, str):
        path.write_text(doc)
    elif doc is not _MISSING:
        path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, [argv[0], str(path), *argv[1:]])
    assert code == expected_code
    if expected_code:
        assert out == ""
        assert err.startswith(expected.format(path=path)) and err.count("\n") == 1
    else:
        assert err == ""
        assert expected in out


def _char_p_doc(p):
    return {
        "field": {"prime": p},
        "transcendentals": ["a"],
        "variety": {"variables": ["x"]},
        "arcs": {"main": {"components": ["a^2 + t"]}},
    }


def test_char_p_jacobian_is_reported(tmp_path, capsys):
    # Over GF(3) the Jacobian rank of a^2 is its transcendence degree, 1, and
    # both reports say that the residue dimension is a Jacobian rank.
    path = _write(tmp_path, _char_p_doc(3))
    code, out, _ = _run(capsys, ["embdim-jet", path, "--n", "1"])
    assert code == 0
    jet = json.loads(out)["embdim_jet"]
    assert (jet["residue_dim"], jet["char_p_jacobian"]) == (1, True)
    code, out, _ = _run(capsys, ["embdim-arc", path])
    assert code == 0
    assert json.loads(out)["report"]["char_p_jacobian"] is True


@pytest.mark.xfail(strict=True, reason="known wrong answer: over GF(2) the Jacobian rank of a^2 is 0, its transcendence degree 1")
def test_char_2_residue_dimension_is_a_transcendence_degree(tmp_path, capsys):
    path = _write(tmp_path, _char_p_doc(2))
    code, out, _ = _run(capsys, ["embdim-jet", path, "--n", "1"])
    assert code == 0
    assert json.loads(out)["embdim_jet"]["residue_dim"] == 1
