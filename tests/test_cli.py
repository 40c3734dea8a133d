"""Command line interface: dispatch, parameters, exit codes, determinism."""

import hashlib
import json
from pathlib import Path

import pytest

from jetspace.analysis import DEFAULT_N_MAX
from jetspace.cli import PARAMETER_CEILINGS, main
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


def test_parameter_falls_back_to_document(tmp_path, capsys):
    path = _write(tmp_path, CUSP_DOC)
    code, out, _ = _run(capsys, ["fiber-dim", path])
    assert code == 0
    assert json.loads(out)["fiber_dim"]["level"] == 3


def test_task_parameters_take_precedence_over_params(tmp_path, capsys):
    doc = dict(CUSP_DOC)
    doc["tasks"] = [{"command": "fiber-dim", "n": 1}]
    path = _write(tmp_path, doc)
    code, out, _ = _run(capsys, ["fiber-dim", path])
    assert code == 0
    assert json.loads(out)["fiber_dim"]["level"] == 1
    assert json.loads(out)["fiber_dim"]["value"] == 4


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


def test_oracle_check_all_levels(tmp_path, capsys):
    doc = {k: v for k, v in CUSP_DOC.items() if k != "params"}
    path = _write(tmp_path, doc)
    code, out, _ = _run(capsys, ["oracle-check", path])
    assert code == 0
    report = json.loads(out)
    assert report["all_match"] is True
    assert [c["level"] for c in report["checks"]] == list(range(7))


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
    "doc, argv, key",
    [
        (CUSP_DOC, ["profile", "--precision", "193"], "precision"),
        (CUSP_DOC, ["fiber-dim", "--n", "192"], "n"),
        (CUSP_DOC, ["embdim-arc", "--n-max", "191"], "n_max"),
        (BLOWUP_DOC, ["divisorial", "--q", "96", "--divisor-var", "u"], "q"),
        (dict(CUSP_DOC, params={"n": 10**9}), ["fiber-dim"], "n"),
        (dict(CUSP_DOC, tasks=[{"command": "profile", "precision": 10**6}]), ["profile"], "precision"),
    ],
)
def test_numeric_parameter_above_ceiling_rejected(tmp_path, capsys, doc, argv, key):
    # Rejection only: the value is refused before any computation starts.
    path = _write(tmp_path, doc)
    code, out, err = _run(capsys, [argv[0], path] + argv[1:])
    assert code == 1
    assert out == ""
    assert "error[InputError]" in err
    assert f"parameter {key!r}" in err and f"ceiling {PARAMETER_CEILINGS[key]}" in err


def test_parameter_ceilings_cover_shipped_values():
    assert PARAMETER_CEILINGS["precision"] == PRECISION_CAP
    assert DEFAULT_PRECISION <= PARAMETER_CEILINGS["precision"]
    assert DEFAULT_N_MAX <= PARAMETER_CEILINGS["n_max"]
    # The highest jet level and contact order the benchmark queries.
    assert PARAMETER_CEILINGS["n"] >= 24 and PARAMETER_CEILINGS["q"] >= 3
    problems = Path(__file__).resolve().parent.parent / "problems"
    for path in sorted(problems.glob("*.json")):
        doc = json.loads(path.read_text())
        for values in [doc.get("params", {})] + doc.get("tasks", []):
            for key, ceiling in PARAMETER_CEILINGS.items():
                if key in values:
                    assert int(values[key]) <= ceiling, (path.name, key)


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
# problem documents.  jet-ideal and divisorial render polynomial and
# field-element strings, so a kernel change that alters a representative
# shows up here even when the catalog bytes do not move.
PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
GOLDEN_OUTPUTS = [
    ("blowup-plane.json", ("jet-ideal", "--n", "3"), 0, "1f132028ef1b23d31262ea9b8c0c1881acb9153017d217ced07a47c8f55e8445"),
    ("blowup-plane.json", ("profile", "--arc", "contact1"), 0, "7e9b50f0ab414322d4e6808ea047242becfcd740d74b30c34de599cbb5450fb7"),
    ("blowup-plane.json", ("embdim-arc", "--arc", "contact1"), 0, "63a7bca10b2d1bebdd125086387e76da95490d1e9bd002e7aa96ab26a8b77c0f"),
    ("blowup-plane.json", ("divisorial",), 0, "460f47225e8c816331b56cd12782e32e1f55a1466f79cb5cb4e2426c1845d685"),
    ("blowup-plane.json", ("divisorial", "--q", "2"), 0, "683801a5f90c7c6fc82d745411f6bada5f89d967048b67e9e4f57c8a204edb85"),
    ("cusp.json", ("jet-ideal", "--n", "3"), 0, "c92931a085cc44305482299f247e5e409be4f269258a0d76ac41543a73b3c5db"),
    ("cusp.json", ("profile", "--arc", "main"), 0, "ad3e89b1320b91251be7c754e4f61839d13a3a426863dbd2ae4a1b068e9715d5"),
    ("cusp.json", ("embdim-arc", "--arc", "main"), 0, "f1757fe80c7e36e9c7b5acbd9cd1eec6c89ca2d1975ef5c7170ac91775ab9ef6"),
    ("cusp.json", ("profile", "--arc", "unit-branch"), 0, "381aea1144fda6a08b109a1d7da03c5cafa1d0108453efedd950775a77fd56bf"),
    ("cusp.json", ("embdim-arc", "--arc", "unit-branch"), 0, "10b9fb5695e19555e83d5f1eed28f6d4a89732d36c7c72ddfa19e8150487c364"),
    ("umbrella-char2.json", ("jet-ideal", "--n", "3"), 0, "d4abc5de71a7ba77ba3cf413fb0791d7da55e56c2bb8439edeb0c6a8ec939b2f"),
    ("umbrella-char2.json", ("profile", "--arc", "off"), 0, "6137f8c430f295a3b37cd4dddfdc9c7f8bbdc8c716d8e5cbb6128a3cca44c75a"),
    ("umbrella-char2.json", ("embdim-arc", "--arc", "off"), 0, "87cf76632626ff320c4956167fe6e2df11aaa666653cf31b40913638651ce064"),
    ("umbrella-char2.json", ("profile", "--arc", "singular-jet"), 0, "ed21d3ed37ed96f122f697bf9d0d683ee20bd39f1ca6bc8d73b2a604a318baee"),
    ("umbrella-char2.json", ("embdim-arc", "--arc", "singular-jet"), 0, "6634cba80c2d7e99cf4bc38ad53eb1e189429390b1f703799e2d913ec94bfd21"),
    ("whitney.json", ("jet-ideal", "--n", "3"), 0, "2a9c832e5a52a36ba937712ba6b2a5a77a509bbfbe0c28c0bdb1b0a9758b0c99"),
    ("whitney.json", ("profile", "--arc", "off-axis"), 0, "f02f3acd3ee5d3a228344ae638dd41492d59bd1409eab9a753e1bc67e8c28460"),
    ("whitney.json", ("embdim-arc", "--arc", "off-axis"), 0, "2b6f14f67dc29ab2ca850b7ebd4b7de62f21eef40b8fac107ca44fc9ef2d979d"),
    ("whitney.json", ("profile", "--arc", "through-origin"), 0, "d1d7662644cda46ee18d8d984ee5a09a09161ac6374cdce323d81e2138c73e07"),
    ("whitney.json", ("embdim-arc", "--arc", "through-origin"), 0, "f0248ff184d456243a83cb6cc580634168cbf4982b50b9a6b5a8fa02c1cd53b8"),
    ("whitney.json", ("profile", "--arc", "singular-jet"), 0, "1713547a6937dd93fe99a327bd6f61f06d9ef3603f09c786795732a01876357c"),
    ("whitney.json", ("embdim-arc", "--arc", "singular-jet"), 0, "6f65f7ab9aa123c27bf033a03dd46e63c8d0b1613ee0999853b37f1beae4ea7e"),
    ("whitney.json", ("profile", "--arc", "singular-generic"), 0, "1b4f9ab545f5c7c47732301f5aa5e0a1071747f8234566686813380da9b02fda"),
    ("whitney.json", ("embdim-arc", "--arc", "singular-generic"), 0, "92de045f1e0706ff6d8cde4f105dee0a18f63fadba497c39d34bb6a32b270fc7"),
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
