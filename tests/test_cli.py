"""Command line interface: dispatch, parameters, exit codes, determinism."""

import json

import pytest

from jetspace.cli import main

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
