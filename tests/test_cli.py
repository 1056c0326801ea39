"""End-to-end CLI behaviour and exit-code contract."""

import json

import pytest

from sparsecurves import intersections
from sparsecurves.cli import main
from sparsecurves.document import SystemDocument, load_document, save_document


def _write_listed(path, system):
    save_document(SystemDocument.from_system(system), path)
    return json.loads(path.read_text())


def _schema_1(data):
    """A schema-2 document dict rewritten in schema 1, as older versions wrote it."""
    full = data["curves"] == "full"
    return {
        "schemaVersion": 1,
        "surface": data["surface"],
        "analytic": full,
        "curves": [] if full else data["curves"],
        "report": data["report"],
        "certificate": data["certificate"],
    }


def test_construct_writes_document(tmp_path, capsys):
    out = tmp_path / "g16.json"
    assert main(["construct", "--g", "16", "--alpha", "0/1", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "curves=32" in stdout
    assert "h=2" in stdout and "hPrime=8" in stdout and "baseGenus=0" in stdout
    assert "analytic=false" in stdout
    doc = load_document(out)
    assert doc.full and doc.curves == ()
    assert doc.system().curve_count == 32
    assert json.loads(out.read_text())["curves"] == "full"


def test_construct_below_threshold_exits_4(tmp_path, capsys):
    out = tmp_path / "g15.json"
    assert main(["construct", "--g", "15", "--alpha", "0/1", "--out", str(out)]) == 4
    assert "g >= 16" in capsys.readouterr().err
    assert not out.exists()


def test_construct_analytic_counts_only(tmp_path, capsys):
    out = tmp_path / "g64a1.json"
    code = main(
        ["construct", "--g", "64", "--alpha", "1/1", "--analytic", "--out", str(out)]
    )
    assert code == 0
    doc = load_document(out)
    assert doc.full and doc.curves == ()
    assert "analytic=true" in capsys.readouterr().out


@pytest.mark.parametrize("g, alpha", [(16, "0/1"), (64, "1/1")])
def test_construct_ignores_analytic_and_cap(tmp_path, capsys, g, alpha):
    # --analytic and --cap still parse but change neither the document nor stdout
    outputs = []
    for i, extra in enumerate([[], ["--analytic"], ["--cap", "1"]]):
        out = tmp_path / f"doc{i}.json"
        args = ["construct", "--g", str(g), "--alpha", alpha, "--out", str(out)]
        assert main(args + extra) == 0
        outputs.append((capsys.readouterr().out, out.read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]


def test_verify_constructed_document(tmp_path, capsys):
    out = tmp_path / "g16.json"
    main(["construct", "--g", "16", "--alpha", "0/1", "--out", str(out)])
    capsys.readouterr()
    assert main(["verify", str(out), "--f", "gpow"]) == 0
    stdout = capsys.readouterr().out
    assert "sparse=true" in stdout
    assert "distinct=true" in stdout
    assert "status=not-applicable" in stdout


def test_verify_duplicate_curve_exits_3(tmp_path, capsys, listed_system):
    out = tmp_path / "g16.json"
    data = _write_listed(out, listed_system())
    data["curves"].append(dict(data["curves"][0]))
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 3
    stdout = capsys.readouterr().out
    assert "distinct=false" in stdout
    assert "collision=" in stdout


def test_verify_singleton_exits_4(tmp_path, capsys, listed_system):
    out = tmp_path / "one.json"
    data = _write_listed(out, listed_system())
    data["curves"] = data["curves"][:1]
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 4
    assert "undefined" in capsys.readouterr().err


def test_verify_not_sparse_exits_2(tmp_path, capsys):
    out = tmp_path / "dense.json"
    main(["construct", "--g", "36", "--alpha", "0/1", "--out", str(out)])
    data = json.loads(out.read_text())
    # keep only the antipodal pair that crosses twice: average 2 > 1
    data["curves"] = [
        {"necklace": 0, "word": "12"},
        {"necklace": 0, "word": "21"},
    ]
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(out), "--f", "1/1"]) == 2
    assert "sparse=false" in capsys.readouterr().out


def test_verify_parse_error_exits_5(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    assert main(["verify", str(path)]) == 5
    assert "line" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("surface", "g", "x"),
        ("surface", "h", None),
        ("report", "totalCrossings", "zz"),
        ("report", "averageDenominator", 0),
        ("surface", "g", 16.7),
        ("surface", "h", 2.0),
        ("surface", "g", True),
    ],
)
def test_verify_bad_integer_field_exits_5(tmp_path, capsys, section, key, value):
    out = tmp_path / "g16.json"
    annotated = tmp_path / "annotated.json"
    main(["construct", "--g", "16", "--alpha", "0/1", "--out", str(out)])
    main(["verify", str(out), "--out", str(annotated)])
    data = json.loads(annotated.read_text())
    data[section][key] = value
    annotated.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(annotated)]) == 5
    assert capsys.readouterr().err.startswith(f"error: {key} must be")


def test_verify_boolean_necklace_exits_5(tmp_path, capsys, listed_system):
    # true must not be read as necklace 1, which would collide with a real curve
    out = tmp_path / "g16.json"
    data = _write_listed(out, listed_system())
    data["curves"][0]["necklace"] = True
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 5
    assert capsys.readouterr().err.startswith("error: curves[0].necklace must be")


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("report", "isSparse", "false"),
        ("certificate", "distinct", 1),
        (None, "schemaVersion", True),
    ],
)
def test_verify_non_boolean_flag_exits_5(tmp_path, capsys, section, key, value):
    # a schema-1 document, so the parse is the same one older versions made
    out = tmp_path / "g16.json"
    annotated = tmp_path / "annotated.json"
    main(["construct", "--g", "16", "--alpha", "0/1", "--out", str(out)])
    main(["verify", str(out), "--out", str(annotated)])
    data = _schema_1(json.loads(annotated.read_text()))
    (data[section] if section else data)[key] = value
    annotated.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(annotated)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


@pytest.mark.parametrize(
    "analytic, curves, message",
    [
        ("false", [{"necklace": 0, "word": "1"}], "analytic must be true or false"),
        (1, [], "analytic must be true or false"),
        (True, [{"necklace": 0, "word": "1"}], 'must have "curves": []'),
    ],
    ids=["string", "integer", "true-with-curves"],
)
def test_verify_schema_1_analytic_flag_exits_5(tmp_path, capsys, analytic, curves, message):
    # none of these may be read as the full family
    out = tmp_path / "g16.json"
    main(["construct", "--g", "16", "--alpha", "0/1", "--out", str(out)])
    data = _schema_1(json.loads(out.read_text()))
    data["analytic"] = analytic
    data["curves"] = curves
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 5
    assert message in capsys.readouterr().err


def test_verify_huge_integer_exits_5(tmp_path, capsys):
    # 5,000 digits is past the int-to-str limit json.loads enforces
    out = tmp_path / "g16.json"
    main(["construct", "--g", "16", "--alpha", "0/1", "--out", str(out)])
    text = out.read_text()
    assert text.count('"g": 16,') == 1
    out.write_text(text.replace('"g": 16,', '"g": ' + "1" * 5000 + ","))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "digits" in err


@pytest.mark.parametrize("g, alpha", [(36, "0/1"), (64, "1/1")])
def test_verify_schema_1_full_family_prints_the_same(tmp_path, capsys, g, alpha):
    new = tmp_path / "schema2.json"
    old = tmp_path / "schema1.json"
    main(["construct", "--g", str(g), "--alpha", alpha, "--out", str(new)])
    old.write_text(json.dumps(_schema_1(json.loads(new.read_text()))))
    capsys.readouterr()
    assert main(["verify", str(new)]) == 0
    stdout = capsys.readouterr().out
    assert main(["verify", str(old)]) == 0
    assert capsys.readouterr().out == stdout
    assert "method=construction" in stdout


def test_verify_full_family_disagreement_exits_4(tmp_path, capsys, monkeypatch):
    # under the word limit the explicit counter (864) cross-checks the closed form
    out = tmp_path / "g36.json"
    main(["construct", "--g", "36", "--alpha", "0/1", "--out", str(out)])
    monkeypatch.setattr(intersections, "total_crossings_analytic", lambda surface: 865)
    capsys.readouterr()
    assert main(["verify", str(out)]) == 4
    assert "explicit total 864 disagrees with the closed form 865" in capsys.readouterr().err


def test_verify_analytic_document(tmp_path, capsys):
    out = tmp_path / "a.json"
    main(["construct", "--g", "64", "--alpha", "1/1", "--analytic", "--out", str(out)])
    capsys.readouterr()
    assert main(["verify", str(out), "--f", "gpow"]) == 0
    stdout = capsys.readouterr().out
    assert "mode=analytic" in stdout
    assert "method=construction" in stdout


def test_verify_out_round_trips(tmp_path, capsys):
    out = tmp_path / "g16.json"
    annotated = tmp_path / "annotated.json"
    main(["construct", "--g", "16", "--alpha", "0/1", "--out", str(out)])
    assert main(["verify", str(out), "--out", str(annotated)]) == 0
    doc = load_document(annotated)
    assert doc.report is not None and doc.report.is_sparse
    assert doc.certificate is not None and doc.certificate.distinct
    # construct -> verify -> verify again: the annotated document still verifies
    capsys.readouterr()
    assert main(["verify", str(annotated)]) == 0


def test_verify_threads_match_single_worker(tmp_path, capsys):
    out = tmp_path / "g36.json"
    main(["construct", "--g", "36", "--alpha", "0/1", "--out", str(out)])
    capsys.readouterr()
    assert main(["verify", str(out), "--threads", "2"]) == 0
    threaded = capsys.readouterr().out
    assert main(["verify", str(out)]) == 0
    assert threaded == capsys.readouterr().out


def test_bounds_csv_to_stdout(capsys):
    assert main(["bounds", "--g", "16,25,36,49,64", "--alpha", "0/1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("g,alpha,")
    assert all(line.endswith("true,true") for line in lines[1:])


def test_bounds_json_file_deterministic(tmp_path):
    out1 = tmp_path / "t1.json"
    out2 = tmp_path / "t2.json"
    args = ["bounds", "--g", "16,36", "--alpha", "0/1,1/2", "--format", "json"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert len(payload["rows"]) == 4


def test_bounds_g_range_grid(capsys):
    assert main(["bounds", "--g-range", "16:256:3", "--alpha", "0/1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4  # header + 3 rows
    gs = [int(line.split(",")[0]) for line in lines[1:]]
    assert gs == sorted(gs)
    assert gs[0] == 16 and gs[-1] == 256


def test_bounds_requires_g(capsys):
    assert main(["bounds", "--alpha", "0/1"]) == 4
    assert "--g" in capsys.readouterr().err


@pytest.mark.parametrize("g_list", ["16,abc", "1.5"])
def test_bounds_non_integer_g_exits_4(capsys, g_list):
    assert main(["bounds", "--g", g_list, "--alpha", "0/1"]) == 4
    assert capsys.readouterr().err.startswith("error: --g must list integers")


@pytest.mark.parametrize("command", ["verify", "bounds"])
@pytest.mark.parametrize("precision", ["0", "-1"])
def test_precision_below_one_exits_4(tmp_path, capsys, command, precision):
    if command == "verify":
        out = tmp_path / "g16.json"
        main(["construct", "--g", "16", "--alpha", "0/1", "--out", str(out)])
        args = ["verify", str(out)]
    else:
        args = ["bounds", "--g", "16", "--alpha", "0/1"]
    capsys.readouterr()
    assert main(args + ["--precision", precision]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: precision must be at least 1 digit")


def test_bad_alpha_fraction(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert main(["construct", "--g", "16", "--alpha", "zzz", "--out", str(out)]) == 4
