"""End-to-end CLI behaviour and exit-code contract."""

import contextlib
import io
import json
import math
import os
import random
import re
import resource
import shlex
import stat
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsecurves import intersections
from sparsecurves.bounds import render_ratio
from sparsecurves.cli import MAX_GRID_COUNT, main
from sparsecurves.curves import Curve, CurveSystem
from sparsecurves.document import SystemDocument, load_document, save_document
from sparsecurves.surfaces import MAX_NECKLACE_GENUS, plan_composite

SRC = Path(__file__).resolve().parents[1] / "src"
README = SRC.parent / "README.md"


def _write_listed(path, system):
    save_document(SystemDocument(system), path)
    return json.loads(path.read_text())


def _older_schema(data, version):
    """A schema-3 document dict rewritten in schema 2 or 1, as older versions
    wrote it: one {"necklace", "word"} object per listed curve."""
    full = data["curves"] == "full"
    curves = [
        {"necklace": entry["necklace"], "word": word}
        for entry in ([] if full else data["curves"])
        for word in entry["words"].split(" ")
    ]
    if version == 2:
        return dict(data, schemaVersion=2, curves="full" if full else curves)
    return {
        "schemaVersion": 1,
        "surface": data["surface"],
        "analytic": full,
        "curves": curves,
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
    system = load_document(out).system
    assert system.full and system.curves == ()
    assert system.curve_count == 32
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
    system = load_document(out).system
    assert system.full and system.curves == ()
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
    data["curves"][0]["words"] += " 1"  # necklace 0 already lists word 1
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 3
    stdout = capsys.readouterr().out
    assert "distinct=false" in stdout
    assert "collision=" in stdout


def test_verify_duplicates_name_one_curve_in_both_lines(tmp_path, capsys, listed_system):
    # schema 2 keeps the listed order: 5:12 is repeated right after itself and
    # 2:32 at the end; the counter and the certificate both meet 2:32 first
    out = tmp_path / "g36.json"
    data = _older_schema(_write_listed(out, listed_system(36)), 2)
    curves = data["curves"]
    original = curves.index({"necklace": 5, "word": "12"})
    curves.insert(original + 1, {"necklace": 5, "word": "12"})
    curves.append({"necklace": 2, "word": "32"})
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 3
    stdout = capsys.readouterr().out
    assert "crossing report unavailable: duplicate curve 2:32\n" in stdout
    assert " collision=2:32/2:32\n" in stdout


def test_verify_singleton_exits_4(tmp_path, capsys, listed_system):
    out = tmp_path / "one.json"
    data = _write_listed(out, listed_system())
    data["curves"] = [{"necklace": 0, "words": "1"}]
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 4
    assert "undefined" in capsys.readouterr().err


def test_verify_not_sparse_exits_2(tmp_path, capsys):
    out = tmp_path / "dense.json"
    main(["construct", "--g", "36", "--alpha", "0/1", "--out", str(out)])
    data = json.loads(out.read_text())
    # keep only the antipodal pair that crosses twice: average 2 > 1
    data["curves"] = [{"necklace": 0, "words": "12 21"}]
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
    "section, key, value, listed, message",
    [
        ("surface", "g", "x", False, "g must be"),
        ("surface", "h", None, False, "h must be"),
        (
            "report",
            "totalCrossings",
            "zz",
            False,
            "report.totalCrossings = 'zz', but the full family of the surface has 0\n",
        ),
        # a full family's report stores no average, so a listed one carries it
        ("report", "averageDenominator", 0, True, "averageDenominator must be"),
        ("surface", "g", 16.7, False, "g must be"),
        ("surface", "h", 2.0, False, "h must be"),
        ("surface", "g", True, False, "g must be"),
    ],
    ids=[
        "surface-g-x",
        "surface-h-None",
        "report-totalCrossings-zz",
        "report-averageDenominator-0",
        "surface-g-16.7",
        "surface-h-2.0",
        "surface-g-True",
    ],
)
def test_verify_bad_integer_field_exits_5(
    tmp_path, capsys, listed_system, section, key, value, listed, message
):
    out = tmp_path / "g16.json"
    annotated = tmp_path / "annotated.json"
    if listed:
        save_document(SystemDocument(listed_system()), out)
    else:
        main(["construct", "--g", "16", "--alpha", "0/1", "--out", str(out)])
    main(["verify", str(out), "--out", str(annotated)])
    data = json.loads(annotated.read_text())
    data[section][key] = value
    annotated.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(annotated)]) == 5
    assert capsys.readouterr().err.startswith(f"error: {message}")


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
    data = _older_schema(json.loads(annotated.read_text()), 1)
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
    data = _older_schema(json.loads(out.read_text()), 1)
    data["analytic"] = analytic
    data["curves"] = curves
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 5
    assert message in capsys.readouterr().err


def test_verify_average_mismatch_exits_5(tmp_path, capsys, listed_system):
    # a listed report stores its average; a full family's stores none
    out = tmp_path / "g36.json"
    annotated = tmp_path / "annotated.json"
    save_document(SystemDocument(listed_system(36)), out)
    main(["verify", str(out), "--out", str(annotated)])
    data = json.loads(annotated.read_text())
    report = data["report"]
    # an equal average not in lowest terms still loads
    report["averageNumerator"] *= 3
    report["averageDenominator"] *= 3
    annotated.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(annotated)]) == 0
    report["averageDenominator"] += 1
    annotated.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(annotated)]) == 5
    assert capsys.readouterr().err.startswith("error: report average")


def _token(stdout: str, key: str) -> str:
    return re.search(rf"(?:^|\s){key}=(\S+)", stdout).group(1)


def _check_big_token(token: str, n_bits: int) -> None:
    """`[bits=B,log10=L]` with B exact and L inside [(B-1)·log10 2, B·log10 2)."""
    match = re.fullmatch(r"\[bits=(\d+),log10=([0-9.]+)\]", token)
    assert match, token
    assert int(match.group(1)) == n_bits
    assert (n_bits - 1) * math.log10(2) <= float(match.group(2)) < n_bits * math.log10(2)


def test_construct_past_the_digit_limit_prints_bit_length(tmp_path, capsys):
    # 2 * 4**49999 curves: 100,000 bits, past 4,300 decimal digits
    out = tmp_path / "a.json"
    assert main(["construct", "--g", "100000", "--alpha", "1/1", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    _check_big_token(_token(captured.out, "curves"), 100_000)
    assert "h=50000 hPrime=2 baseGenus=0 analytic=true" in captured.out


def test_verify_past_the_digit_limit(tmp_path, capsys):
    # g=10^4, alpha=1: 20,008-bit crossings and 19,997-bit pairs
    doc = tmp_path / "a.json"
    annotated = tmp_path / "verified.json"
    main(["construct", "--g", "10000", "--alpha", "1/1", "--out", str(doc)])
    capsys.readouterr()
    assert main(["verify", str(doc)]) == 0
    stdout = capsys.readouterr().out
    system = load_document(doc).system
    crossings = intersections.total_crossings(system)
    _check_big_token(_token(stdout, "crossings"), crossings.bit_length())
    _check_big_token(_token(stdout, "pairs"), system.pair_count.bit_length())
    assert _token(stdout, "average") == render_ratio(crossings, system.pair_count)
    assert "sparse=true" in stdout and "status=holds" in stdout
    # the document holds the totals as stdout shows them, with no average,
    # and loads them back exactly, from the surface
    assert main(["verify", str(doc), "--out", str(annotated)]) == 0
    assert capsys.readouterr() == (stdout, "")
    report = json.loads(annotated.read_text())["report"]
    assert report["totalCrossings"] == _token(stdout, "crossings")
    assert report["pairCount"] == _token(stdout, "pairs")
    assert not {"averageNumerator", "averageDenominator"} & report.keys()
    loaded = load_document(annotated).report
    assert (loaded.total_crossings, loaded.pair_count) == (crossings, system.pair_count)
    assert main(["verify", str(annotated)]) == 0
    assert capsys.readouterr() == (stdout, "")


# every command that writes, its --out path to be appended
_WRITING_ARGVS = {
    "construct": ["construct", "--g", "16", "--alpha", "0/1", "--out"],
    "verify": ["verify", "g16.json", "--out"],
    "bounds": ["bounds", "--g", "16", "--alpha", "0/1", "--out"],
}


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
@pytest.mark.parametrize("command", sorted(_WRITING_ARGVS))
def test_out_to_a_fifo_exits_5_and_leaves_it(tmp_path, command):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    with _inside(tmp_path):
        assert _run_cli(_WRITING_ARGVS["construct"] + ["g16.json"]) == (0, "")
        assert _run_cli(_WRITING_ARGVS[command] + [str(fifo)]) == (
            5, f"error: cannot write {fifo}: not a regular file\n"
        )
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "g16.json"]


# a child's address-space cap: a read that grows without end fails at it
_CHILD_ADDRESS_SPACE = 256 << 20


def _verify_in_a_capped_child(path) -> subprocess.CompletedProcess:
    """`verify path` in a fresh interpreter capped in memory and time, so that a
    read that blocks or grows fails the test instead of taking the run down."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (_CHILD_ADDRESS_SPACE, _CHILD_ADDRESS_SPACE))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "sparsecurves.cli", "verify", str(path)],
        env=env, capture_output=True, text=True, timeout=15, preexec_fn=cap,
    )


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
@pytest.mark.parametrize("kind", ["fifo", "device", "directory"])
def test_verify_of_a_path_that_is_not_a_regular_file_exits_5(tmp_path, kind):
    if kind == "fifo":
        path = tmp_path / "fifo"
        os.mkfifo(path)  # no writer: a blocking open would wait forever
    elif kind == "device":
        path = Path("/dev/zero")  # endless zero bytes
        if not path.exists():
            pytest.skip(f"{path} is absent")
    else:
        path = tmp_path
    result = _verify_in_a_capped_child(path)
    assert (result.returncode, result.stdout, result.stderr) == (
        5, "", f"error: {path}: not a regular file\n"
    )


@pytest.mark.parametrize("command", sorted(_WRITING_ARGVS))
def test_out_through_a_symlink_writes_its_target(tmp_path, command):
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_text("old")
    link.symlink_to(target)
    with _inside(tmp_path):
        assert _run_cli(_WRITING_ARGVS["construct"] + ["g16.json"]) == (0, "")
        assert _run_cli(_WRITING_ARGVS[command] + ["direct"]) == (0, "")
        assert _run_cli(_WRITING_ARGVS[command] + [str(link)]) == (0, "")
    assert link.is_symlink() and link.resolve() == target
    assert target.read_text() == (tmp_path / "direct").read_text()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["direct", "g16.json", "link", "target"]


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["construct"],
        ["construct", "--g", "abc", "--alpha", "0/1", "--out", "x.json"],
        ["verify"],
        ["bounds", "--g", "16", "--alpha", "0/1", "--format", "xml"],
        ["bounds", "--g", "16", "--alpha", "0/1", "--bogus"],
        # an option name after --alpha is no value, negative fractions aside
        ["construct", "--g", "16", "--alpha", "--g", "--out", "x.json"],
        ["bounds", "--g", "16", "--alpha", "--format", "csv"],
        ["construct", "--g", "16", "--alpha", "--", "-1/3", "--out", "x.json"],
    ],
)
def test_argument_errors_exit_4_with_one_line(tmp_path, capsys, argv):
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "g_range",
    ["16:1" + "0" * 400 + ":3", "1" + "0" * 400 + ":1" + "0" * 400 + ":2"],
    ids=["max-1e400", "min-and-max-1e400"],
)
def test_g_range_past_the_float_range_exits_4(capsys, g_range):
    # the grid is log-spaced in floats, which end near 1.8e308
    assert main(["bounds", "--g-range", g_range, "--alpha", "0/1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --g-range MAX is too large for a log-spaced grid\n"


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
    new = tmp_path / "schema3.json"
    old = tmp_path / "schema1.json"
    main(["construct", "--g", str(g), "--alpha", alpha, "--out", str(new)])
    old.write_text(json.dumps(_older_schema(json.loads(new.read_text()), 1)))
    capsys.readouterr()
    assert main(["verify", str(new)]) == 0
    stdout = capsys.readouterr().out
    assert main(["verify", str(old)]) == 0
    assert capsys.readouterr().out == stdout
    assert "method=construction" in stdout


def _seeded_subfamily(seed):
    """Random words, in random order, on a random 6 of the 20 necklaces at
    g=100, alpha=0 (h=5: 256 words each), listed necklace by necklace."""
    rng = random.Random(seed)
    surface = plan_composite(100, Fraction(0))
    words = list(product((1, 2, 3, 4), repeat=surface.h - 1))
    curves = tuple(
        Curve(k, word)
        for k in sorted(rng.sample(range(surface.h_prime), 6))
        for word in rng.sample(words, 30)
    )
    return CurveSystem(surface, curves)


def test_sub_family_loads_and_verifies_the_same_in_every_schema(tmp_path, capsys):
    system = _seeded_subfamily(11)
    packed = _write_listed(tmp_path / "schema3.json", system)
    assert packed["schemaVersion"] == 3 and len(packed["curves"]) == 6
    for version in (1, 2):
        path = tmp_path / f"schema{version}.json"
        path.write_text(json.dumps(_older_schema(packed, version)))
    outputs = set()
    for version in (1, 2, 3):
        path = tmp_path / f"schema{version}.json"
        assert load_document(path).system == system
        capsys.readouterr()
        code = main(["verify", str(path)])
        outputs.add((code, capsys.readouterr().out))
    assert len(outputs) == 1
    code, stdout = outputs.pop()
    assert code in (0, 2) and "curves=180" in stdout and "distinct=true" in stdout


@pytest.mark.parametrize(
    "index, key, value, message",
    [
        (0, "words", 12, "curves[0].words must be a nonempty string"),
        (0, "words", "", "curves[0].words must be a nonempty string"),
        (1, "words", "11 15", "curves[1].words must use letters 1-4"),
        (1, "words", "11 1", "curves[1].words holds a word of length 1"),
        (1, "words", "11  12", "curves[1].words holds a word of length 0"),
        (1, "words", "11 12 ", "curves[1].words holds a word of length 0"),
        (1, "necklace", 0, "curves[1].necklace = 0 must exceed the previous necklace 0"),
        (0, "necklace", 2, "curves[1].necklace = 1 must exceed the previous necklace 2"),
        (2, "necklace", 12, "curves[2].necklace = 12 outside [0, 12)"),
        (0, "necklace", -1, "curves[0].necklace = -1 outside [0, 12)"),
        (0, "necklace", 0.0, "curves[0].necklace must be an integer"),
        (1, "necklace", True, "curves[1].necklace must be an integer"),
        (0, "necklace", None, "curves[0].necklace must be an integer"),
        (0, "word", "11", "curves[0] missing key 'words'"),
    ],
)
def test_verify_malformed_packed_curves_exits_5(
    tmp_path, capsys, listed_system, index, key, value, message
):
    # the g=36 family listed (h=3, h'=12): "11 12 ... 44" on each necklace
    out = tmp_path / "packed.json"
    data = _write_listed(out, listed_system(36))
    if key == "word":  # a schema-2 key in place of the packed one
        del data["curves"][index]["words"]
    data["curves"][index][key] = value
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 5
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("report", "mode", "banana", 'report.mode must be "explicit" or "analytic"'),
        ("certificate", "method", "banana", 'certificate.method must be "exhaustive"'),
        (
            "certificate",
            "collision",
            [{"necklace": 99, "word": "11"}, {"necklace": 99, "word": "11"}],
            "certificate.collision[0].necklace = 99 outside [0, 12)",
        ),
    ],
)
def test_verify_bad_report_or_certificate_field_exits_5(
    tmp_path, capsys, listed_system, section, key, value, message
):
    source = tmp_path / "g36.json"
    _write_listed(source, listed_system(36))
    out = tmp_path / "verified.json"
    assert main(["verify", str(source), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    data[section][key] = value
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(out), "--out", str(tmp_path / "again.json")]) == 5
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
    assert not (tmp_path / "again.json").exists()


@pytest.mark.parametrize(
    "content, message",
    [
        (
            b"\xff\xfe{}",
            "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
        ),
        (b"[" * 10 ** 5 + b"]" * 10 ** 5, "JSON nested too deeply"),
    ],
    ids=["not-utf8", "nested-1e5"],
)
def test_verify_unparseable_bytes_exit_5(tmp_path, capsys, content, message):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["verify", str(path)]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("value", ["0/1", "-1/2"])
def test_verify_nonpositive_report_threshold_exits_5(tmp_path, capsys, value):
    doc = tmp_path / "g16.json"
    annotated = tmp_path / "verified.json"
    assert main(["construct", "--g", "16", "--alpha", "0/1", "--out", str(doc)]) == 0
    assert main(["verify", str(doc), "--f", "1/1", "--out", str(annotated)]) == 0
    data = json.loads(annotated.read_text())
    data["report"]["sparsityThreshold"] = {"kind": "rational", "value": value}
    annotated.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(annotated)]) == 5
    err = capsys.readouterr().err
    shown = Fraction(value)
    assert err == f"error: sparsityThreshold.value: threshold must be positive, got {shown}\n"


@pytest.mark.parametrize(
    "spaced, joined",
    [
        (
            ["construct", "--g", "1000", "--alpha", "-1/3", "--out", "{out}"],
            ["construct", "--g", "1000", "--alpha=-1/3", "--out", "{out}"],
        ),
        (
            ["bounds", "--g", "1000", "--alpha", "-1/3,0/1"],
            ["bounds", "--g", "1000", "--alpha=-1/3,0/1"],
        ),
        (
            ["verify", "{doc}", "--f", "-1/2"],
            ["verify", "{doc}", "--f=-1/2"],
        ),
    ],
)
def test_negative_fraction_after_a_space_parses(tmp_path, capsys, spaced, joined):
    doc = tmp_path / "g16.json"
    assert main(["construct", "--g", "16", "--alpha", "0/1", "--out", str(doc)]) == 0
    runs = []
    for argv, out in ((spaced, "a.json"), (joined, "b.json")):
        capsys.readouterr()
        argv = [arg.format(out=tmp_path / out, doc=doc) for arg in argv]
        runs.append((main(argv), capsys.readouterr()))
    (code, captured), (joined_code, joined_captured) = runs
    assert (code, captured.out, captured.err) == (
        joined_code, joined_captured.out, joined_captured.err
    )
    if spaced[0] == "verify":  # the value reaches the threshold check
        assert code == 4 and captured.err == "error: threshold must be positive, got -1/2\n"
    else:
        assert code == 0 and captured.err == ""
    if spaced[0] == "construct":
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_alpha_denominator_past_the_limit_is_refused(tmp_path, capsys):
    doc = tmp_path / "g16.json"
    refusal = "alpha needs a denominator of at most 1000, got 1001"
    assert main(["construct", "--g", "16", "--alpha", "1/1001", "--out", str(doc)]) == 4
    assert capsys.readouterr().err == f"error: {refusal}\n"
    assert not doc.exists()
    assert main(["bounds", "--g", "16", "--alpha", "0/1,1/1001"]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {refusal}\n"
    # the limit itself is admitted, and a document past it is inconsistent
    assert main(["construct", "--g", "16", "--alpha", "1/1000", "--out", str(doc)]) == 0
    data = json.loads(doc.read_text())
    data["surface"]["alpha"] = "1/1001"
    doc.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(doc)]) == 5
    assert capsys.readouterr().err == f"error: inconsistent surface: {refusal}\n"


def test_plans_past_the_necklace_genus_limit_are_refused(tmp_path, capsys):
    # g=10^12, alpha=1 plans h = 5*10^11: 4**(h-1) alone would hold 10^12 bits
    g = 10 ** 12
    out = tmp_path / "c.json"
    refusal = "error: necklace genus h=500000000000 exceeds 100000000"
    assert main(["construct", "--g", str(g), "--alpha", "1/1", "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith(refusal)
    assert not out.exists()
    assert main(["bounds", "--g", str(g), "--alpha", "1/1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(refusal)
    data = _write_listed(out, CurveSystem(plan_composite(16, Fraction(0)), full=True))
    data["surface"] = {"g": g, "alpha": "1/1", "h": g // 2, "hPrime": 2, "baseGenus": 0}
    out.write_text(json.dumps(data))
    assert main(["verify", str(out)]) == 5
    assert capsys.readouterr().err.startswith("error: inconsistent surface: necklace genus")


def test_verify_refuses_a_surface_that_is_not_its_plan(tmp_path, capsys):
    # h = 2 with h' = 18 fits g = 36, but the construction there has h = 3
    # and 192 curves, so a full family on it is not the construction's
    doc = tmp_path / "g36.json"
    surface = {"g": 36, "alpha": "0/1", "h": 2, "hPrime": 18, "baseGenus": 0}
    doc.write_text(json.dumps({"schemaVersion": 3, "surface": surface, "curves": "full"}))
    assert main(["verify", str(doc), "--out", str(tmp_path / "v.json")]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: inconsistent surface: h = 2, but the plan of g = 36, alpha = 0/1 has h = 3\n"
    )
    assert not (tmp_path / "v.json").exists()


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


# `verify` stdout of three constructed documents, byte for byte: a full family
# below the inequality's threshold, and two counts-only families far above it
# whose integers print as [bits=...,log10=...] tokens.
_PINNED_VERIFY = {
    (196, "0/1"): """\
curves=114688
crossings=579833856 pairs=6576611328
average=2247/25486 threshold=g^0 sparse=true mode=explicit
certificate: distinct=true method=construction
inequality: status=not-applicable size_log10=5.05951797930999 threshold_log10=5.19794364881538
""",
    (10 ** 5, "1/1"): """\
curves=[bits=100000,log10=30102.6985364025]
crossings=[bits=200011,log10=60209.1649090429] pairs=[bits=199997,log10=60205.0960428092]
average=11718.34375 threshold=g^1 sparse=true mode=analytic
certificate: distinct=true method=construction
inequality: status=holds size_log10=30102.6985364025 threshold_log10=7.90679471560565 \
left_log10=60207.6702512446 crossings_log10=60209.1649090429
""",
    (10 ** 6, "1/1"): """\
curves=[bits=1000000,log10=301029.694633986]
crossings=[bits=2000014,log10=602064.157117759] pairs=[bits=1999997,log10=602059.088237975]
average=117187.09375 threshold=g^1 sparse=true mode=analytic
certificate: distinct=true method=construction
inequality: status=holds size_log10=301029.694633986 threshold_log10=8.9067966699362 \
left_log10=602062.662652794 crossings_log10=602064.157117759
""",
}


@pytest.mark.parametrize("g, alpha", list(_PINNED_VERIFY))
def test_verify_output_is_pinned_byte_for_byte(tmp_path, capsys, g, alpha):
    out = tmp_path / "system.json"
    assert main(["construct", "--g", str(g), "--alpha", alpha, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out)]) == 0
    assert capsys.readouterr() == (_PINNED_VERIFY[g, alpha], "")


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


def test_bounds_refused_at_a_later_row_writes_nothing(tmp_path, capsys):
    # rows stream into the renderer, but the text is whole before it is written
    out = tmp_path / "t.csv"
    argv = ["bounds", "--g", "16,1000000000", "--alpha", "1/1", "--out", str(out)]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []
    out.write_text("kept\n")
    assert main(argv) == 4
    assert capsys.readouterr().err == captured.err
    assert list(tmp_path.iterdir()) == [out] and out.read_text() == "kept\n"


def test_bounds_g_range_grid(capsys):
    assert main(["bounds", "--g-range", "16:256:3", "--alpha", "0/1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4  # header + 3 rows
    gs = [int(line.split(",")[0]) for line in lines[1:]]
    assert gs == sorted(gs)
    assert gs[0] == 16 and gs[-1] == 256


def test_g_range_count_past_the_limit_exits_4_at_once(capsys):
    count = MAX_GRID_COUNT + 1
    started = time.perf_counter()
    assert main(["bounds", "--g-range", f"16:1000:{count}", "--alpha", "0/1"]) == 4
    assert time.perf_counter() - started < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --g-range COUNT must be at most {MAX_GRID_COUNT}, got {count}\n"


def test_bounds_requires_g(capsys):
    assert main(["bounds", "--alpha", "0/1"]) == 4
    assert "--g" in capsys.readouterr().err


@pytest.mark.parametrize("g_list", ["16,abc", "1.5"])
def test_bounds_non_integer_g_exits_4(capsys, g_list):
    assert main(["bounds", "--g", g_list, "--alpha", "0/1"]) == 4
    assert capsys.readouterr().err.startswith("error: --g must list integers")


@pytest.mark.parametrize("command", ["verify", "bounds"])
@pytest.mark.parametrize("precision", ["0", "-1", "1001", str(10 ** 6)])
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
    if int(precision) < 1:
        assert captured.err.startswith("error: precision must be at least 1 digit")
    else:
        assert captured.err == f"error: precision must be at most 1000 digits, got {precision}\n"


@pytest.mark.parametrize("command", ["verify", "bounds"])
def test_precision_at_the_cap_is_accepted(tmp_path, capsys, command):
    if command == "verify":
        out = tmp_path / "g16.json"
        main(["construct", "--g", "16", "--alpha", "0/1", "--out", str(out)])
        args = ["verify", str(out)]
    else:
        args = ["bounds", "--g", "16", "--alpha", "0/1"]
    capsys.readouterr()
    assert main(args + ["--precision", "1000"]) == 0
    at_cap = capsys.readouterr()
    assert main(args) == 0
    # every printed log10 shows 15 digits, the same at 50 and at 1,000
    assert at_cap.err == "" and at_cap.out == capsys.readouterr().out


def test_bad_alpha_fraction(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert main(["construct", "--g", "16", "--alpha", "zzz", "--out", str(out)]) == 4


# ----------------------------------------------------------------------
# Exit-code gate: mutated argv and documents
# ----------------------------------------------------------------------

# Values every argv position may receive.  Integers stay small or lie past the
# int-to-str limit (refused on parse): a valid huge genus or precision would
# make a legitimate run astronomically long.
_HOSTILE_ARGS = [
    "abc", "", "-1", "0", "1.5", "1/0", "2/1", "-1/1", "1/2", "16", "16,zz",
    "0/1,abc", "x:y:z", "256:16:3", "gpow", "json", "--bogus", "--g", "--out",
    "1", "1000", "1001", "1/1000", "1/1001", "-999/1000", "1" * 5000, "1e4300",
    "1e-4300", "99e4299", "1e4299", f"16:1000:{MAX_GRID_COUNT + 1}",
    # a genus every alpha refuses at planning; one between 2*10**8 and this
    # would plan within the limits and cost seconds
    "1" + "0" * 30,
]
_BASE_ARGVS = [
    ["construct", "--g", "36", "--alpha", "0/1", "--out", "c.json"],
    ["construct", "--g", "100000", "--alpha", "1/1", "--out", "c.json"],
    ["verify", "{small}", "--f", "gpow", "--precision", "20", "--out", "v.json"],
    ["verify", "{big}", "--out", "v.json"],
    ["bounds", "--g", "16,64", "--alpha", "0/1,1/1", "--format", "json"],
    ["bounds", "--g-range", "16:256:3", "--alpha", "1/2", "--precision", "20"],
]
# Values every document field may receive; the last is past the digit limit
# and is spliced into the JSON text as a literal.
_HUGE_LITERAL = "1" + "0" * 4300
_HOSTILE_FIELDS = [
    10 ** 4300 - 1, -1, 0, 1, 2, 1.5, "x", "1/2", "full", True, None, [], {},
    _HUGE_LITERAL,
]


@contextlib.contextmanager
def _inside(path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def _run_cli(argv) -> tuple[int, str]:
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stderr.getvalue()


def _assert_contract(code: int, stderr: str) -> None:
    assert code in (0, 2, 3, 4, 5)
    assert all(line.startswith("error: ") for line in stderr.splitlines()), stderr


@pytest.fixture(scope="module")
def gate_documents(tmp_path_factory):
    """An annotated g=36 document; 40 listed g=36 curves, packed (schema 3) and
    one object per curve (schema 2); the same packed curves with duplicates on
    two necklaces, annotated with the collision; and a g=10^4, alpha=1 one."""
    root = tmp_path_factory.mktemp("gate")
    with _inside(root):
        assert _run_cli(["construct", "--g", "36", "--alpha", "0/1", "--out", "s.json"])[0] == 0
        assert _run_cli(["verify", "s.json", "--out", "small.json"])[0] == 0
        assert _run_cli(["construct", "--g", "10000", "--alpha", "1/1", "--out", "big.json"])[0] == 0
    full = load_document(root / "s.json").system
    curves = tuple(full.iter_curves())[:40]
    save_document(SystemDocument(CurveSystem(full.surface, curves)), root / "listed.json")
    listed = json.loads((root / "listed.json").read_text())
    (root / "listed2.json").write_text(json.dumps(_older_schema(listed, 2)))
    twice = CurveSystem(full.surface, curves + (curves[20], curves[3]))
    save_document(SystemDocument(twice), root / "twice.json")
    with _inside(root):
        assert _run_cli(["verify", "twice.json", "--out", "collided.json"])[0] == 3
    return root, {
        name: json.loads((root / f"{name}.json").read_text())
        for name in ("small", "listed", "listed2", "collided", "big")
    }


def _mutate_argv(argv, edits):
    argv = list(argv)
    for kind, index, value in edits:
        i = index % (len(argv) + 1)
        if kind == "insert":
            argv.insert(i, value)
        elif i < len(argv):
            if kind == "delete":
                del argv[i]
            else:
                argv[i] = value
    return argv


_edits = st.lists(
    st.tuples(
        st.sampled_from(["replace", "delete", "insert"]),
        st.integers(min_value=0, max_value=12),
        st.sampled_from(_HOSTILE_ARGS),
    ),
    min_size=1,
    max_size=2,
)


@settings(max_examples=60, deadline=None)
@given(base=st.sampled_from(_BASE_ARGVS), edits=_edits)
def test_cli_contract_under_mutated_argv(gate_documents, base, edits):
    root, _ = gate_documents
    argv = [arg.format(small="small.json", big="big.json") for arg in base]
    with _inside(root):
        _assert_contract(*_run_cli(_mutate_argv(argv, edits)))


# (g, alpha) whose plan needs a necklace past MAX_NECKLACE_GENUS: h = g // 2 at
# alpha = 1 for g > 2*10**8 + 1, and h = isqrt(g) // 2 >= 1.58*10**8 at
# alpha = 0 from g = 10**17 (just above 4*10**16, h is exactly 10**8 and the
# plan is accepted).  Every draw refuses at planning, so none costs seconds.
_PAST_NECKLACE_LIMIT = st.one_of(
    st.tuples(st.integers(2 * MAX_NECKLACE_GENUS + 2, 10 ** 30), st.just("1/1")),
    st.tuples(st.integers(10 ** 17, 10 ** 30), st.just("0/1")),
)


@settings(max_examples=30, deadline=None)
@given(plan=_PAST_NECKLACE_LIMIT)
def test_cli_refuses_plans_past_the_necklace_limit(gate_documents, plan):
    root, _ = gate_documents
    g, alpha = plan
    h = g // 2 if alpha == "1/1" else math.isqrt(g) // 2
    for argv in (
        ["construct", "--g", str(g), "--alpha", alpha, "--out", "past.json"],
        ["bounds", "--g", str(g), "--alpha", alpha],
    ):
        with _inside(root):
            code, stderr = _run_cli(argv)
        assert code == 4
        assert stderr == (
            f"error: necklace genus h={h} exceeds {MAX_NECKLACE_GENUS}: "
            "its exact counts cannot be held\n"
        )
    assert not (root / "past.json").exists()


def _paths(node, prefix=()):
    """Every key path of a JSON tree, containers included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutate_document(data, edits) -> str:
    data = json.loads(json.dumps(data))
    for pick, value, delete in edits:
        paths = list(_paths(data))
        if not paths:
            break
        *parents, key = paths[pick % len(paths)]
        node = data
        for step in parents:
            node = node[step]
        if delete and isinstance(node, dict):
            del node[key]
        else:
            node[key] = "@huge@" if value == _HUGE_LITERAL else value
    return json.dumps(data).replace('"@huge@"', _HUGE_LITERAL)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["small", "listed", "listed2", "collided", "big"]),
    edits=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10 ** 6),
            st.sampled_from(_HOSTILE_FIELDS),
            st.booleans(),
        ),
        min_size=1,
        max_size=2,
    ),
    write=st.booleans(),
)
def test_cli_contract_under_mutated_documents(gate_documents, name, edits, write):
    root, documents = gate_documents
    (root / "mutated.json").write_text(_mutate_document(documents[name], edits))
    argv = ["verify", "mutated.json"] + (["--out", "out.json"] if write else [])
    with _inside(root):
        _assert_contract(*_run_cli(argv))


# Raw-byte edits: bytes that are not UTF-8, a truncated document and an array
# nested past the parser's recursion limit.  Each is a document fault.
_INVALID_UTF8 = [b"\xff", b"\xfe\xff", b"\x80", b"\xc3", b"\xed\xa0\x80"]
_DEEP_ARRAY = "[" * 10 ** 5 + "]" * 10 ** 5


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["small", "listed", "listed2", "collided", "big"]),
    edit=st.sampled_from(["not-utf8", "truncate", "deep"]),
    offset=st.integers(min_value=0, max_value=10 ** 6),
    invalid=st.sampled_from(_INVALID_UTF8),
    write=st.booleans(),
)
def test_cli_contract_under_raw_byte_edits(gate_documents, name, edit, offset, invalid, write):
    root, documents = gate_documents
    text = json.dumps(documents[name]).encode("ascii")  # ends with its closing brace
    if edit == "not-utf8":
        cut = offset % (len(text) + 1)
        raw = text[:cut] + invalid + text[cut:]
    elif edit == "truncate":
        raw = text[: offset % len(text)]
    else:
        mutated = _mutate_document(documents[name], [(offset, "@deep@", False)])
        raw = mutated.replace('"@deep@"', _DEEP_ARRAY).encode("ascii")
    (root / "raw.json").write_bytes(raw)
    argv = ["verify", "raw.json"] + (["--out", "raw-out.json"] if write else [])
    with _inside(root):
        code, stderr = _run_cli(argv)
        assert not os.path.exists("raw-out.json")
    assert code == 5
    assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr


def test_verify_decides_a_large_denominator_verdict_in_seconds(tmp_path, capsys):
    # g**(999/1000) against totals of about 80,000 bits, whose 1,000th powers
    # take most of a minute; their leading bits decide it in milliseconds
    doc = tmp_path / "g40000.json"
    assert main(["construct", "--g", "40000", "--alpha", "999/1000", "--out", str(doc)]) == 0
    started = time.perf_counter()
    assert main(["verify", str(doc)]) == 0
    assert time.perf_counter() - started < 5
    assert "average=4662.25 threshold=g^999/1000 sparse=true" in capsys.readouterr().out


_EXPONENT_REFUSAL = "decimal exponent beyond 4300 in absolute value"


def test_exponent_past_the_digit_limit_is_refused(tmp_path, capsys):
    doc = tmp_path / "g16.json"
    assert main(["construct", "--g", "16", "--alpha", "0/1", "--out", str(doc)]) == 0
    capsys.readouterr()
    assert main(["verify", str(doc), "--f", "1e-5000"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --f must be an exact fraction like 1/2, got '1e-5000': {_EXPONENT_REFUSAL}\n"
    )
    # refused before Fraction builds 10**N, which at this size would never end
    started = time.perf_counter()
    assert main(["construct", "--g", "16", "--alpha", "1e99999999999", "--out", "x.json"]) == 4
    assert time.perf_counter() - started < 5
    assert capsys.readouterr().err.count("\n") == 1
    data = json.loads(doc.read_text())
    data["surface"]["alpha"] = "1e-5000"
    doc.write_text(json.dumps(data))
    assert main(["verify", str(doc)]) == 5
    assert capsys.readouterr().err == f"error: surface.alpha: {_EXPONENT_REFUSAL}\n"


_DIGITS_REFUSAL = "value has more than 4300 decimal digits"


@pytest.mark.parametrize("text", ["1e4300", "1e-4300", "99e4299"])
def test_fraction_past_the_digit_limit_is_refused(tmp_path, capsys, text):
    # each parses to a numerator or denominator of 4,301 digits, which could
    # not be printed back in the report's threshold= field
    doc = tmp_path / "g16.json"
    annotated = tmp_path / "verified.json"
    assert main(["construct", "--g", "16", "--alpha", "0/1", "--out", str(doc)]) == 0
    assert main(["verify", str(doc), "--out", str(annotated)]) == 0
    capsys.readouterr()
    assert main(["verify", str(doc), "--f", text]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --f must be an exact fraction like 1/2, got {text!r}: {_DIGITS_REFUSAL}\n"
    )
    data = json.loads(annotated.read_text())
    data["report"]["sparsityThreshold"] = {"kind": "rational", "value": text}
    annotated.write_text(json.dumps(data))
    assert main(["verify", str(annotated)]) == 5
    assert capsys.readouterr().err == f"error: sparsityThreshold.value: {_DIGITS_REFUSAL}\n"
    data = json.loads(doc.read_text())
    data["surface"]["alpha"] = text
    doc.write_text(json.dumps(data))
    assert main(["verify", str(doc)]) == 5
    assert capsys.readouterr().err == f"error: surface.alpha: {_DIGITS_REFUSAL}\n"


def test_fraction_at_the_digit_limit_is_read(tmp_path, capsys):
    doc = tmp_path / "g16.json"
    assert main(["construct", "--g", "16", "--alpha", "0/1", "--out", str(doc)]) == 0
    capsys.readouterr()
    assert main(["verify", str(doc), "--f", "1e4299"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert f"threshold={10 ** 4299} " in captured.out


@pytest.fixture(scope="module")
def verified_g20000(tmp_path_factory):
    """The `verify --out` document of the full family at g = 20000, alpha = 1."""
    root = tmp_path_factory.mktemp("g20000")
    with _inside(root):
        assert _run_cli(["construct", "--g", "20000", "--alpha", "1/1", "--out", "g.json"])[0] == 0
        assert _run_cli(["verify", "g.json", "--out", "v.json"])[0] == 0
    return root / "v.json"


_LONG = "x" * 10 ** 6


@pytest.mark.parametrize(
    "path",
    [
        ("report", "totalCrossings"),
        ("report", "sparsityThreshold", "kind"),
        ("schemaVersion",),
        ("report", "sparsityThreshold", "value"),
        ("surface", "alpha"),
        ("report", "mode"),
        ("certificate", "method"),
        ("curves",),
        None,
        # argparse's own messages quote a rejected value whole
        ["construct", "--g", "x" * 10 ** 5],
        ["bounds", "--g", "16", "--format", "y" * 10 ** 5],
        ["verify", "doc.json", "--precision", "9" * 10 ** 5],
        ["bounds", "--g", "16", "--alpha", "0/1", "--bogus", "z" * 1000],
    ],
    ids=[
        "totalCrossings", "threshold-kind", "schemaVersion", "threshold-value",
        "surface-alpha", "report-mode", "certificate-method", "curves[0]", "argument-f",
        "argparse-g", "argparse-format", "argparse-precision", "argparse-unknown",
    ],
)
def test_an_error_line_cuts_a_long_value(verified_g20000, tmp_path, path):
    # each value is echoed in the error line; a million characters of it
    # once made a line of a megabyte
    data = json.loads(verified_g20000.read_text())
    if isinstance(path, list):
        argv, exit_code = path, 4
    elif path is None:
        argv, exit_code = ["verify", str(verified_g20000), "--f", _LONG[: 10 ** 5]], 4
    else:
        *parents, key = path
        node = data
        for parent in parents:
            node = node[parent]
        node[key] = [_LONG] if path == ("curves",) else _LONG
        doc = tmp_path / "long.json"
        doc.write_text(json.dumps(data))
        argv, exit_code = ["verify", str(doc)], 5
    code, stderr = _run_cli(argv)
    assert code == exit_code
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert len(stderr.encode()) < 400, stderr


def _readme_command_lines() -> list[list[str]]:
    """The argv of every `sparse-curves ...` line in README's "Command line" block."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("sparse-curves ")
    ]


def test_readme_command_lines_exit_0(tmp_path):
    argvs = _readme_command_lines()
    assert argvs
    with _inside(tmp_path):
        for argv in argvs:
            assert _run_cli(argv) == (0, ""), argv


# exit code, then whether mpmath, dataclasses and inspect are loaded
_REPORTS_IMPORTS = (
    "import sys; from sparsecurves import cli; code = cli.main(sys.argv[1:]); "
    "print(code, *(name in sys.modules for name in ('mpmath', 'dataclasses', 'inspect')))"
)


@pytest.fixture(scope="module")
def cli_imports(tmp_path_factory):
    """What each command leaves loaded, each run in a fresh interpreter."""
    work = tmp_path_factory.mktemp("imports")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    loaded = {}
    for argv in (
        ["construct", "--g", "196", "--alpha", "0/1", "--out", "g196.json"],
        ["verify", "g196.json"],
        ["bounds", "--g", "196", "--alpha", "0/1"],
    ):
        result = subprocess.run(
            [sys.executable, "-c", _REPORTS_IMPORTS, *argv],
            cwd=work, env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        code, *flags = result.stdout.splitlines()[-1].split()
        loaded[argv[0]] = (int(code), *(flag == "True" for flag in flags))
    return loaded


def test_no_command_loads_mpmath(cli_imports):
    # every enclosure is a pair of decimal.Decimal endpoints
    assert {command: loaded[:2] for command, loaded in cli_imports.items()} == {
        "construct": (0, False), "verify": (0, False), "bounds": (0, False),
    }


def test_no_command_loads_dataclasses_or_inspect(cli_imports):
    # each costs tens of milliseconds of start-up in every CLI process
    assert {command: loaded[2:] for command, loaded in cli_imports.items()} == {
        "construct": (False, False), "verify": (False, False), "bounds": (False, False),
    }
