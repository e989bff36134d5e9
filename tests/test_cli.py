"""End-to-end tests of the command line: exit codes, JSON shapes, determinism."""
import argparse
import contextlib
import importlib.util
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import compext
from compext import (
    DomainError,
    ExtScanReport,
    LinearFractionalMap,
    SpaceSpec,
    build_witness,
    cli,
    composition_matrix,
    format_lft,
    operators,
    parse_lft,
    ratio_set,
    standard_form,
)
from compext.cli import main
from compext.extspec import RELIABILITY_TOL, WITNESSES, CheckRow


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:  # argparse errors exit instead of returning
        rc = exc.code
    return rc, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# classify


def test_classify_reports_class_and_config():
    rc, out, _ = run(["classify", "--phi", "1,0.5,0.5,1"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["result"]["class"] == "hyperbolic-automorphism"
    assert doc["config"]["phi"] == "1.0,0.5,0.5,1.0"  # canonical echo
    assert doc["config"]["command"] == "classify"
    assert "timestamp" in doc


def test_classify_accepts_non_self_maps():
    rc, out, _ = run(["classify", "--phi", "2,0,0,1"])
    assert rc == 0
    assert json.loads(out)["result"]["class"] == "not-self-map"


def test_classify_reports_fixed_points_and_multiplier():
    rc, out, _ = run(["classify", "--phi", "1,0.5,0.5,1"])
    doc = json.loads(out)["result"]
    assert doc["self_map"] is True
    assert doc["fock_symbol"] is False
    assert len(doc["fixed_points"]) == 2


def test_classify_encodes_missing_points_as_null():
    rc, out, _ = run(["classify", "--phi=1,0,0,1"])
    assert rc == 0
    doc = json.loads(out)["result"]
    assert doc["class"] == "identity"
    assert doc["fixed_points"] == [] and doc["multiplier"] is None
    # the affine map 0.5 z + 0.25 fixes 0.5 and infinity
    rc, out, _ = run(["classify", "--phi=0.5,0.25,0,1"])
    assert json.loads(out)["result"]["fixed_points"] == [[0.5, 0.0], None]


def test_bad_complex_literal_exits_two():
    rc, _, err = run(["classify", "--phi", "1,zebra,0,1"])
    assert rc == 2


def test_degenerate_map_exits_two():
    rc, _, err = run(["classify", "--phi", "1,2,2,4"])
    assert rc == 2
    assert "argument --phi: ad - bc = 0j is negligible" in err


# ---------------------------------------------------------------------------
# matrix / eigs


def test_matrix_json_and_matrix_market(tmp_path):
    rc, out, _ = run(["matrix", "--phi", "0.5,1,0,1", "--space", "fock", "--n", "8"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["result"]["order"] == 8
    # the entries, row-major [re, im] pairs, are the truncation's bit for bit
    C = composition_matrix(LinearFractionalMap(0.5, 1, 0, 1), SpaceSpec("fock"), 8)
    entries = np.array(doc["result"]["entries"])
    assert np.array_equal(entries[:, 0] + 1j * entries[:, 1], C.entries.ravel())
    assert doc["result"]["space"] == {"kind": "fock", "alpha": 1.0}
    rc, out, _ = run(
        ["matrix", "--phi", "0.5,1,0,1", "--space", "fock", "--n", "8",
         "--format", "mm"]
    )
    assert rc == 0
    assert out.startswith("%%MatrixMarket")
    assert "np.float" not in out


def test_matrix_json_entries_are_flat_row_major_pairs():
    rc, out, _ = run(["matrix", "--phi", "0.5i,0.1,0.2,1", "--n", "8", "--format", "json"])
    assert rc == 0
    C = composition_matrix(LinearFractionalMap(0.5j, 0.1, 0.2, 1), SpaceSpec("bergman"), 8)
    entries = json.loads(out)["result"]["entries"]
    assert len(entries) == 64 and all(len(pair) == 2 for pair in entries)
    assert [complex(*pair) for pair in entries] == C.entries.ravel().tolist()


def test_matrix_with_witness():
    rc, out, _ = run(
        ["matrix", "--phi", "i,0,0,1", "--space", "fock", "--n", "8",
         "--witness", "shift:2"]
    )
    assert rc == 0
    assert json.loads(out)["result"]["label"] == "X_2"


def test_matrix_rejects_non_self_map():
    rc, _, err = run(["matrix", "--phi", "2,0,0,1", "--space", "bergman", "--n", "8"])
    assert rc == 1
    assert "self-map" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv, alpha",
    [
        (["matrix", "--alpha", "0.01"], "0.01"),  # n!/alpha^n overflows
        (["extcheck", "--alpha", "1e6", "--witness", "identity", "--lam", "1"], "1e+06"),  # underflows to 0
    ],
    ids=["overflow", "underflow"],
)
def test_fock_norms_out_of_float_range_are_a_domain_error(argv, alpha):
    rc, out, err = run(argv + ["--phi", "0.5,0,0,1", "--space", "fock", "--n", "256"])
    assert rc == 1 and out == ""
    assert f"alpha = {alpha}, order 256" in err


def test_order_bounds_are_enforced():
    rc, _, _ = run(["matrix", "--phi", "i,0,0,1", "--space", "fock", "--n", "4"])
    assert rc == 2
    rc, _, _ = run(["matrix", "--phi", "i,0,0,1", "--space", "fock", "--n", "512"])
    assert rc == 2


def test_eigs_reliability_report():
    rc, out, _ = run(["eigs", "--phi", "0.5,1,0,1", "--space", "fock", "--n", "16"])
    assert rc == 0
    res = json.loads(out)["result"]
    assert len(res["eigenvalues"]) == 16
    assert len(res["reliable"]) == 16
    assert 0 < res["reliable_count"] <= 16
    assert res["ratio_set"]["count"] >= 1
    assert len(res["ratio_set"]["sample"]) <= 64


@pytest.mark.parametrize(
    "phi, space",
    [("0.8090169943749475+0.5877852522924731i,0,0,1", "bergman"), ("1,0.5,0.5,1", "bergman"),
     ("0.5,1,0,1", "fock")],
)
def test_eigs_computes_one_eigendecomposition(monkeypatch, phi, space):
    calls = []
    inner = operators._eig_with_reliability

    def counting(A):
        calls.append(A.order)
        return inner(A)

    monkeypatch.setattr(operators, "_eig_with_reliability", counting)
    rc, out, _ = run(["eigs", "--phi", phi, "--space", space, "--n", "24"])
    assert rc == 0
    assert calls == [24]
    assert json.loads(out)["result"]["ratio_set"]["count"] >= 1


# ---------------------------------------------------------------------------
# extcheck


def test_extcheck_passing_witness():
    rc, out, _ = run(
        ["extcheck", "--phi", "i,0,0,1", "--space", "fock", "--n", "12",
         "--witness", "shift:1", "--lam=-i"]
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["result"]["passed"] is True
    assert doc["result"]["residual"] <= 1e-12
    assert doc["config"]["lam"] == "0.0-1.0i"


def test_extcheck_failing_witness_still_exits_zero():
    rc, out, _ = run(
        ["extcheck", "--phi", "i,0,0,1", "--space", "fock", "--n", "12",
         "--witness", "shift:1", "--lam", "i"]
    )
    assert rc == 0
    assert json.loads(out)["result"]["passed"] is False


# one standard symbol per resolved (space, class) pair, by its class label
VERIFY_SYMBOLS = {
    "fock-rotation": (LinearFractionalMap(np.exp(2j * np.pi / 7), 0, 0, 1), "fock"),
    "fock-affine-contraction": (LinearFractionalMap(0.5, 1, 0, 1), "fock"),
    "elliptic-automorphism": (standard_form("elliptic-automorphism", w=np.exp(2j * np.pi / 5)), "bergman"),
    "hyperbolic-automorphism": (standard_form("hyperbolic-automorphism", r=0.5), "bergman"),
    "hyperbolic-na-1": (standard_form("hyperbolic-na-1", r=0.5), "bergman"),
    "hyperbolic-na-3": (standard_form("hyperbolic-na-3", a=0.5, c=0.2), "bergman"),
    "loxodromic": (standard_form("loxodromic", a=0.5j, c=0.2), "bergman"),
    "parabolic-automorphism": (standard_form("parabolic-automorphism", a=2j), "bergman"),
}


@pytest.mark.parametrize("label", VERIFY_SYMBOLS)
def test_extcheck_reproduces_every_verify_row(label):
    # each verify row, re-read by extcheck with the same witness, lambda,
    # margin and threshold, gives the same six values, byte for byte.  lambda
    # goes as x+yi text that keeps the sign of a zero imaginary part, which
    # format_complex drops
    phi, space = VERIFY_SYMBOLS[label]
    symbol = ["--phi=" + format_lft(phi), "--space", space, "--n", "16"]
    rc, out, _ = run(["verify"] + symbol + ["--points", "16"])
    assert rc in (0, 1)
    result = json.loads(out)["result"]
    assert result["class"] == label
    rows = result["rows"]
    assert rows
    for row in rows:
        re_lam, im_lam = row["lambda"]
        rc, out, _ = run(["extcheck"] + symbol + [
            "--witness", row["witness"], f"--lam={re_lam!r}{im_lam:+}i",
            "--margin", str(row["margin"]), f"--threshold={row['threshold']!r}"])
        assert rc == 0
        want = {key: value for key, value in row.items() if key != "check"}
        assert json.dumps(json.loads(out)["result"], sort_keys=True) == json.dumps(want, sort_keys=True)


# ---------------------------------------------------------------------------
# extscan


def test_extscan_writes_json_and_csv(tmp_path):
    out_path = tmp_path / "scan.json"
    rc, out, _ = run(
        ["extscan", "--phi", "i,0,0,1", "--space", "fock", "--n", "16",
         "--grid", "circle", "--points", "64", "--out", str(out_path)]
    )
    assert rc == 0
    saved = json.loads(out_path.read_text())
    assert saved["result"]["flagged_count"] >= 4  # the four powers of i
    csv_path = tmp_path / "scan.grid.csv"
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 65
    assert "np.float" not in csv_path.read_text()


def test_extscan_is_deterministic_up_to_timestamp(tmp_path):
    argv = ["extscan", "--phi", "0.5,1,0,1", "--space", "fock", "--n", "16",
            "--grid", "annulus", "--rmin", "0.3", "--rmax", "3.0",
            "--points", "80", "--seed", "7"]
    docs, csvs = [], []
    for tag in ("a", "b"):
        out_path = tmp_path / f"{tag}.json"
        rc, _, _ = run(argv + ["--out", str(out_path)])
        assert rc == 0
        doc = json.loads(out_path.read_text())
        doc.pop("timestamp")
        doc["config"].pop("out")  # the two runs write to different paths
        docs.append(doc)
        csvs.append((tmp_path / f"{tag}.grid.csv").read_bytes())
    assert docs[0] == docs[1]
    assert csvs[0] == csvs[1]


def test_extscan_embeds_rows_without_out():
    rc, out, _ = run(
        ["extscan", "--phi", "i,0,0,1", "--space", "fock", "--n", "12",
         "--grid", "circle", "--points", "32"]
    )
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["result"]["rows"]) == 32


def test_extscan_prediction_gate():
    argv = ["extscan", "--phi", "1,0.5,0.5,1", "--space", "hardy", "--n", "16",
            "--grid", "circle", "--points", "32"]
    rc, out, _ = run(argv)
    assert rc == 0  # scans run fine without a prediction
    doc = json.loads(out)["result"]
    assert doc["predicted"] is None
    assert "prediction unresolved: no prediction on hardy space" in doc["notes"]
    rc, _, err = run(argv + ["--require-prediction"])
    assert rc == 1


def test_extscan_prediction_has_a_base_only_when_discrete_cyclic():
    grid = ["--n", "16", "--grid", "circle", "--points", "32"]
    rc, out, _ = run(["extscan", "--phi", "1,0.5,0.5,1", "--space", "bergman"] + grid)
    assert rc == 0
    predicted = json.loads(out)["result"]["predicted"]
    assert predicted["kind"] == "unit-circle" and "base" not in predicted
    rc, out, _ = run(["extscan", "--phi", "i,0,0,1", "--space", "fock"] + grid)
    predicted = json.loads(out)["result"]["predicted"]
    assert predicted["kind"] == "discrete-cyclic" and predicted["base"] == [0.0, 1.0]


def test_extscan_marks_skipped_probes(tmp_path):
    # above order 128 the Sylvester probe is skipped at every point
    argv = ["extscan", "--phi", "i,0,0,1", "--space", "fock", "--n", "160", "--points", "16"]
    rc, out, _ = run(argv)
    assert rc == 0
    doc = json.loads(out)["result"]
    assert [row[3] for row in doc["rows"]] == [None] * 16
    rc, _, _ = run(argv + ["--out", str(tmp_path / "scan.json")])
    assert rc == 0
    lines = (tmp_path / "scan.grid.csv").read_text().splitlines()
    assert [line.split(",")[3] for line in lines[1:]] == ["nan"] * 16


def test_extscan_candidates_and_seed_are_checked_at_parse_time():
    base = ["extscan", "--phi", "0.5,0,0,1", "--space", "bergman", "--n", "64", "--points", "16"]
    for bad in (["--candidates", "-5"], ["--candidates", "some"], ["--candidates", "2.5"], ["--seed", "-1"]):
        rc, out, err = run(base + bad)
        assert rc == 2 and out == "", bad
        assert bad[0] in err
    rc, _, _ = run(["classify", "--phi", "0.5,0,0,1", "--seed", "-1"])
    assert rc == 2
    # the accepted forms: 'all', and any integer >= 0, which bounds the probed points
    rotation = ["extscan", "--phi", "i,0,0,1", "--space", "fock", "--n", "12", "--points", "16"]
    for budget, probed in (("all", 16), ("0", 0), ("3", 3)):
        rc, out, _ = run(rotation + ["--candidates", budget, "--seed", "0"])
        assert rc == 0
        doc = json.loads(out)["result"]
        assert doc["candidates"] == (budget if budget == "all" else int(budget))
        assert sum(row[3] is not None for row in doc["rows"]) == probed


@pytest.mark.parametrize("argv", [
    ["classify"],
    ["matrix", "--n", "8", "--format", "mm"],
    ["eigs", "--n", "8"],
    ["extcheck", "--n", "8", "--witness", "identity", "--lam", "1"],
], ids=lambda argv: argv[0])
def test_only_the_probing_commands_take_a_seed(argv):
    argv = argv[:1] + ["--phi", "0.5,0,0,1"] + argv[1:]
    rc, out, err = run(argv + ["--seed", "0"])
    assert (rc, out) == (2, "")
    assert "unrecognized arguments: --seed 0" in err
    rc, out, _ = run(argv)
    assert rc == 0
    if argv[0] != "matrix":  # the Matrix Market text has no config echo
        assert "seed" not in json.loads(out)["config"]


def test_verify_checks_its_seed_and_echoes_it():
    argv = ["verify", "--phi", "i,0,0,1", "--space", "fock", "--n", "16", "--points", "16"]
    rc, out, err = run(argv + ["--seed", "-1"])
    assert (rc, out) == (2, "") and "--seed" in err
    rc, out, _ = run(argv + ["--seed", "3"])
    assert rc == 0 and json.loads(out)["config"]["seed"] == 3


def _replay_argv(config: dict) -> list:
    """A config echo back as a command line: the command, then --key=value
    for each option (_ as -), a bare --key for true, nothing for null or false."""
    config = dict(config)
    argv = [config.pop("command")]
    for key, value in sorted(config.items()):
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif value is not None and value is not False:
            argv.append(f"{flag}={value}")
    return argv


def _bits(phi: str) -> list:
    """The coefficients of phi as hex floats, so that a sign of zero counts."""
    f = parse_lft(phi)
    return [(z.real.hex(), z.imag.hex()) for z in (f.a, f.b, f.c, f.d)]


@pytest.mark.parametrize("argv", [
    ["classify", "--phi", "1,0.5,0.5,1"],
    ["matrix", "--phi", "0.5,0.1,0,1", "--n", "8", "--format", "json", "--witness", "shift:2"],
    ["eigs", "--phi", "0.5,1,0,1", "--space", "fock", "--alpha", "2", "--n", "12"],
    ["extcheck", "--phi", "i,0,0,1", "--space", "fock", "--n", "12", "--witness", "shift:1",
     "--lam=-i", "--margin", "2"],
    ["extscan", "--phi", "i,0,0,1", "--space", "fock", "--n", "12", "--grid", "annulus",
     "--rmin", "0.5", "--rmax", "2", "--points", "32", "--candidates", "3", "--seed", "4"],
    ["verify", "--phi", "i,0,0,1", "--space", "fock", "--n", "16", "--points", "16", "--seed", "5"],
    # -0i and -0 parse to zeros with their sign bit set
    pytest.param(["extcheck", "--phi", ".5i,-0i,-0,1", "--n", "8", "--lam=i", "--witness", "mult:cayley,.5i"],
                 id="signed-zeros"),
], ids=lambda argv: argv[0])
def test_every_config_echo_replays_its_run(argv):
    # the echo is the parsed command line: fed back, it reproduces the run,
    # and its phi reads back to the same coefficients, bit for bit
    stamp = re.compile(r'"timestamp": "[^"]*"')
    rc, out, err = run(argv)
    config = json.loads(out)["config"]
    assert _bits(config["phi"]) == _bits(argv[argv.index("--phi") + 1])
    replay = _replay_argv(config)
    rc2, out2, err2 = run(replay)
    assert (rc2, err2) == (rc, err), replay
    assert stamp.sub("", out2) == stamp.sub("", out)


def test_unwritable_out_is_an_argument_error(tmp_path):
    missing = tmp_path / "missing"
    phi = ["--phi", "0.5,0,0,1", "--n", "8"]
    for argv, path in (
        # extscan writes its CSV first
        (["extscan", *phi, "--space", "hardy", "--points", "16", "--out", f"{missing}/x.json"], missing / "x.grid.csv"),
        (["matrix", *phi, "--format", "mm", "--out", f"{missing}/x.mtx"], missing / "x.mtx"),
        (["matrix", *phi, "--out", f"{missing}/x.json"], missing / "x.json"),
    ):
        rc, out, err = run(argv)
        assert (rc, out) == (2, "")
        assert err == f"error: cannot write {path}: No such file or directory\n"
    assert not missing.exists()


def test_extscan_bad_grid_exits_two():
    rc, _, _ = run(
        ["extscan", "--phi", "i,0,0,1", "--space", "fock", "--n", "12",
         "--grid", "annulus", "--rmin", "2.0", "--rmax", "1.0",
         "--points", "32"]
    )
    assert rc == 2


# ---------------------------------------------------------------------------
# verify


def test_verify_rotation_exits_zero():
    rc, out, err = run(
        ["verify", "--phi", "i,0,0,1", "--space", "fock", "--n", "16",
         "--points", "56"]
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["result"]["passed"] is True
    assert "PASS" in err  # human-readable table goes to stderr


def test_verify_hyperbolic_exits_one():
    rc, out, err = run(
        ["verify", "--phi", "1,0.5,0.5,1", "--space", "bergman", "--n", "32",
         "--points", "200"]
    )
    assert rc == 1
    doc = json.loads(out)
    assert doc["result"]["passed"] is False
    assert "FAIL" in err


def test_verify_unresolved_exits_three():
    rc, _, err = run(
        ["verify", "--phi", "1,0.5,0.5,1", "--space", "hardy", "--n", "16"]
    )
    assert rc == 3


# ---------------------------------------------------------------------------
# the parser: main adds arguments only to the command it runs


def _subparsers(ap: argparse.ArgumentParser) -> argparse._SubParsersAction:
    return next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))


def _parser_with_every_command(build_parser) -> argparse.ArgumentParser:
    """The reference: build_parser's parser with every command's subparser
    populated from cli.COMMANDS, as one parser for all commands is."""
    ap = build_parser(None)
    choices = _subparsers(ap).choices
    for name, _, add_arguments, func in cli.COMMANDS:
        cli._add_common(choices[name])
        add_arguments(choices[name])
        choices[name].set_defaults(func=func)
    return ap


def _run_parsed(monkeypatch, argv):
    """run(argv), the timestamp masked, and the options main parsed (func
    left out): one dict, or none when parsing exits."""
    parsed = []
    parse_args = argparse.ArgumentParser.parse_args

    def recording(self, *args, **kwargs):
        ns = parse_args(self, *args, **kwargs)
        parsed.append({k: v for k, v in vars(ns).items() if k != "func"})
        return ns

    with monkeypatch.context() as m:
        m.setattr(argparse.ArgumentParser, "parse_args", recording)
        rc, out, err = run(argv)
    return rc, re.sub(r'"timestamp": "[^"]*"', "", out), err, parsed


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h", "extcheck"], ["bogus"],
    ["classify", "--help"], ["matrix", "--help"], ["eigs", "--help"],
    ["extcheck", "--help"], ["extscan", "--help"], ["verify", "--help"],
    # an option before the command, and -- before it
    ["--phi=0.5,0,0,1", "classify"], ["--", "classify", "--phi=0.5,0,0,1"],
    # an unrecognized trailing word, an abbreviated option, missing required options
    ["classify", "--phi=0.5,0,0,1", "extra"], ["classify", "--ph=0.5,0,0,1"], ["extcheck", "--phi=1,0,0,1"],
    # one valid command line per command
    ["classify", "--phi=0.5,0,0,1"],
    ["matrix", "--phi=0.5,0.1,0,1", "--n", "8", "--witness", "shift:2"],
    ["eigs", "--phi=0.5,1,0,1", "--space", "fock", "--n", "8"],
    ["extcheck", "--phi=i,0,0,1", "--space", "fock", "--n", "8", "--witness", "shift:1", "--lam=-i"],
    ["extscan", "--phi=i,0,0,1", "--space", "fock", "--n", "8", "--points", "16"],
    ["verify", "--phi=i,0,0,1", "--space", "fock", "--n", "16", "--points", "16"],
], ids=" ".join)
def test_main_answers_as_a_parser_with_every_command(monkeypatch, argv):
    got = _run_parsed(monkeypatch, argv)
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command: _parser_with_every_command(build_parser))
    assert got == _run_parsed(monkeypatch, argv)


@pytest.mark.parametrize("command", ["matrix", "extcheck"])
def test_witness_help_lists_every_form(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")  # a form must not break at its hyphen
    rc, out, _ = run([command, "--help"])
    assert rc == 0
    assert [form for form in WITNESSES if form not in out] == []


def test_main_builds_only_the_command_it_runs(monkeypatch):
    calls = []
    add_common = cli._add_common
    monkeypatch.setattr(cli, "_add_common", lambda p: calls.append(p) or add_common(p))
    assert run(["extcheck", "--phi=i,0,0,1", "--n", "8", "--witness", "identity", "--lam", "1"])[0] == 0
    assert len(calls) == 1
    for name, p in _subparsers(cli.build_parser("extcheck")).choices.items():
        assert ([a.dest for a in p._actions] == ["help"]) == (name != "extcheck"), name


# ---------------------------------------------------------------------------
# the column writer: byte for byte what json.dumps and the CSV f-string wrote


def _null(v: float):
    """A float as strict JSON holds it: null when it is not finite."""
    return v if math.isfinite(v) else None


def _reference_encode(obj):
    """The JSON hook as it was when every array went through json.dumps: an
    ndarray as its flat row-major list, complex entries as [re, im] pairs,
    non-finite floats as null."""
    if isinstance(obj, np.ndarray):
        flat = obj.ravel()
        if np.iscomplexobj(flat):
            return [[_null(re), _null(im)] for re, im in zip(flat.real.tolist(), flat.imag.tolist())]
        return [_null(v) if isinstance(v, float) else v for v in flat.tolist()]
    return cli._plain(obj)


def _reference_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False, default=_reference_encode)


def _reference_rows(rep):
    """A scan's JSON rows and CSV text by the route before the column writer."""
    rows = list(zip(rep.lam.real.tolist(), rep.lam.imag.tolist(), rep.ratio_dist.tolist(),
                    rep.sylvester.tolist(), rep.flagged.tolist()))
    lines = [",".join(cli.SCAN_COLUMNS)] + [f"{re!r},{im!r},{rd!r},{sv!r},{fl:d}" for re, im, rd, sv, fl in rows]
    json_rows = [[_null(re), _null(im), _null(rd), _null(sv), fl] for re, im, rd, sv, fl in rows]
    return json_rows, "\n".join(lines) + "\n"


def _report(re, im, rd, sv, flagged):
    lam = np.empty(len(re), dtype=complex)
    lam.real, lam.imag = re, im
    return ExtScanReport(0.5, lam, np.array(rd, dtype=float), np.array(sv, dtype=float),
                         np.array(flagged, dtype=bool), 0.4995, 0,
                         ["no reliable eigenvalues; ratio distances are +inf"])


def _assert_scan_output_matches_reference(rep):
    """extscan's stdout JSON and --out CSV for rep, against the reference route;
    the rest of the document is compared through a parse and re-dump."""
    json_rows, csv_text = _reference_rows(rep)
    argv = ["extscan", _P, "--n", "8", "--points", "16"]
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(cli, "ext_scan", lambda *args, **kwargs: rep)
        rc, out, _ = run(argv)
        assert rc == 0
        doc = json.loads(out)
        doc["result"]["rows"] = json_rows
        assert out == _reference_dumps(doc) + "\n"
        rc, out, _ = run(argv + ["--out", f"{tmp}/scan.json"])
        assert (rc, out) == (0, "")
        assert Path(f"{tmp}/scan.grid.csv").read_text() == csv_text


_INF, _NAN = math.inf, math.nan


@pytest.mark.parametrize(
    "rep",
    [
        # unprobed nan and +inf ratio distances, as when no eigenvalue is reliable
        _report([1e-07, -0.0, 5e-324, 1e300, -1e300], [0.0, -0.0, -5e-324, 1e-07, 2.5],
                [_INF, _INF, 0.0, 1e300, 5e-324], [_NAN, 1e-07, -0.0, _NAN, 1e300],
                [False, True, True, False, True]),
        _report([0.5, -0.5, 1.5], [1.0, 2.0, -3.0], [0.1, 0.2, 0.3], [_NAN] * 3, [True] * 3),
        _report([0.5, -0.5, 1.5], [1.0, 2.0, -3.0], [_INF, -_INF, _NAN], [0.0, -_INF, _INF], [False] * 3),
        _report([0.25], [-0.75], [_INF], [_NAN], [True]),
    ],
    ids=["special-values", "all-flagged", "none-flagged", "one-row"],
)
def test_scan_rows_match_the_reference_route(rep):
    _assert_scan_output_matches_reference(rep)


_columns = st.integers(1, 12).flatmap(lambda n: st.tuples(
    *[st.lists(st.floats(), min_size=n, max_size=n)] * 4, st.lists(st.booleans(), min_size=n, max_size=n)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_columns)
def test_scan_rows_match_the_reference_route_on_any_float64_columns(columns):
    _assert_scan_output_matches_reference(_report(*columns))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.floats(), max_size=10), st.lists(st.floats(), max_size=10))
def test_column_writer_matches_json_dumps_at_any_depth(xs, ys):
    x = np.array(xs, dtype=float)
    z = np.array(xs[: len(ys)], dtype=complex)
    z.imag = ys[: len(z)]
    doc = {
        "a": {"flat": cli._Block(x)},
        "b": [1, {"pairs": cli._complex_block(z)}],
        "flags": cli._Block(x > 0),
    }
    reference = {
        "a": {"flat": [_null(v) for v in xs]},
        "b": [1, {"pairs": z}],
        "flags": x > 0,
    }
    assert cli._dumps(doc) == _reference_dumps(reference)


@pytest.mark.parametrize("phi, space", [("0.5,1,0,1", "fock"), ("1,0.5,0.5,1", "bergman")])
def test_eigs_json_matches_the_reference_route(phi, space):
    rc, out, _ = run(["eigs", "--phi", phi, "--space", space, "--n", "8"])
    assert rc == 0
    A = composition_matrix(LinearFractionalMap(*map(float, phi.split(","))), SpaceSpec(space), 8)
    w, err = A.eig_reliability
    order = np.lexsort((w.imag, w.real))
    w, err = w[order], err[order]
    reliable = err <= RELIABILITY_TOL * np.abs(w)
    ratios = ratio_set(A, reliability_tol=RELIABILITY_TOL)
    doc = json.loads(out)
    doc["result"] = {
        "eigenvalues": w,
        "error_estimates": [float(e) if np.isfinite(e) else None for e in err],
        "reliable": reliable,
        "reliable_count": np.count_nonzero(reliable),
        "ratio_set": {"count": ratios.size, "sample": ratios[:64]},
    }
    assert out == _reference_dumps(doc) + "\n"


@pytest.mark.parametrize("witness", [None, "mult:binomial,1+1i"])
def test_matrix_json_matches_the_reference_route(witness):
    phi, space = LinearFractionalMap(0.5j, 0.1, 0.2, 1), SpaceSpec("bergman")
    argv = ["matrix", "--phi=0.5i,0.1,0.2,1", "--n", "8", "--format", "json"]
    rc, out, _ = run(argv + (["--witness", witness] if witness else []))
    assert rc == 0
    doc = json.loads(out)
    doc["result"] = build_witness(witness, phi, space, 8) if witness else composition_matrix(phi, space, 8)
    assert out == _reference_dumps(doc) + "\n"


def _refuse(constant: str):
    raise ValueError(f"{constant} is not JSON (RFC 8259)")


def test_non_finite_floats_are_null_at_any_depth():
    # verify's worst is inf when a scan flags nothing; scalars, dataclass
    # fields, complex parts and numpy scalars all write null, as blocks do
    doc = {
        "row": CheckRow("scan", False, math.inf, "no points flagged at all"),
        "scalars": [-math.inf, math.nan, np.float64(math.inf), 0.5],
        "pair": complex(math.nan, -0.0),
        "block": cli._Block(np.array([1.0, math.inf, -math.inf, math.nan])),
    }
    assert json.loads(cli._dumps(doc), parse_constant=_refuse) == {
        "row": {"name": "scan", "passed": False, "worst": None, "detail": "no points flagged at all"},
        "scalars": [None, None, None, 0.5],
        "pair": [None, -0.0],
        "block": [1.0, None, None, None],
    }


DIFF_OUTPUTS = Path(__file__).resolve().parents[1] / "tools" / "diff_outputs.py"


def test_every_off_pool_json_output_is_strict():
    # each JSON document the off-pool requests of tools/diff_outputs.py write,
    # to stdout or to --out, parses with no NaN, Infinity or -Infinity
    spec = importlib.util.spec_from_file_location("diff_outputs", DIFF_OUTPUTS)
    diff_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(diff_outputs)
    documents = 0
    with tempfile.TemporaryDirectory() as tmp:
        out_path = Path(tmp) / "out.json"
        for argv in diff_outputs.OFF_POOL:
            _, out, _ = run([str(out_path) if a == diff_outputs.OUT else a for a in argv])
            texts = [out] + ([out_path.read_text()] if out_path.exists() else [])
            out_path.unlink(missing_ok=True)
            for text in texts:
                if text and not text.startswith("%%MatrixMarket"):
                    json.loads(text, parse_constant=_refuse)
                    documents += 1
    assert documents == 28  # the other requests write Matrix Market text or fail


# ---------------------------------------------------------------------------
# failures: exit 1 for a DomainError, 3 for an unresolved class, 2 otherwise


def test_every_exported_error_but_one_is_a_domain_error():
    errors = {name: obj for name, obj in vars(compext).items() if name.endswith("Error")}
    assert set(errors) == {"DomainError", "SingularTruncationError", "UnresolvedClassError"}
    plain = {name for name, cls in errors.items() if not issubclass(cls, DomainError)}
    assert plain == {"UnresolvedClassError"}
    assert all(issubclass(cls, ValueError) for cls in errors.values())


_P = "--phi=0.5,0,0,1"
_EXT = ["extcheck", _P, "--n", "8", "--lam", "1", "--witness"]
_EXT_48 = ["extcheck", _P, "--n", "48", "--lam", "1", "--witness"]
_EXT_FOCK = ["extcheck", "--phi=0.5,0.1,0,1", "--space", "fock", "--n", "8", "--lam", "1", "--witness"]
_FOCK_7000 = ["--phi=0.9,2,0,1", "--space", "fock", "--alpha", "7000", "--n", "256"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv, code, line",
    [
        pytest.param(["matrix", "--phi=2,0,0,1"], 1,
                     "error: phi is not a self-map of the unit disk", id="not-self-map"),
        pytest.param(_EXT + ["qdiff:1"], 1,
                     "error: quasi_diff_matrix only acts on a fock space", id="wrong-space"),
        pytest.param(_EXT + ["shift:9"], 1,
                     "error: need 1 <= k < order, got k=9, order=8", id="bad-shift"),
        pytest.param(_EXT + ["sigma-shift:2,1"], 1, "error: |c| = 2.0 must be < 1", id="center-outside"),
        pytest.param(_EXT + ["identity", "--margin", "8"], 1,
                     "error: margin must lie in [0, 7]", id="margin"),
        pytest.param(_EXT + ["mult:exponential,-1"], 1,
                     "error: t must be >= 0 for a bounded function on the disk", id="negative-parameter"),
        pytest.param(["matrix", _P, "--space", "fock", "--alpha", "0.01", "--n", "256"], 1,
                     "error: fock norms sqrt(n!/alpha^n) leave the float range at alpha = 0.01, order 256",
                     id="fock-norms"),
        pytest.param(["extscan", "--phi=1,0.5,0.5,1", "--space", "hardy", "--n", "8", "--points", "16",
                      "--require-prediction"], 1, "error: no prediction on hardy space", id="require-prediction"),
        pytest.param(_EXT + ["bogus:1"], 2, "error: unknown witness 'bogus:1'", id="unknown-witness"),
        pytest.param(_EXT + ["identity:junk"], 2, "error: unknown witness 'identity:junk'",
                     id="identity-with-parameter"),
        # an empty witness is a witness text, as in extcheck, not the absence of one
        pytest.param(["matrix", _P, "--n", "8", "--witness", "", "--format", "mm"], 2,
                     "error: unknown witness ''", id="empty-witness-matrix"),
        # a witness parameter outside its range is a domain error, as shift:9 is
        pytest.param(_EXT_48 + ["mult:monomial,100"], 1, "error: need 0 <= k < order, got k=100, order=48",
                     id="monomial-degree-past-order"),
        pytest.param(_EXT_48 + ["mult:monomial,-1"], 1, "error: need 0 <= k < order, got k=-1, order=48",
                     id="negative-monomial-degree"),
        pytest.param(_EXT_48 + ["mult:exponential,nan"], 1, "error: t must be finite, got nan",
                     id="nan-exponential-parameter"),
        pytest.param(_EXT_48 + ["mult:exponential,inf"], 1, "error: t must be finite, got inf",
                     id="infinite-exponential-parameter"),
        # float options are checked for finiteness at parse time
        pytest.param(["classify", _P, "--alpha", "nan"], 2,
                     "compext classify: error: argument --alpha: 'nan' is not a finite number", id="nan-alpha"),
        pytest.param(["classify", _P, "--alpha", "inf"], 2,
                     "compext classify: error: argument --alpha: 'inf' is not a finite number", id="infinite-alpha"),
        pytest.param(_EXT + ["identity", "--threshold", "nan"], 2,
                     "compext extcheck: error: argument --threshold: 'nan' is not a finite number",
                     id="nan-threshold"),
        pytest.param(["extscan", _P, "--n", "8", "--grid", "annulus", "--rmin", "2", "--rmax", "1",
                      "--points", "16"], 2, "error: annulus needs 0 < rmin <= rmax", id="empty-annulus"),
        pytest.param(["verify", "--phi=1,0.5,0.5,1", "--space", "hardy", "--n", "8"], 3,
                     "error: no prediction on hardy space", id="unresolved"),
        # Fock entries b^j / ||z^j|| past the float range, with every norm in range
        pytest.param(["matrix"] + _FOCK_7000, 1,
                     "error: entries of C_phi leave the float range on fock space at alpha = 7000, order 256",
                     id="fock-entries-matrix"),
        pytest.param(["extcheck"] + _FOCK_7000 + ["--witness", "identity", "--lam", "1"], 1,
                     "error: entries of C_phi leave the float range on fock space at alpha = 7000, order 256",
                     id="fock-entries-extcheck"),
        pytest.param(["extscan", _P, "--n", "16", "--points", "16", "--rmax", "inf"], 2,
                     "error: rmin and rmax must be finite", id="infinite-rmax"),
        pytest.param(["extscan", _P, "--n", "16", "--points", "16", "--grid", "annulus",
                      "--rmin", "1e-300", "--rmax", "1e300"], 2,
                     "error: annulus needs a finite rmax/rmin", id="infinite-radius-ratio"),
        # finite radii whose grid points or step overflow: rmax * k before the division by n_r,
        # 2 * rmax before the sine
        pytest.param(["extscan", _P, "--n", "8", "--grid", "disk", "--rmax", "1e308", "--points", "16"], 2,
                     "error: disk grid leaves the float range at rmax = 1e+308", id="disk-grid-past-float-range"),
        pytest.param(["extscan", _P, "--n", "8", "--grid", "circle", "--rmax", "1e308", "--points", "16"], 2,
                     "error: circle grid leaves the float range at rmax = 1e+308",
                     id="circle-step-past-float-range"),
        pytest.param(["extcheck", _P, "--n", "8", "--witness", "identity", "--lam=1e999"], 2,
                     "compext extcheck: error: argument --lam: complex literal '1e999' is out of float range",
                     id="infinite-lambda"),
        pytest.param(_EXT + ["mult:binomial,1e999"], 2,
                     "error: complex literal '1e999' is out of float range", id="infinite-witness-parameter"),
        # witness entries past the float range, from a finite parameter
        pytest.param(["matrix", _P, "--n", "64", "--witness", "mult:binomial,1e300", "--format", "mm"], 1,
                     "error: entries of witness 'mult:binomial,1e300' leave the float range on bergman space "
                     "at alpha = 1, order 64", id="witness-entries-matrix"),
        pytest.param(_EXT_48 + ["mult:binomial,1e300"], 1,
                     "error: entries of witness 'mult:binomial,1e300' leave the float range on bergman space "
                     "at alpha = 1, order 48", id="witness-entries-extcheck"),
        pytest.param(["matrix", _P, "--space", "fock", "--n", "8", "--witness", "qmult-shifted:5,1000",
                      "--format", "json"], 1,
                     "error: entries of witness 'qmult-shifted:5,1000' leave the float range on fock space "
                     "at alpha = 1, order 8", id="witness-entries-fock-json"),
        # finite witness and lambda whose product lam * (X A) passes the float range
        pytest.param(["extcheck", "--phi=1i,0,0,1", "--n", "9", "--witness", "mult:cayley,100i", "--lam=1e300"], 1,
                     "error: entries of A X - lambda X A leave the float range at lambda = 1e+300",
                     id="residual-past-float-range"),
        # a malformed parameter list names the witness and its form
        pytest.param(_EXT + ["sigma-shift:0.2"], 2, "error: bad witness 'sigma-shift:0.2': expected sigma-shift:c,k",
                     id="sigma-shift-one-parameter"),
        pytest.param(_EXT + ["qmult-shifted:0.5"], 2,
                     "error: bad witness 'qmult-shifted:0.5': expected qmult-shifted:tau,m",
                     id="qmult-shifted-one-parameter"),
        pytest.param(_EXT + ["shift:"], 2, "error: bad witness 'shift:': expected shift:k", id="shift-no-parameter"),
        # the class resolves (hyperbolic automorphism); only the witness needs an interior fixed point
        pytest.param(["extcheck", "--phi=1,0.5,0.5,1", "--n", "8", "--witness", "mult:sigma-power,1",
                      "--lam", "1"], 1, "error: symbol has no fixed point inside the open disk",
                     id="sigma-power-without-interior-fixed-point"),
        # C(100000, m) passes the float range for m near 255; the terms underflow to 0, as at n = 8
        pytest.param(["extcheck", "--phi=0.5,0.1,0,1", "--n", "256", "--lam", "1", "--witness",
                      "mult:sigma-power,100000"], 1, "error: zero operator has no meaningful residual",
                     id="sigma-power-binomial-past-float-range"),
        # a negative power is a parameter out of range, as mult:monomial,-1 is
        pytest.param(_EXT_FOCK + ["qdiff:-1"], 1, "error: need a nonnegative power, got -1",
                     id="negative-qdiff-power"),
        pytest.param(_EXT_FOCK + ["qmult-shifted:0.5,-1"], 1, "error: need a nonnegative power, got -1",
                     id="negative-qmult-shifted-power"),
        pytest.param(["matrix", "--phi=0.5,0.1,0,1", "--n", "8", "--witness", "mult:sigma-power,-1", "--format", "mm"],
                     1, "error: need k >= 0, got k=-1", id="negative-sigma-power"),
    ],
)
def test_failure_exit_code_and_message(argv, code, line):
    rc, out, err = run(argv)
    assert (rc, out) == (code, "")
    assert err.splitlines()[-1] == line
