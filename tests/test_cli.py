"""End-to-end tests of the command line: exit codes, JSON shapes, determinism."""
import contextlib
import io
import json

import numpy as np
import pytest

import compext
from compext import DomainError, LinearFractionalMap, SpaceSpec, composition_matrix, operators
from compext.cli import main


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
# failures: exit 1 for a DomainError, 3 for an unresolved class, 2 otherwise


def test_every_exported_error_but_two_is_a_domain_error():
    errors = {name: obj for name, obj in vars(compext).items() if name.endswith("Error")}
    assert len(errors) == 19
    plain = {name for name, cls in errors.items() if not issubclass(cls, DomainError)}
    assert plain == {"EmptyGridError", "UnresolvedClassError"}
    assert all(issubclass(cls, ValueError) for cls in errors.values())


_P = "--phi=0.5,0,0,1"
_EXT = ["extcheck", _P, "--n", "8", "--lam", "1", "--witness"]
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
        pytest.param(["extcheck", _P, "--n", "8", "--witness", "identity", "--lam=1e999"], 2,
                     "compext extcheck: error: argument --lam: complex literal '1e999' is out of float range",
                     id="infinite-lambda"),
        pytest.param(_EXT + ["mult:binomial,1e999"], 2,
                     "error: complex literal '1e999' is out of float range", id="infinite-witness-parameter"),
        # the class resolves (hyperbolic automorphism); only the witness needs an interior fixed point
        pytest.param(["extcheck", "--phi=1,0.5,0.5,1", "--n", "8", "--witness", "mult:sigma-power,1",
                      "--lam", "1"], 1, "error: symbol has no fixed point inside the open disk",
                     id="sigma-power-without-interior-fixed-point"),
    ],
)
def test_failure_exit_code_and_message(argv, code, line):
    rc, out, err = run(argv)
    assert (rc, out) == (code, "")
    assert err.splitlines()[-1] == line
