"""The comparison rule of tools/diff_outputs.py on synthetic records: outputs
match when they are byte for byte the same once the timestamp is masked; a
difference is named by its field (an extscan CSV cell by its column), and
outputs that parse to the same values but differ in their bytes are reported
as such."""
import importlib.util
from pathlib import Path

DIFF_OUTPUTS = Path(__file__).resolve().parents[1] / "tools" / "diff_outputs.py"
_spec = importlib.util.spec_from_file_location("diff_outputs", DIFF_OUTPUTS)
diff_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(diff_outputs)

REQUEST = ["extscan", "--phi=0.5,0,0,1", "--n", "8", "--out", diff_outputs.OUT]
CSV = "re(lambda),im(lambda),ratio_distance,sylvester_min_sv,flagged\n0.5,0.0,0.25,0.5,0\n2.0,0.0,0.0,1e-18,1\n"


def _record(stamp="2026-01-01T00:00:00+00:00", count="1", csv=CSV) -> dict:
    stdout = f'{{\n  "count": {count},\n  "timestamp": "{stamp}"\n}}\n'
    return {"rc": 0, "stdout": stdout, "stderr": "", "files": {"out.json": stdout, "out.grid.csv": csv}}


def _compare(capsys, old: dict, new: dict) -> tuple[bool, str]:
    same = diff_outputs.compare([REQUEST], [old], [new])
    return same, capsys.readouterr().out


def test_identical_records_compare_identical(capsys):
    same, out = _compare(capsys, _record(), _record())
    assert same and out == "extscan: 1 of 1 identical\n"


def test_a_changed_csv_byte_is_named_by_its_column(capsys):
    same, out = _compare(capsys, _record(), _record(csv=CSV.replace("0.25", "0.26")))
    assert not same
    assert "extscan: 0 of 1 identical" in out
    assert "files.out.grid.csv.rows[*].ratio_distance: differs in 1 (max |diff| 0.01)" in out


def test_timestamps_are_masked(capsys):
    same, _ = _compare(capsys, _record(), _record(stamp="2027-12-31T23:59:59+00:00"))
    assert same


def test_same_values_in_different_bytes_are_reported(capsys):
    same, out = _compare(capsys, _record(count="1"), _record(count="1.0"))
    assert not same
    assert "(same values, different bytes): differs in 1 (not numeric)" in out


def test_nan_matches_nan(capsys):
    # a nan cell parses to float nan, which is unequal to itself
    skipped = CSV.replace("0.25,0.5,", "0.25,nan,")
    same, out = _compare(capsys, _record(csv=skipped), _record(csv=skipped))
    assert same and out == "extscan: 1 of 1 identical\n"
    same, out = _compare(capsys, _record(), _record(csv=skipped))
    assert not same and "rows[*].sylvester_min_sv: differs in 1 (max |diff| nan)" in out


def test_a_line_without_a_command_is_reported_under_none(capsys):
    # the parser's own requests: no argument at all, or options alone
    usage = {"rc": 2, "stdout": "", "stderr": "usage: compext [-h]\n", "files": {}}
    help_text = {"rc": 0, "stdout": "usage: compext [-h]\n\noptions:\n", "stderr": "", "files": {}}
    same = diff_outputs.compare([[], ["--help"]], [usage, help_text], [usage, help_text])
    assert same and capsys.readouterr().out == "(none): 2 of 2 identical\n"
