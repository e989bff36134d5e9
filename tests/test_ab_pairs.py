"""The rules of tools/ab_pairs.py on synthetic pairs.  A metric gains when
at least ten pairs ran, NEW won at least nine tenths of them (ties count for
neither side) and the medians differ, in NEW's favour, by more than OLD's
interquartile range.  It is worse when NEW's median is worse by more than
the metric's bound (a share of OLD's median), and otherwise unresolved when
OLD's interquartile range exceeds the bound, unless every NEW run beats
every OLD run."""
import importlib.util
from pathlib import Path

import pytest

AB_PAIRS = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", AB_PAIRS)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

# bounds of half OLD's median, 7.25, wider than OLD's IQR
RATE = {"name": "requests_per_s", "unit": "1/s", "better": "higher", "bound": 0.5}
LATENCY = {"name": "request_p50_ms", "unit": "ms", "better": "lower", "bound": 0.5}
# OLD: quartiles 12.25 / 14.5 / 16.75 (inclusive method), so its IQR is 4.5
OLD = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]


def _line(metric: dict, old: list, new: list) -> str:
    """report's one line for metric over the pairs (old[i], new[i])."""
    pairs = [({"metrics": {metric["name"]: {"value": a}}}, {"metrics": {metric["name"]: {"value": b}}})
             for a, b in zip(old, new, strict=True)]
    (line,) = ab_pairs.report([metric], pairs)
    return line


def _ahead(metric: dict, by: float, losses: int = 0, ties: int = 0) -> list:
    """NEW as OLD moved by `by` in the metric's better direction, except at
    the pairs where NEW is worst: the first `losses` of them move 1 the other
    way and the next `ties` equal OLD.  Those stay on their side of NEW's
    median, so the median gap stays `by`."""
    sign = 1 if metric["better"] == "higher" else -1
    new = [a + sign * by for a in OLD]
    worst = list(range(len(OLD)))[::sign]
    for i in worst[:losses]:
        new[i] = OLD[i] - sign
    for i in worst[losses : losses + ties]:
        new[i] = OLD[i]
    return new


def test_quartiles_by_the_inclusive_method():
    assert ab_pairs.quartiles(OLD) == (12.25, 14.5, 16.75)
    assert ab_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)


@pytest.mark.parametrize("metric", [RATE, LATENCY], ids=["higher-is-better", "lower-is-better"])
@pytest.mark.parametrize(
    "by, losses, ties, wins, gain",
    [
        pytest.param(5, 0, 0, 10, True, id="every-pair-and-gap-above-iqr"),
        pytest.param(4, 0, 0, 10, False, id="every-pair-but-gap-below-iqr"),
        pytest.param(4.5, 0, 0, 10, False, id="every-pair-but-gap-equal-to-iqr"),
        pytest.param(5, 1, 0, 9, True, id="nine-of-ten"),
        pytest.param(5, 2, 0, 8, False, id="eight-of-ten"),
        pytest.param(5, 0, 1, 9, True, id="one-tie-nine-wins"),
        pytest.param(5, 0, 2, 8, False, id="two-ties-eight-wins"),
        pytest.param(-5, 0, 0, 0, False, id="worse-everywhere"),
    ],
)
def test_gain_rule(metric, by, losses, ties, wins, gain):
    line = _line(metric, OLD, _ahead(metric, by, losses, ties))
    assert f"new won {wins} of 10" in line
    assert line.endswith("; gain") == gain


@pytest.mark.parametrize("metric", [RATE, LATENCY], ids=["higher-is-better", "lower-is-better"])
@pytest.mark.parametrize(
    "bound, by, verdict",
    [
        pytest.param(0.5, -7, None, id="worse-within-the-bound"),
        pytest.param(0.5, -7.25, None, id="worse-by-exactly-the-bound"),
        pytest.param(0.5, -8, "worse", id="worse-past-the-bound"),
        # 0.25 of OLD's median is 3.625, below OLD's IQR
        pytest.param(0.25, -5, "worse", id="worse-past-a-bound-below-the-iqr"),
        pytest.param(0.25, 0, "unresolved", id="iqr-above-the-bound"),
        pytest.param(0.25, 5, "unresolved", id="ahead-but-the-runs-overlap"),
        pytest.param(0.25, 9, "unresolved", id="ahead-but-one-run-ties"),
        pytest.param(0.25, 10, None, id="every-new-run-better"),
    ],
)
def test_bound_rule(metric, bound, by, verdict):
    line = _line(metric | {"bound": bound}, OLD, _ahead(metric, by))
    marks = line.split("; new won ")[1].split("; ")[1:]
    assert [mark for mark in marks if mark != "gain"] == ([verdict] if verdict else [])


def test_fewer_than_ten_pairs_make_no_gain():
    line = _line(RATE, OLD[:9], _ahead(RATE, 20)[:9])
    assert line.endswith("; new won 9 of 9")


def test_a_tie_is_no_win_for_either_side():
    assert _line(RATE, OLD, OLD).endswith("; new won 0 of 10")
    assert _line(LATENCY, OLD, OLD).endswith("; new won 0 of 10")


def test_the_line_gives_quartiles_change_and_iqr():
    line = _line(RATE, OLD, _ahead(RATE, 5))
    assert line == (
        "requests_per_s [1/s]: old 12.25/14.5/16.75, new 17.25/19.5/21.75 (q1/median/q3);"
        " median +34.5% of 14.5, old IQR 4.5; new won 10 of 10; gain"
    )
