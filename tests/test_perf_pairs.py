"""tools/perf_pairs.py: the paired-run verdict (choosing-metrics §8)."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "perf_pairs",
    Path(__file__).resolve().parents[1] / "tools" / "perf_pairs.py")
perf_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_pairs)
verdict, wins, quartiles = (perf_pairs.verdict, perf_pairs.wins,
                            perf_pairs.quartiles)

PARENT = [1.20, 1.25, 1.30, 1.22, 1.28, 1.35, 1.24, 1.27, 1.31, 1.26]


def test_quartiles_inclusive():
    assert quartiles([1, 2, 3, 4, 5]) == (2, 3, 4)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_wins_ignore_ties_and_follow_direction():
    assert wins([1, 2, 3], [0.5, 2, 4], "lower") == (1, 1)
    assert wins([1, 2, 3], [0.5, 2, 4], "higher") == (1, 1)
    assert wins([5, 5], [5, 5], "lower") == (0, 0)


def test_gain_needs_nine_tenths_and_a_gap_beyond_parent_iqr():
    change = [p - 0.5 for p in PARENT]
    assert verdict(PARENT, change, "lower", 0.25) == "gain"
    # Eight wins of ten is not enough, however large the gap.
    eight = change[:8] + [p + 0.01 for p in PARENT[8:]]
    assert verdict(PARENT, eight, "lower", 0.25) == "unchanged"
    # Ten wins, but the medians sit inside the parent's own spread.
    sliver = [p - 0.01 for p in PARENT]
    assert verdict(PARENT, sliver, "lower", 0.25) == "unchanged"


def test_direction_higher_is_better():
    change = [p + 0.5 for p in PARENT]
    assert verdict(PARENT, change, "higher", 0.25) == "gain"
    assert verdict(PARENT, change, "lower", 0.25) == "regressed"


def test_regressed_only_beyond_the_bound():
    assert verdict(PARENT, [p * 1.30 for p in PARENT], "lower", 0.25) \
        == "regressed"
    assert verdict(PARENT, [p * 1.10 for p in PARENT], "lower", 0.25) \
        == "unchanged"
    # No bound in BENCHMARK.json: nothing to regress against.
    assert verdict(PARENT, [p * 3 for p in PARENT], "lower", None) \
        == "unchanged"


def test_identical_runs_are_unchanged():
    same = [74.6] * 10
    assert verdict(same, same, "higher", 0.25) == "unchanged"


def test_spread_wider_than_bound_is_unresolved():
    noisy = [1.0, 2.0, 1.1, 2.1, 0.9, 1.9, 1.0, 2.0, 1.2, 1.8]
    shuffled = noisy[1:] + noisy[:1]
    assert verdict(noisy, shuffled, "lower", 0.25) == "unresolved"
    # ...unless every run of the change beats every run of the parent
    # (ten wins, but the gap is inside the parent's spread: no gain).
    assert verdict(noisy, [0.8] * 10, "lower", 0.25) == "unchanged"


@pytest.mark.parametrize("pairs", [1, 9])
def test_fewer_than_ten_pairs_never_claim(pairs):
    assert verdict([1.0] * pairs, [0.5] * pairs, "lower", 0.25) \
        == "unchanged"
    assert verdict([1.0] * 10, [0.5] * 10, "lower", 0.25) == "gain"
