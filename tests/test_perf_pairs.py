"""tools/perf_pairs.py: the paired-run verdict, the equal-length run
trees, the traced per-layer call counts and the exact per-layer
deltas."""

import importlib.util
import subprocess
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


def test_both_sides_run_from_paths_of_equal_length(tmp_path):
    """``peak_rss_mb`` follows the length of the checkout's path, so the
    parent and the change run from equally long ones: copies of a
    parent directory and of the working tree, without ``.git``."""
    root, parent = tmp_path / "checkout-of-the-change", tmp_path / "p"
    for tree, text in ((root, "change"), (parent, "parent")):
        (tree / ".git").mkdir(parents=True)
        (tree / "src").mkdir()
        (tree / "src" / "mod.py").write_text(text)
    trees = perf_pairs.run_trees(tmp_path / "runs", str(parent), root)
    assert len(str(trees["parent"])) == len(str(trees["change"]))
    for side, tree in trees.items():
        assert tree.parent == tmp_path / "runs"
        assert (tree / "src" / "mod.py").read_text() == side
        assert not (tree / ".git").exists()


def test_a_git_ref_is_exported_beside_the_change(tmp_path):
    root = tmp_path / "repo"
    root.mkdir()
    (root / "mod.py").write_text("parent")
    git = ["git", "-C", str(root), "-c", "user.name=t",
           "-c", "user.email=t@t"]
    for command in (["init", "-q"], ["add", "mod.py"],
                    ["commit", "-q", "-m", "parent"]):
        subprocess.run(git + command, check=True, capture_output=True)
    (root / "mod.py").write_text("change")
    (tmp_path / "runs").mkdir()
    trees = perf_pairs.run_trees(tmp_path / "runs", "HEAD", root)
    assert len(str(trees["parent"])) == len(str(trees["change"]))
    assert (trees["parent"] / "mod.py").read_text() == "parent"
    assert (trees["change"] / "mod.py").read_text() == "change"


def test_call_counts_come_from_one_traced_run_per_side(monkeypatch,
                                                       capsys):
    """Each side makes one ``--trace 1`` run on the same seed, and every
    ``*.calls_per_pkt`` metric either side reports is printed as parent,
    change and delta (a layer one side lacks reads 0)."""
    made = []
    reports = {
        "parent": {"core.pipeline.calls_per_pkt": 1.367,
                   "tenancy.calls_per_pkt": 0.089,
                   "pkts_per_s": 300000.0},
        "change": {"core.pipeline.calls_per_pkt": 2.481,
                   "core.shm.calls_per_pkt": 0.5,
                   "pkts_per_s": 280000.0},
    }

    def run_once(tree, workload, seed, trace=0):
        made.append((tree, workload, seed, trace))
        return {"metrics": {name: {"value": value} for name, value
                            in reports[tree].items()}}

    monkeypatch.setattr(perf_pairs, "run_once", run_once)
    runs = perf_pairs.traced({"parent": "parent", "change": "change"},
                             "campus_conn", 42)
    rows = perf_pairs.layer_rows(runs, perf_pairs.is_call_count)
    assert sorted(made) == [("change", "campus_conn", 42, 1),
                            ("parent", "campus_conn", 42, 1)]
    assert rows == [("core.pipeline.calls_per_pkt", 1.367, 2.481),
                    ("core.shm.calls_per_pkt", 0.0, 0.5),
                    ("tenancy.calls_per_pkt", 0.089, 0.0)]
    perf_pairs.report_rows("campus_conn", rows)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[0].split()[1:] == ["core.pipeline.calls_per_pkt",
                                    "parent", "1.367", "change", "2.481",
                                    "+1.114"]


def test_exact_deltas_print_every_moved_count_and_no_timing(monkeypatch,
                                                            capsys):
    """From the same two traced runs, every exact per-layer metric the
    sides disagree on is printed — the virtual clock's cycles, the peak
    state — and neither a timing (which no two runs agree on) nor an
    exact metric that did not move; the call counts have their own
    rows."""
    reports = {
        "parent": {"core.cycles.capture_cycles_per_pkt": 1137.96,
                   "core.cycles.cycles_per_pkt": 1877.36,
                   "conntrack.peak_state_bytes": 209920,
                   "conntrack.peak_live_conns": 410,
                   "traffic.pkts": 101951,
                   "conntrack.calls_per_pkt": 4.151,
                   "conntrack.self_share": 0.12,
                   "filter.self_us_per_pkt": 1.0,
                   "pkts_per_s": 139000.0,
                   "core.shm.ring_highwater": 3},
        "change": {"core.cycles.capture_cycles_per_pkt": 142.25,
                   "core.cycles.cycles_per_pkt": 1877.36,
                   "conntrack.peak_state_bytes": 159232,
                   "conntrack.peak_live_conns": 311,
                   "traffic.pkts": 101951,
                   "conntrack.calls_per_pkt": 2.413,
                   "conntrack.self_share": 0.08,
                   "filter.self_us_per_pkt": 0.9,
                   "pkts_per_s": 150000.0,
                   "core.shm.ring_highwater": 5,
                   "core.parallel.ipc_bytes_per_pkt": 0.5},
    }

    def run_once(tree, workload, seed, trace=0):
        assert trace == 1
        return {"metrics": {name: {"value": value} for name, value
                            in reports[tree].items()}}

    monkeypatch.setattr(perf_pairs, "run_once", run_once)
    runs = perf_pairs.traced({"parent": "parent", "change": "change"},
                             "tenants8", 42)
    rows = perf_pairs.exact_deltas(runs)
    assert rows == [("conntrack.peak_live_conns", 410, 311),
                    ("conntrack.peak_state_bytes", 209920, 159232),
                    ("core.cycles.capture_cycles_per_pkt", 1137.96, 142.25),
                    ("core.parallel.ipc_bytes_per_pkt", 0.0, 0.5)]
    perf_pairs.report_rows("tenants8", rows)
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split()[1:] == ["conntrack.peak_state_bytes",
                                    "parent", "209920.000", "change",
                                    "159232.000", "-50688.000"]
