"""Span-tree profile attribution: folding traces, merging forests, and
the `--profile` CLI surface (including `--jobs N` node-for-node parity)."""

import json
from pathlib import Path

from repro.cli import main
from repro.obs import (
    flatten_profile,
    merge_profiles,
    profile_from_events,
    profile_total_ms,
    render_profile,
)

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "apps"
APPS = sorted(str(p) for p in EXAMPLES.glob("*.apkt"))


def _ev(name, ph, ts, pid=1, tid=1):
    return {"name": name, "cat": "scan", "ph": ph, "ts": ts,
            "pid": pid, "tid": tid}


def _shape(profile):
    """The deterministic axis of a forest: names and counts only."""
    return {
        name: (node["count"], _shape(node["children"]))
        for name, node in profile.items()
    }


class TestFold:
    def test_nesting_and_self_vs_cumulative(self):
        # a [0, 5ms] containing b [1ms, 3ms]: a's self time excludes b.
        events = [
            _ev("a", "B", 0), _ev("b", "B", 1000),
            _ev("b", "E", 3000), _ev("a", "E", 5000),
        ]
        forest = profile_from_events(events)
        assert list(forest) == ["a"]
        a = forest["a"]
        assert (a["count"], a["cum_ms"], a["self_ms"]) == (1, 5.0, 3.0)
        b = a["children"]["b"]
        assert (b["count"], b["cum_ms"], b["self_ms"]) == (1, 2.0, 2.0)
        assert profile_total_ms(forest) == 5.0

    def test_same_name_siblings_pool_into_one_node(self):
        events = [
            _ev("a", "B", 0),
            _ev("b", "B", 1000), _ev("b", "E", 2000),
            _ev("b", "B", 3000), _ev("b", "E", 5000),
            _ev("a", "E", 6000),
        ]
        a = profile_from_events(events)["a"]
        assert list(a["children"]) == ["b"]
        b = a["children"]["b"]
        assert b["count"] == 2
        assert b["cum_ms"] == 3.0
        assert a["self_ms"] == 3.0

    def test_tracks_nest_independently_but_share_the_forest(self):
        # The same root name on two (pid, tid) tracks pools: counts sum.
        events = [
            _ev("scan", "B", 0, tid=1), _ev("scan", "B", 0, tid=2),
            _ev("scan", "E", 1000, tid=1), _ev("scan", "E", 3000, tid=2),
        ]
        forest = profile_from_events(events)
        assert forest["scan"]["count"] == 2
        assert forest["scan"]["cum_ms"] == 4.0

    def test_interleaved_tracks_do_not_cross_attribute(self):
        # tid 2's span opens and closes while tid 1's is open; it must
        # not become tid 1's child.
        events = [
            _ev("outer", "B", 0, tid=1),
            _ev("other", "B", 100, tid=2), _ev("other", "E", 600, tid=2),
            _ev("outer", "E", 1000, tid=1),
        ]
        forest = profile_from_events(events)
        assert set(forest) == {"outer", "other"}
        assert forest["outer"]["children"] == {}
        assert forest["outer"]["self_ms"] == 1.0

    def test_malformed_streams_are_tolerated(self):
        # An E with no open B is skipped; a never-closed B contributes
        # nothing and is pruned unless a closed descendant needs it.
        orphan_e = [_ev("x", "E", 100)]
        assert profile_from_events(orphan_e) == {}
        unclosed_b = [_ev("x", "B", 0)]
        assert profile_from_events(unclosed_b) == {}
        kept_path = [
            _ev("x", "B", 0),
            _ev("y", "B", 100), _ev("y", "E", 600),
        ]
        forest = profile_from_events(kept_path)
        assert forest["x"]["count"] == 0
        assert forest["x"]["children"]["y"]["count"] == 1

    def test_non_be_phases_are_ignored(self):
        events = [
            _ev("a", "B", 0),
            {"name": "meta", "ph": "M", "ts": 0, "pid": 1, "tid": 1},
            _ev("a", "E", 1000),
        ]
        assert list(profile_from_events(events)) == ["a"]

    def test_forest_is_json_safe_and_sorted(self):
        events = [
            _ev("b", "B", 0), _ev("b", "E", 1000),
            _ev("a", "B", 2000), _ev("a", "E", 3000),
        ]
        forest = profile_from_events(events)
        assert json.loads(json.dumps(forest)) == forest
        assert list(forest) == ["a", "b"]


class TestMerge:
    def _tree(self, ms):
        # Durations are whole milliseconds, so float sums stay exact and
        # the associativity assertions below can use ==.
        return profile_from_events([
            _ev("a", "B", 0), _ev("b", "B", 0),
            _ev("b", "E", ms * 1000), _ev("a", "E", ms * 2000),
        ])

    def test_counts_and_times_sum_children_recurse(self):
        merged = merge_profiles([self._tree(1), self._tree(2)])
        a = merged["a"]
        assert a["count"] == 2
        assert a["cum_ms"] == 6.0
        assert a["children"]["b"]["cum_ms"] == 3.0

    def test_merge_is_associative_and_commutative(self):
        trees = [self._tree(ms) for ms in (1, 2, 4)]
        left = merge_profiles([merge_profiles(trees[:2]), trees[2]])
        right = merge_profiles([trees[0], merge_profiles(trees[1:])])
        flat = merge_profiles(trees)
        reverse = merge_profiles(list(reversed(trees)))
        assert left == right == flat == reverse

    def test_merge_identity_and_empties(self):
        tree = self._tree(3)
        assert merge_profiles([tree]) == tree
        assert merge_profiles([]) == {}
        assert merge_profiles([{}, None, tree]) == tree


class TestFlattenAndRender:
    def _forest(self):
        return profile_from_events([
            _ev("scan", "B", 0),
            _ev("pass:connectivity", "B", 1000),
            _ev("pass:connectivity", "E", 4000),
            _ev("scan", "E", 5000),
            _ev("load", "B", 6000), _ev("load", "E", 7000),
        ])

    def test_flatten_joins_paths(self):
        flat = flatten_profile(self._forest())
        assert set(flat) == {"scan", "scan/pass:connectivity", "load"}
        assert flat["scan/pass:connectivity"]["count"] == 1
        assert flat["scan/pass:connectivity"]["cum_ms"] == 3.0

    def test_render_orders_by_cumulative_time_and_indents(self):
        text = render_profile(self._forest())
        lines = text.splitlines()
        assert lines[0] == "== profile =="
        assert lines[1].startswith("span")
        body = lines[2:]
        assert body[0].startswith("scan")  # 5ms before load's 1ms
        assert body[1].startswith("  pass:connectivity")
        assert body[2].startswith("load")

    def test_render_empty_profile(self):
        assert "(no spans recorded)" in render_profile({})


class TestCli:
    def _profile(self, tmp_path, capsys, jobs):
        out = tmp_path / f"m{jobs}.json"
        main(["scan", "--jobs", str(jobs), "--metrics", str(out), *APPS])
        capsys.readouterr()
        return json.loads(out.read_text())["profile"]

    def test_jobs_profile_matches_serial_node_for_node(self, tmp_path, capsys):
        # The acceptance bar: a merged `--jobs 4` tree equals `--jobs 1`
        # on every name and count (times are clock, so only the shape is
        # exact).
        serial = self._profile(tmp_path, capsys, 1)
        merged = self._profile(tmp_path, capsys, 4)
        assert serial  # non-empty: the scan recorded spans
        assert _shape(serial) == _shape(merged)
        flat = flatten_profile(serial)
        assert any(p.startswith("scan/pass:") for p in flat)
        assert "load" in flat

    def test_profile_flag_renders_table_on_stderr_only(self, capsys):
        main(["scan", "--profile", APPS[0]])
        captured = capsys.readouterr()
        assert "== profile ==" in captured.err
        assert "== profile ==" not in captured.out

    def test_default_stdout_identical_with_profiling_on(self, capsys):
        main(["scan", *APPS])
        plain = capsys.readouterr().out
        main(["scan", "--profile", *APPS])
        profiled = capsys.readouterr().out
        assert plain == profiled
