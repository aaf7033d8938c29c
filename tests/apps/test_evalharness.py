"""Tests for the evaluation harness itself (LoC, stats, table plumbing)."""

import pytest

from repro.core.stats import PhaseTracker, Stats
from repro.evalharness.loc import count_loc
from repro.evalharness.table1 import (
    Table1Row, build_world, engine_for, format_table1, measure_app,
)


class TestLoc:
    def test_counts_code_lines(self):
        src = "x = 1\n\n# comment\ny = 2  # trailing comment\n"
        assert count_loc(src) == 2

    def test_empty(self):
        assert count_loc("") == 0
        assert count_loc("\n\n# only comments\n") == 0


class TestPhaseTracker:
    def test_single_phase(self):
        t = PhaseTracker()
        t.annotation()
        t.annotation()
        t.check()
        t.check()
        assert t.phases() == 1

    def test_interleaved_phases(self):
        t = PhaseTracker()
        for _ in range(3):
            t.annotation()
            t.check()
        assert t.phases() == 3

    def test_empty(self):
        assert PhaseTracker().phases() == 0

    def test_checks_only(self):
        t = PhaseTracker()
        t.check()
        assert t.phases() == 1

    @pytest.mark.parametrize("stream, expected", [
        ("CAC", 2),       # check-first: the leading check is a phase
        ("AACCAC", 2),
        ("CCAACCA", 3),
        ("AAAA", 1),
    ])
    def test_stream(self, stream, expected):
        t = PhaseTracker()
        for event in stream:
            {"A": t.annotation, "C": t.check}[event]()
        assert t.phases() == expected

    def test_reset_mid_stream(self):
        t = PhaseTracker()
        for _ in range(3):
            t.annotation()
            t.check()
        t.reset()
        assert t.phases() == 0
        t.check()
        t.annotation()
        assert t.phases() == 2


class TestStats:
    def test_all_counts_library_consultations(self):
        s = Stats()
        s.record_annotation(check=True, generated=False, app_level=True,
                            key=("App", "m"))
        s.record_consulted({("App", "m"), ("String", "+"),
                            ("Integer", "+")})
        assert s.chkd() == 1
        assert s.app_count() == 1
        assert s.all_count() == 3  # app + two library sigs

    def test_generated_not_in_all(self):
        s = Stats()
        s.record_annotation(check=False, generated=True, app_level=False,
                            key=("M", "gen"))
        s.record_consulted({("M", "gen")})
        assert s.all_count() == 0
        s.record_generated_use(("M", "gen"))
        assert s.used_generated_count() == 1

    def test_snapshot_keys(self):
        snap = Stats().snapshot()
        assert {"chkd", "app", "all", "generated", "used", "cast_sites",
                "phases"} <= set(snap)


class TestHarness:
    @pytest.mark.requires_caches
    def test_engine_modes(self):
        assert engine_for("orig").config.intercept is False
        assert engine_for("nocache").config.caching is False
        assert engine_for("hum").config.caching is True
        with pytest.raises(ValueError):
            engine_for("bogus")

    def test_build_world_modes(self):
        world = build_world("cct", "orig", repeats=2)
        world.seed()
        assert world.workload()
        assert world.engine.stats.calls_intercepted == 0

    @pytest.mark.requires_caches
    def test_measure_app_row(self):
        row = measure_app("cct", runs=1, repeats=3)
        assert isinstance(row, Table1Row)
        assert row.loc > 50
        assert row.hum_s > 0 and row.orig_s > 0 and row.nocache_s > 0
        assert row.nocache_s > row.hum_s  # caching always wins
        assert row.ratio > 0

    def test_format_table1(self):
        row = measure_app("cct", runs=1, repeats=2)
        text = format_table1([row])
        assert "cct" in text and "Ratio" in text
