"""White-box tests for the extension loop's path state.

The stale-duplicate-key bug of the seed loop: its queue addresses
segments by coordinates rounded to 1e-6, so two distinct segments can
share a key and a queued entry can silently alias onto geometry it never
meant.  ``_PathState`` replaces keys with stable integer handles that
are invalidated at mutation time — these tests pin the handle lifecycle,
the splice bookkeeping, the incremental length identity and the
wasted-iteration accounting end to end.
"""

import math

import pytest

from oracles.extension import ReferenceTraceExtender, _segment_key
from repro.core.extension import ExtensionConfig, TraceExtender, _PathState
from repro.core.scene import ClearanceScene
from repro.geometry import Point, Polygon, Polyline, Segment
from repro.model import DesignRules, Trace

#: Engine name -> extender class: production, or the seed-loop oracle.
EXTENDERS = {"incremental": TraceExtender, "reference": ReferenceTraceExtender}


def make_state(xs=(0.0, 10.0, 20.0, 30.0)):
    return _PathState(Polyline([Point(x, 0.0) for x in xs]))


class TestHandleLifecycle:
    def test_initial_handles_map_to_positions(self):
        state = make_state()
        assert [state.pop_handle(h) for h in range(3)] == [0, 1, 2]
        assert state.stale_pops == 0

    def test_rounded_keys_collide_where_handles_cannot(self):
        # Two distinct segments whose coordinates differ by less than the
        # key rounding: the reference addressing cannot tell them apart.
        s1 = Segment(Point(0.0, 0.0), Point(10.0, 0.0))
        s2 = Segment(Point(0.0, 4e-7), Point(10.0, -4e-7))
        assert s1.a != s2.a
        assert _segment_key(s1) == _segment_key(s2)
        # Handles address positions, not coordinates — no aliasing.
        state = _PathState(Polyline([s1.a, s1.b, Point(10.0 + 1e-7, 10.0)]))
        assert state.pop_handle(0) == 0
        assert state.pop_handle(1) == 1

    def test_commit_invalidates_replaced_handle(self):
        state = make_state()
        chain = [Point(10.0, 0.0), Point(15.0, 5.0), Point(20.0, 0.0)]
        candidate = state.path.replace_segment(1, chain)
        state.commit(1, chain, candidate)
        assert state.pop_handle(1) is None
        assert state.stale_pops == 1

    def test_commit_drops_queued_stale_entry_at_mutation_time(self):
        # The handle is still in the queue when its segment is replaced:
        # the dedupe must happen *now* (counted in stale_drops), not at
        # pop time.
        state = make_state()
        assert 1 in state.in_queue
        chain = [Point(10.0, 0.0), Point(15.0, 5.0), Point(20.0, 0.0)]
        candidate = state.path.replace_segment(1, chain)
        state.commit(1, chain, candidate)
        assert state.stale_drops == 1
        assert 1 not in state.in_queue

    def test_popped_then_committed_is_not_double_counted(self):
        state = make_state()
        assert state.pop_handle(1) == 1  # popped first, like the real loop
        chain = [Point(10.0, 0.0), Point(15.0, 5.0), Point(20.0, 0.0)]
        candidate = state.path.replace_segment(1, chain)
        state.commit(1, chain, candidate)
        assert state.stale_drops == 0  # it was no longer queued


class TestSpliceBookkeeping:
    def test_tail_handles_survive_a_splice(self):
        state = make_state()
        chain = [Point(10.0, 0.0), Point(15.0, 5.0), Point(20.0, 0.0)]
        candidate = state.path.replace_segment(1, chain)
        new_handles = state.commit(1, chain, candidate)
        # Handle 2 still addresses the same segment object, now shifted.
        pos = state.pop_handle(2)
        assert state.segments[pos] == Segment(Point(20.0, 0.0), Point(30.0, 0.0))
        assert pos == 3
        # The new handles address the spliced chain segments in order.
        assert [state.handle_pos[h] for h in new_handles] == [1, 2]

    def test_degenerate_chain_segments_not_enqueued(self):
        state = make_state()
        chain = [
            Point(10.0, 0.0),
            Point(15.0, 5.0),
            Point(15.0, 5.0),  # zero-length joint
            Point(20.0, 0.0),
        ]
        candidate = state.path.replace_segment(1, chain)
        enqueue = state.commit(1, chain, candidate)
        # Three segments spliced in, but only the two non-degenerate ones
        # come back for requeueing — chain_new_segments' filter.
        assert len(enqueue) == 2
        assert all(not state.degenerate[state.handle_pos[h]] for h in enqueue)

    def test_incremental_length_is_bit_identical(self):
        state = make_state()
        assert state.length() == state.path.length()
        chain = [Point(10.0, 0.0), Point(12.5, 7.3), Point(17.1, 7.3), Point(20.0, 0.0)]
        candidate = state.path.replace_segment(1, chain)
        state.commit(1, chain, candidate)
        assert state.length() == state.path.length()
        # And again after a second splice on a chain segment.
        chain2 = [Point(12.5, 7.3), Point(14.0, 9.0), Point(17.1, 7.3)]
        candidate2 = state.path.replace_segment(2, chain2)
        state.commit(2, chain2, candidate2)
        assert state.length() == state.path.length()

    def test_parallel_lists_stay_consistent(self):
        state = make_state()
        chain = [Point(10.0, 0.0), Point(13.0, 4.0), Point(20.0, 0.0)]
        candidate = state.path.replace_segment(1, chain)
        state.commit(1, chain, candidate)
        n = len(state.segments)
        assert len(state.seg_lengths) == len(state.seg_bounds) == n
        assert len(state.degenerate) == len(state.pos_handle) == n
        for pos, handle in enumerate(state.pos_handle):
            assert state.handle_pos[handle] == pos
        for pos, seg in enumerate(state.segments):
            assert seg == state.path.segment(pos)
            assert state.seg_bounds[pos] == seg.bounds()


class TestNoWastedIterations:
    def _extend(self, engine):
        rules = DesignRules(dgap=4.0, dobs=2.0, dprotect=2.0)
        area = Polygon(
            [Point(-20, -50), Point(120, -50), Point(120, 50), Point(-20, 50)]
        )
        trace = Trace("t", Polyline([Point(0, 0), Point(100, 0)]), width=1.0)
        extender = EXTENDERS[engine](rules, area, config=ExtensionConfig())
        return extender.extend(trace, 260.0)

    @pytest.mark.parametrize("engine", ["reference", "incremental"])
    def test_no_stale_drops_on_clean_runs(self, engine):
        # The regression surface of the bugfix: with per-instance
        # addressing nothing ever goes stale organically, and the
        # reference's rounded keys must not collide on real geometry
        # either.  A regression in either scheme shows up as wasted
        # iterations here.
        result = self._extend(engine)
        assert result.stale_drops == 0
        assert result.achieved == pytest.approx(260.0, abs=1e-3)

    def test_engines_agree_on_the_open_board(self):
        ref = self._extend("reference")
        inc = self._extend("incremental")
        assert repr(inc.achieved) == repr(ref.achieved)
        assert inc.iterations == ref.iterations
        assert inc.patterns_applied == ref.patterns_applied
        assert [
            (repr(p.x), repr(p.y)) for p in inc.trace.path.points
        ] == [(repr(p.x), repr(p.y)) for p in ref.trace.path.points]

    def test_upper_bound_run_agrees_with_obstacles(self):
        rules = DesignRules(dgap=4.0, dobs=2.0, dprotect=2.0)
        area = Polygon(
            [Point(-20, -50), Point(120, -50), Point(120, 50), Point(-20, 50)]
        )
        from repro.model import Obstacle

        obstacles = [
            Obstacle(
                polygon=Polygon(
                    [Point(30, 5), Point(45, 5), Point(45, 20), Point(30, 20)]
                ),
                name="blk",
            )
        ]
        trace = Trace("t", Polyline([Point(0, 0), Point(100, 0)]), width=1.0)

        def run(engine):
            extender = EXTENDERS[engine](
                rules,
                area,
                scene=ClearanceScene(obstacles),
                config=ExtensionConfig(max_iterations=60),
            )
            return extender.extend(trace, math.inf)

        ref, inc = run("reference"), run("incremental")
        assert repr(inc.achieved) == repr(ref.achieved)
        assert inc.stale_drops == ref.stale_drops == 0
        assert [
            (repr(p.x), repr(p.y)) for p in inc.trace.path.points
        ] == [(repr(p.x), repr(p.y)) for p in ref.trace.path.points]
