from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from cricseg.tracker import (
    BallCandidate,
    TrackerConfig,
    Trajectory,
    TrackPoint,
    associate,
    build_trajectory,
    find_bounce,
    trajectory_from_obj,
    trajectory_to_obj,
)

from _support import brute_force_min_path, well_separated_instance

CFG = TrackerConfig(max_jump_px=120.0, max_gap_frames=3)


def traj(rows, start_frame=0):
    return Trajectory(tuple(TrackPoint(start_frame + i, 100.0 + i, float(r)) for i, r in enumerate(rows)))


class TestAssociate:
    def test_picks_nearest(self):
        cands = [BallCandidate(1, (103, 104)), BallCandidate(1, (110, 112))]
        assert associate((100, 100), cands, CFG) is cands[0]

    def test_jump_bound_inclusive(self):
        cands = [BallCandidate(1, (220, 100))]
        assert associate((100, 100), cands, CFG) is cands[0]

    def test_all_beyond_bound(self):
        cands = [BallCandidate(1, (400, 400)), BallCandidate(1, (0, 400))]
        assert associate((100, 100), cands, CFG) is None

    def test_tie_breaks_to_list_order(self):
        cands = [BallCandidate(1, (110, 100)), BallCandidate(1, (90, 100))]
        assert associate((100, 100), cands, CFG) is cands[0]

    @given(
        prev=st.tuples(st.integers(0, 200), st.integers(0, 200)),
        cands=st.lists(st.tuples(st.integers(0, 200), st.integers(0, 200)), min_size=1, max_size=5),
        max_jump=st.integers(1, 300),
        scale=st.sampled_from([0.5, 2.0, 3.0]),
    )
    def test_scale_equivariance(self, prev, cands, max_jump, scale):
        candidates = [BallCandidate(0, (float(x), float(y))) for x, y in cands]
        base = associate(prev, candidates, TrackerConfig(max_jump_px=max_jump))
        scaled_cands = [
            BallCandidate(0, (x * scale, y * scale)) for x, y in cands
        ]
        scaled = associate(
            (prev[0] * scale, prev[1] * scale),
            scaled_cands,
            TrackerConfig(max_jump_px=max_jump * scale),
        )
        if base is None:
            assert scaled is None
        else:
            assert scaled is scaled_cands[candidates.index(base)]


class TestBuildTrajectory:
    def test_clean_arc(self):
        per_frame = [(i, [BallCandidate(i, (100.0 + 3 * i, 50.0 + 10 * i))]) for i in range(8)]
        out = build_trajectory(per_frame, CFG)
        assert tuple(p.frame for p in out.points) == tuple(range(8))

    def test_seed_highest_confidence(self):
        per_frame = [
            (0, [BallCandidate(0, (10, 10), 0.4), BallCandidate(0, (500, 500), 0.9)]),
            (1, [BallCandidate(1, (505, 505), 0.5)]),
        ]
        out = build_trajectory(per_frame, CFG)
        assert out.points[0] == TrackPoint(0, 500, 500)
        assert len(out.points) == 2

    def test_decoys_never_chosen(self):
        rng = random.Random(11)
        per_frame, truth = well_separated_instance(rng, 12, max_step=CFG.max_jump_px)
        out = build_trajectory(per_frame, CFG)
        assert [(p.col, p.row) for p in out.points] == [c.center for c in truth]

    def test_greedy_matches_brute_force_on_separated_instances(self):
        rng = random.Random(23)
        for _ in range(20):
            per_frame, _ = well_separated_instance(rng, 7, max_step=80.0)
            greedy = build_trajectory(per_frame, TrackerConfig(max_jump_px=80.0))
            oracle = brute_force_min_path(per_frame)
            assert [(p.col, p.row) for p in greedy.points] == [c.center for c in oracle]

    def test_terminates_after_gap(self):
        per_frame = [(i, [BallCandidate(i, (100.0 + i, 100.0))]) for i in range(5)]
        per_frame += [(i, []) for i in range(5, 12)]
        per_frame += [(12, [BallCandidate(12, (110.0, 100.0))])]
        out = build_trajectory(per_frame, CFG)
        assert tuple(p.frame for p in out.points) == (0, 1, 2, 3, 4)

    def test_short_gap_is_bridged_without_interpolation(self):
        per_frame = [
            (0, [BallCandidate(0, (100, 100))]),
            (1, []),
            (2, [BallCandidate(2, (120, 100))]),
        ]
        out = build_trajectory(per_frame, CFG)
        assert tuple(p.frame for p in out.points) == (0, 2)

    def test_no_candidates_gives_empty_trajectory(self):
        out = build_trajectory([(i, []) for i in range(10)], CFG)
        assert out.points == ()

    def test_unordered_frames_rejected(self):
        per_frame = [(1, []), (0, [])]
        with pytest.raises(ValueError):
            build_trajectory(per_frame, CFG)


class TestFindBounce:
    def test_unique_maximum(self):
        assert find_bounce(traj([10, 20, 30, 25, 15])) == 2

    def test_monotone_descent_has_no_bounce(self):
        assert find_bounce(traj([10, 20, 30, 40])) is None

    def test_tie_breaks_to_earliest(self):
        assert find_bounce(traj([10, 30, 30, 20])) == 1

    def test_too_short(self):
        assert find_bounce(traj([10, 30])) is None

    def test_monotone_rise_has_no_bounce(self):
        assert find_bounce(traj([40, 30, 20, 10])) is None

    def test_bounce_at_final_point_when_dipped_before(self):
        assert find_bounce(traj([10, 30, 20, 35])) == 3

    @given(rows=st.lists(st.integers(0, 100), min_size=3, max_size=30))
    def test_reverse_in_time_mirrors_index(self, rows):
        # unique interior maximum required for a mirror-symmetric answer
        m = max(rows)
        if rows.count(m) != 1:
            return
        forward = find_bounce(traj(rows))
        backward = find_bounce(traj(rows[::-1]))
        if forward is None:
            assert backward is None
        else:
            assert backward == len(rows) - 1 - forward

    @given(rows=st.lists(st.floats(0, 500), min_size=1, max_size=30))
    def test_bounce_is_always_the_row_maximum(self, rows):
        t = traj(rows)
        bounce = find_bounce(t)
        if bounce is not None:
            assert t.points[bounce].row == max(rows)
            assert bounce == [p.row for p in t.points].index(max(rows))


class TestWireFormat:
    def test_round_trip(self):
        t = traj([10, 30, 20])
        obj = trajectory_to_obj(t)
        assert obj["bounce"] == 1
        assert trajectory_from_obj(obj) == t

    def test_no_bounce_serializes_null(self):
        assert trajectory_to_obj(traj([10, 20]))["bounce"] is None

    @pytest.mark.parametrize("value", [2**1024, -(10**400)], ids=["2**1024", "-10**400"])
    def test_integer_too_large_for_a_float_is_not_finite(self, value):
        obj = {"points": [[0, 1.0, 2.0], [1, 3, value]]}
        with pytest.raises(ValueError, match=r"^points\[1\] must be \[frame, col, row\]"):
            trajectory_from_obj(obj)
        obj["points"][1][2] = 2**1023
        assert trajectory_from_obj(obj).points[1].row == float(2**1023)
