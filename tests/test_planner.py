"""Closed-form transition widths and the numeric stage balancer."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from memnas import planner
from memnas.errors import FieldError, InfeasibleError, ValidationError
from memnas.memory import MBBlockShape, block_memory
from memnas.planner import (
    REFERENCE_WIDTHS,
    ChannelSchedule,
    DominantLayer,
    ReferenceConfig,
    StageTemplate,
    _stage_template,
    cout_depthwise_dominated,
    cout_dw_to_exp,
    cout_exp_dominated,
    deviation_rows,
    dominant_layer,
    numeric_balance,
    plan_schedule,
    quantize,
    schedule_stage_peaks,
    select_cout,
    stage_blocks,
    stage_peak,
)
from memnas.space import default_space, maximal_config, resolve


class TestClosedForms:
    def test_depthwise_dominated_printed_value(self):
        # 100 * (256 + 36 + 64) / (512 + 36)
        assert cout_depthwise_dominated(100, 16, 3) == pytest.approx(100 * 356 / 548)

    def test_depthwise_dominated_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            cout_depthwise_dominated(0, 16, 3)

    def test_depthwise_dominated_always_shrinks(self):
        # numerator - denominator = -3I^2/4 < 0 for the printed form
        rng = random.Random(5)
        for _ in range(1000):
            c = rng.uniform(1, 512)
            i = rng.uniform(1, 256)
            k = rng.uniform(1, 9)
            assert cout_depthwise_dominated(c, i, k) < c

    def test_dw_to_exp_printed_value(self):
        # A=4, B=320, D=-131600 -> quadratic-formula root
        root = cout_dw_to_exp(100, 16, 3, 4)
        assert root == pytest.approx(145.7417562100671, rel=1e-12)
        assert 4 * root * root + 320 * root - 131600 == pytest.approx(0, abs=1e-6)

    def test_dw_to_exp_grows_with_c_in(self):
        prev = 0.0
        for c_in in [10, 20, 50, 100, 220, 500]:
            root = cout_dw_to_exp(c_in, 16, 3, 4)
            assert root > prev
            prev = root

    def test_exp_dominated_printed_value(self):
        root = cout_exp_dominated(100, 16, 4)
        assert root == pytest.approx(133.87374771932434, rel=1e-12)
        assert 4 * root * root + 576 * root - 148800 == pytest.approx(0, abs=1e-6)

    def test_exp_dominated_unit_inputs(self):
        # x^2 + 0.75x - 2.25 = 0
        root = cout_exp_dominated(1, 1, 1)
        assert root == pytest.approx((-0.75 + math.sqrt(0.5625 + 9)) / 2, rel=1e-12)
        assert root == pytest.approx(1.1711646096066226, rel=1e-9)

    def test_back_substitution_residual_grid(self):
        for c_in in [1, 8, 64, 256, 1024]:
            for i in [2, 7, 28, 112, 448]:
                for k in [1, 3, 7]:
                    for e in [2, 4]:
                        a, b = e, e * i * i / 4 + i * i / 4
                        d = -e * c_in * (i * i + k * k + i * i / 4)
                        r = cout_dw_to_exp(c_in, i, k, e)
                        assert abs(a * r * r + b * r + d) <= 1e-6 * abs(d)
                        assert b * b - 4 * a * d > 0
                        a, b = e, e * i * i / 2 + i * i / 4
                        d = -c_in * (i * i / 4 + e * c_in + e * i * i)
                        r = cout_exp_dominated(c_in, i, e)
                        assert abs(a * r * r + b * r + d) <= 1e-6 * abs(d)
                        assert b * b - 4 * a * d > 0


class TestDominantLayer:
    def test_large_kernel_moderate_size_is_depthwise(self):
        s = MBBlockShape(32, 32, 4, 7, 1, 14)
        recs = block_memory(s)
        assert recs[1].total_items == max(r.total_items for r in recs)
        assert dominant_layer(s) is DominantLayer.DEPTHWISE

    def test_exp_proj_tie_breaks_to_expansion(self):
        # within a stage exp and proj totals coincide; a tiny kernel keeps
        # depthwise strictly smallest
        s = MBBlockShape(64, 64, 2, 1, 1, 4)
        recs = block_memory(s)
        assert recs[0].total_items == recs[2].total_items > recs[1].total_items
        assert dominant_layer(s) is DominantLayer.EXPANSION

    def test_unit_shape_by_direct_comparison(self):
        s = MBBlockShape(1, 1, 1, 1, 1, 1)
        totals = [r.total_items for r in block_memory(s)]
        expected = DominantLayer.DEPTHWISE if totals[1] >= totals[0] else DominantLayer.EXPANSION
        assert dominant_layer(s) is expected


class TestSelectCout:
    def test_depthwise_branch_takes_min(self):
        got = select_cout(100, 16, 3, 4, DominantLayer.DEPTHWISE)
        assert got == pytest.approx(min(100 * 356 / 548, 145.7417562100671))

    def test_expansion_branch(self):
        got = select_cout(100, 16, 3, 4, DominantLayer.EXPANSION)
        assert got == pytest.approx(133.87374771932434)

    def test_projection_routes_to_expansion_branch(self):
        assert select_cout(100, 16, 3, 4, DominantLayer.PROJECTION) == pytest.approx(
            select_cout(100, 16, 3, 4, DominantLayer.EXPANSION)
        )

    def test_output_always_one_of_the_scenarios(self):
        rng = random.Random(2)
        for _ in range(300):
            c, i, k, e = (
                rng.randint(1, 256),
                rng.choice([4, 8, 16, 56]),
                rng.choice([3, 5, 7]),
                rng.choice([2, 3, 4]),
            )
            scenarios = {
                cout_depthwise_dominated(c, i, k),
                cout_dw_to_exp(c, i, k, e),
                cout_exp_dominated(c, i, e),
            }
            for dom in DominantLayer:
                assert select_cout(c, i, k, e, dom) in scenarios


def within_stage(width, input_size, kernel=7, expand=4, depth=4):
    return [
        MBBlockShape(width, width, expand, kernel, 1, input_size) for _ in range(depth)
    ]


def scan_balance(current, template, cap=4096):
    """Independent oracle: exhaustive linear scan for the largest feasible
    width."""
    target = stage_peak(current)
    best = None
    for c in range(1, cap + 1):
        if stage_peak(stage_blocks(current[-1].c_out, c, template)) <= target:
            best = c
        else:
            break
    return best


class TestNumericBalance:
    def test_identical_template_returns_current_width(self):
        current = within_stage(48, 14)
        template = StageTemplate(input_size=14, kernel=7, expand=4, depth=4, downsample=False)
        assert numeric_balance(current, template) == 48

    def test_maximality(self):
        rng = random.Random(9)
        for _ in range(40):
            w = rng.choice([16, 32, 64, 96])
            i = rng.choice([16, 28, 56])
            template = StageTemplate(
                input_size=i,
                kernel=rng.choice([3, 5, 7]),
                expand=rng.choice([2, 3, 4]),
                depth=rng.choice([2, 3, 4]),
            )
            current = within_stage(w, i, kernel=7, expand=4)
            got = numeric_balance(current, template)
            target = stage_peak(current)
            assert stage_peak(stage_blocks(w, got, template)) <= target
            assert stage_peak(stage_blocks(w, got + 1, template)) > target

    def test_matches_exhaustive_scan_on_halved_transition(self):
        current = within_stage(24, 56)
        template = StageTemplate(input_size=56, kernel=7, expand=4, depth=4)
        got = numeric_balance(current, template)
        assert got == scan_balance(current, template)

    @given(
        depth=st.integers(1, 6),
        kernel=st.sampled_from((1, 3, 5, 7)),
        expand=st.sampled_from((1, 2, 3, 4, 6, 1.5, 2.5, 3.75)),
        downsample=st.booleans(),
        input_size=st.sampled_from((2, 4, 8, 14, 28, 56)),
        current=st.tuples(
            st.integers(1, 128), st.sampled_from((4, 14, 28, 56)),
            st.sampled_from((3, 7)), st.sampled_from((2, 4, 1.5)), st.integers(1, 4),
        ),
    )
    def test_equals_the_full_depth_balance(
        self, depth, kernel, expand, downsample, input_size, current
    ):
        # the balancer builds the transition and one inner block; the widest
        # width whose whole stage, every inner block built, fits is the same
        current = within_stage(*current)
        template = StageTemplate(input_size, kernel, expand, depth, downsample)
        prev, target = current[-1].c_out, stage_peak(current)

        def full_peak(width):
            blocks = stage_blocks(prev, width, template)
            assert len(blocks) == depth
            return stage_peak(blocks)

        if full_peak(1) > target:
            with pytest.raises(InfeasibleError):
                numeric_balance(current, template)
            return
        got = numeric_balance(current, template)
        assert full_peak(got) <= target < full_peak(got + 1)

    def test_infeasible_when_transition_overhead_exceeds_target(self):
        current = within_stage(2, 4, kernel=1, expand=1, depth=1)
        template = StageTemplate(input_size=112, kernel=7, expand=4, depth=4)
        with pytest.raises(InfeasibleError):
            numeric_balance(current, template)


class TestQuantize:
    def test_floor_to_multiple(self):
        assert quantize(64.96, 8) == 64

    def test_exact_multiple(self):
        assert quantize(392.0, 8) == 392

    def test_below_one_quantum(self):
        with pytest.raises(InfeasibleError):
            quantize(7.9, 8)

    def test_divisor_one_floors_to_integer(self):
        assert quantize(5.02, 1) == 5


class TestPlanSchedule:
    @pytest.mark.parametrize("mode", [[1], {"a": 1}, 5, None, "bogus"])
    def test_a_schedule_of_no_planning_mode_is_refused(self, mode):
        d = {**plan_schedule(ReferenceConfig()).to_json_dict(), "mode": mode}
        with pytest.raises(FieldError) as exc:
            ChannelSchedule.from_json_dict(d)
        assert str(exc.value) == f"mode: expected one of ['numeric', 'closed-form'], got {mode!r}"

    def test_numeric_reference_walk(self):
        sched = plan_schedule(ReferenceConfig())
        assert sched.all_widths() == (8, 24, 88, 272, 344, 344, 344)
        widths = sched.stage_widths
        assert all(b >= a for a, b in zip(widths, widths[1:]))

    def test_numeric_memory_constancy_up_to_quantization(self):
        ref = ReferenceConfig()
        sched = plan_schedule(ref)
        peaks = schedule_stage_peaks(ref, sched)
        prev_width = sched.stem_width
        for s in range(1, len(peaks)):
            assert peaks[s] <= peaks[s - 1]
        # one divisor step more would overshoot the previous stage's peak
        prev = sched.stem_width
        for s, width in enumerate(sched.stage_widths, start=1):
            if s >= 2:
                template = _stage_template(ref, s)
                bumped = stage_peak(stage_blocks(prev, width + sched.divisor, template))
                assert bumped > peaks[s - 2]
            prev = width

    @pytest.mark.parametrize("mode, stem", [("numeric", 8), ("closed-form", 64)])
    @pytest.mark.parametrize("depth", [2, 3, 1000])
    def test_planning_builds_at_most_two_blocks_per_stage(self, monkeypatch, mode, stem, depth):
        # within-stage blocks are identical, so a planned stage is its
        # transition and at most one inner block, whatever the depth
        built = []
        shapes = planner.stage_shapes

        def recording(*args):
            blocks = shapes(*args)
            built.append(len(blocks))
            return blocks

        monkeypatch.setattr(planner, "stage_shapes", recording)
        ref = ReferenceConfig(depth=depth)
        schedule_stage_peaks(ref, plan_schedule(ref, stem_width=stem, mode=mode))
        assert built and max(built) == 2

    def test_planner_and_space_lay_out_stages_alike(self):
        # the widest config of the default space is the reference config,
        # so each resolved stage opens with the planner's two blocks
        space, ref = default_space(), ReferenceConfig()
        skeleton = resolve(maximal_config(space), space)
        assert skeleton.resolution == ref.resolution
        stages: dict[str, list] = {}
        for label, block in zip(skeleton.block_labels, skeleton.blocks):
            stages.setdefault(label.split(".")[0], []).append(block)
        prev = space.schedule.stem_width
        for s, width in enumerate(space.schedule.stage_widths, start=1):
            planned = stage_blocks(prev, width, _stage_template(ref, s))
            assert len(planned) == 2
            assert stages[f"stage{s}"][:2] == planned
            prev = width

    def test_closed_form_shrinks_and_reports_stage_on_failure(self):
        with pytest.raises(InfeasibleError) as exc:
            plan_schedule(ReferenceConfig(), stem_width=8, divisor=8, mode="closed-form")
        assert exc.value.stage == 1

    def test_closed_form_from_wider_stem_completes(self):
        sched = plan_schedule(ReferenceConfig(), stem_width=64, divisor=8, mode="closed-form")
        assert sched.all_widths() == (64, 40, 72, 48, 64, 56, 48)
        assert sched.stage_widths[0] < sched.stem_width

    def test_divisor_one_is_unquantized_floor(self):
        sched = plan_schedule(ReferenceConfig(), stem_width=8, divisor=1)
        # raw balanced integers (hand-rederived: within-dw 25284*C under the
        # 804384 anchor gives 31, then 6468*C under 783804 gives 121, ...)
        assert sched.all_widths() == (8, 31, 121, 336, 412, 412, 412)

    def test_schedule_validates_divisor_multiples(self):
        with pytest.raises(ValidationError):
            ChannelSchedule(stem_width=8, stage_widths=(24, 88, 272, 344, 342), head_width=344, divisor=8)

    def test_deviation_rows_cover_reference(self):
        rows = deviation_rows(plan_schedule(ReferenceConfig()))
        assert [r["reference"] for r in rows] == list(REFERENCE_WIDTHS)
        assert rows[0]["deviation"] == 0
        assert rows[1]["deviation"] == 0  # first planned width matches
        assert rows[-1]["planned"] is None
