"""Layer and network memory accounting."""

import io
import math
import random
import statistics

import pytest
from hypothesis import given
from hypothesis import strategies as st

from memnas.errors import ChainError, ResolutionError, ValidationError
from memnas.memory import (
    LayerMemory,
    MBBlockShape,
    MemoryProfile,
    NetworkSkeleton,
    block_flops,
    block_memory,
    depthwise_memory,
    expansion_memory,
    expanded_channels,
    flops_estimate,
    flops_millions,
    items_to_bytes,
    profile_network,
    projection_memory,
)


def shape(c_in=16, c_out=16, expand=4, kernel=3, stride=1, input_size=32):
    return MBBlockShape(c_in, c_out, expand, kernel, stride, input_size)


class TestExpansionMemory:
    def test_reference_shape(self):
        rec = expansion_memory(shape(c_in=16, expand=4, input_size=32))
        assert (rec.input_items, rec.weight_items, rec.output_items) == (16384, 1024, 65536)
        assert rec.total_items == 82944

    def test_unit_dimensions(self):
        rec = expansion_memory(shape(c_in=1, c_out=1, expand=1, kernel=1, input_size=1))
        assert (rec.input_items, rec.weight_items, rec.output_items) == (1, 1, 1)
        assert rec.total_items == 3

    def test_small_shape(self):
        rec = expansion_memory(shape(c_in=8, expand=2, input_size=4))
        assert (rec.input_items, rec.weight_items, rec.output_items) == (128, 128, 256)

    def test_invalid_dimension_names_field(self):
        with pytest.raises(ValidationError, match="c_in"):
            shape(c_in=0)
        # a NaN or infinite expand used to escape from expanded_channels as
        # ValueError or OverflowError
        for expand in (-1, 0, math.nan, math.inf, -math.inf):
            with pytest.raises(
                ValidationError, match=f"expand must be a positive finite number, got {expand!r}"
            ):
                shape(expand=expand)


class TestDepthwiseMemory:
    def test_strided_reference(self):
        rec = depthwise_memory(shape(c_in=16, expand=4, kernel=3, stride=2, input_size=32))
        assert (rec.input_items, rec.weight_items, rec.output_items) == (65536, 576, 16384)
        assert rec.total_items == 82496

    def test_minimal_stride2(self):
        rec = depthwise_memory(shape(c_in=1, c_out=1, expand=1, kernel=1, stride=2, input_size=2))
        assert (rec.input_items, rec.weight_items, rec.output_items) == (4, 1, 1)
        assert rec.total_items == 6

    def test_stride1(self):
        rec = depthwise_memory(shape(c_in=8, expand=2, kernel=3, input_size=4))
        assert (rec.input_items, rec.weight_items, rec.output_items) == (256, 144, 256)
        assert rec.total_items == 656

    def test_odd_input_with_stride2_rejected(self):
        with pytest.raises(ResolutionError, match="input_size 7 is not divisible by stride 2"):
            shape(stride=2, input_size=7)


class TestProjectionMemory:
    def test_within_stage_matches_expansion_total(self):
        s = shape(c_in=16, c_out=16, expand=4, input_size=32)
        rec = projection_memory(s)
        assert (rec.input_items, rec.weight_items, rec.output_items) == (65536, 1024, 16384)
        assert rec.total_items == expansion_memory(s).total_items == 82944

    def test_unit(self):
        rec = projection_memory(shape(c_in=1, c_out=1, expand=1, kernel=1, input_size=1))
        assert rec.total_items == 3

    def test_strided_width_change(self):
        rec = projection_memory(shape(c_in=16, c_out=24, expand=4, stride=2, input_size=32))
        assert (rec.input_items, rec.weight_items, rec.output_items) == (16384, 1536, 6144)
        assert rec.total_items == 24064


class TestBlockMemory:
    def test_execution_order_and_labels(self):
        recs = block_memory(shape(), prefix="stage2.block1")
        assert [r.label for r in recs] == [
            "stage2.block1.exp",
            "stage2.block1.dw",
            "stage2.block1.proj",
        ]

    def test_within_stage_symmetry_order(self):
        # first and third totals equal for any S=1, c_in=c_out block
        recs = block_memory(shape(c_in=24, c_out=24, expand=3, kernel=5, input_size=14))
        assert recs[0].total_items == recs[2].total_items

    def test_reference_totals(self):
        # direct evaluation of the three layers, summed by hand:
        # exp 16384+1024+65536, dw 65536+576+65536, proj 65536+1024+16384
        recs = block_memory(shape(c_in=16, c_out=16, expand=4, kernel=3, input_size=32))
        assert [r.total_items for r in recs] == [82944, 131648, 82944]

    def test_totals_are_component_sums(self):
        rng = random.Random(7)
        for _ in range(200):
            s = shape(
                c_in=rng.randint(1, 64),
                c_out=rng.randint(1, 64),
                expand=rng.choice([1, 2, 3, 4]),
                kernel=rng.choice([1, 3, 5, 7]),
                stride=1,
                input_size=rng.randint(1, 40),
            )
            for rec in block_memory(s):
                assert rec.total_items == (
                    rec.input_items + rec.weight_items + rec.output_items
                )
                assert isinstance(rec.total_items, int)


class TestMonotonicity:
    def test_growing_any_dimension_never_shrinks_layers(self):
        rng = random.Random(11)
        base = dict(c_in=8, c_out=12, expand=2, kernel=3, stride=1, input_size=16)
        for _ in range(500):
            kw = dict(
                c_in=rng.randint(1, 48),
                c_out=rng.randint(1, 48),
                expand=rng.choice([1, 2, 3, 4]),
                kernel=rng.choice([1, 3, 5]),
                stride=1,
                input_size=rng.randint(2, 32),
            )
            grown = dict(kw)
            key = rng.choice(["c_in", "c_out", "expand", "kernel", "input_size"])
            grown[key] = kw[key] + (2 if key == "kernel" else 1)
            a = block_memory(MBBlockShape(**kw))
            b = block_memory(MBBlockShape(**grown))
            for ra, rb in zip(a, b):
                assert rb.total_items >= ra.total_items, (key, kw)

    def test_expanded_channels_rounds_ties_up(self):
        assert expanded_channels(2, 1.25) == 3  # 2.5 rounds up
        assert expanded_channels(3, 1.5) == 5  # 4.5 rounds up
        assert expanded_channels(16, 4) == 64


def unit_skeleton(include_classifier=False, num_classes=10):
    block = MBBlockShape(c_in=4, c_out=4, expand=1, kernel=1, stride=1, input_size=2)
    return NetworkSkeleton(
        resolution=4,
        stem_width=4,
        blocks=(block,),
        head_width=6,
        include_classifier=include_classifier,
        num_classes=num_classes,
    )


class TestProfileNetwork:
    def test_record_layout_and_peak(self):
        prof = profile_network(unit_skeleton())
        assert [r.label for r in prof.records] == [
            "stem",
            "block1.exp",
            "block1.dw",
            "block1.proj",
            "head",
        ]
        totals = [r.total_items for r in prof.records]
        assert prof.peak_items == max(totals)
        assert totals[prof.peak_index] == prof.peak_items
        assert prof.classifier_excluded

    def test_classifier_can_become_peak(self):
        prof = profile_network(unit_skeleton(include_classifier=True, num_classes=1000))
        assert prof.records[-1].label == "classifier"
        assert not prof.classifier_excluded
        assert prof.peak_index == len(prof.records) - 1
        assert prof.records[-1].weight_items == 6 * 1000

    def test_peak_invariant_under_relabeling(self):
        sk = unit_skeleton()
        relabeled = NetworkSkeleton(
            resolution=sk.resolution,
            stem_width=sk.stem_width,
            blocks=sk.blocks,
            head_width=sk.head_width,
            block_labels=("renamed",),
        )
        assert profile_network(relabeled).peak_items == profile_network(sk).peak_items

    def test_brute_force_peak_over_records(self):
        rng = random.Random(3)
        for _ in range(50):
            width = rng.choice([4, 8, 12])
            blocks = []
            prev = width
            size = 8
            for _ in range(rng.randint(1, 4)):
                w = rng.choice([4, 8, 12])
                blocks.append(
                    MBBlockShape(prev, w, rng.choice([1, 2, 3]), 3, 1, size)
                )
                prev = w
            sk = NetworkSkeleton(
                resolution=16, stem_width=width, blocks=tuple(blocks), head_width=8
            )
            prof = profile_network(sk)
            assert prof.peak_items == max(r.total_items for r in prof.records)

    def test_chain_errors_name_the_boundary(self):
        good = unit_skeleton()
        with pytest.raises(ChainError, match="stem->block0"):
            NetworkSkeleton(resolution=4, stem_width=5, blocks=good.blocks, head_width=6)
        b1 = MBBlockShape(4, 4, 1, 1, 1, 2)
        b2 = MBBlockShape(8, 8, 1, 1, 1, 2)
        with pytest.raises(ChainError, match="block0->block1"):
            NetworkSkeleton(resolution=4, stem_width=4, blocks=(b1, b2), head_width=6)


class TestSerialization:
    def test_csv_columns(self):
        prof = profile_network(unit_skeleton())
        buf = io.StringIO()
        prof.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "index,label,input_items,weight_items,output_items,total_items"
        assert len(lines) == len(prof.records) + 1
        first = lines[1].split(",")
        rec = prof.records[0]
        assert first == [
            "0",
            rec.label,
            str(rec.input_items),
            str(rec.weight_items),
            str(rec.output_items),
            str(rec.total_items),
        ]

    def test_json_mirrors_type(self):
        prof = profile_network(unit_skeleton())
        d = prof.to_json_dict()
        assert d["peak_items"] == prof.peak_items
        assert d["classifier_excluded"] is True
        assert len(d["records"]) == len(prof.records)
        assert d["records"][0]["total_items"] == prof.records[0].total_items


    @given(totals=st.lists(
        st.one_of(st.integers(0, 10 ** 7), st.integers(0, 2 ** 70)), min_size=1, max_size=80
    ))
    def test_average_is_the_fmean_of_the_totals(self, totals):
        # bit for bit, also past 2**53, where float sums round
        records = [LayerMemory(f"l{i}", t, 0, 0) for i, t in enumerate(totals)]
        profile = MemoryProfile.from_records(records, classifier_excluded=True)
        assert profile.avg_items.hex() == statistics.fmean(totals).hex()


class TestItemsToBytes:
    def test_float32(self):
        assert items_to_bytes(350_000, "float32") == 1_400_000

    def test_zero(self):
        assert items_to_bytes(0, "float32") == 0

    def test_float16(self):
        assert items_to_bytes(1, "float16") == 2

    def test_unknown_precision(self):
        with pytest.raises(ValidationError):
            items_to_bytes(1, "float12")


class TestFlops:
    def test_unit_skeleton_hand_count(self):
        sk = unit_skeleton()
        # stem 9*3*4*2*2, block exp 4*4*2*2 + dw 1*4*2*2 + proj 4*4*2*2,
        # head 4*6*2*2
        macs = 432 + (64 + 16 + 64) + 96
        assert flops_estimate(sk) == 2 * macs

    def test_network_is_stem_and_head_plus_the_blocks(self):
        sk = unit_skeleton()
        assert block_flops(sk.blocks[0]) == 2 * (64 + 16 + 64)
        assert flops_estimate(sk) == 2 * (432 + 96) + block_flops(sk.blocks[0])

    def test_classifier_counts_only_when_included(self):
        with_cls = flops_estimate(unit_skeleton(include_classifier=True, num_classes=10))
        without = flops_estimate(unit_skeleton())
        assert with_cls - without == 2 * 6 * 10

    @given(
        c_in=st.integers(1, 64),
        c_out=st.integers(1, 64),
        kernel=st.sampled_from([1, 3, 5, 7]),
        expand=st.sampled_from([1, 2, 3, 4, 6, 0.75, 1.5, 2.5]),
        stride=st.sampled_from([1, 2]),
        input_size=st.integers(1, 64),
    )
    def test_flops_and_memory_accept_the_same_blocks(
        self, c_in, c_out, kernel, expand, stride, input_size
    ):
        # a block either fails when it is built or is counted by both models
        args = (c_in, c_out, expand, kernel, stride, input_size)
        if stride == 2 and input_size % 2:
            message = f"input_size {input_size} is not divisible by stride 2"
            with pytest.raises(ResolutionError, match=message):
                MBBlockShape(*args)
            return
        block = MBBlockShape(*args)
        assert block.output_size * stride == input_size
        assert len(block_memory(block)) == 3 and block_flops(block) > 0
        sk = NetworkSkeleton(2 * input_size, c_in, (block,), head_width=8)
        assert profile_network(sk).peak_items > 0 and flops_estimate(sk) > block_flops(block)

    def test_doubling_widths_quadruples_pointwise_flops(self):
        base = MBBlockShape(8, 8, 2, 3, 1, 8)
        double = MBBlockShape(16, 16, 2, 3, 1, 8)
        exp1 = expansion_memory(base)
        # pointwise MACs scale as c_in * expanded
        macs = lambda b: b.c_in * b.expanded * b.input_size ** 2
        assert macs(double) == 4 * macs(base)
        assert exp1.weight_items * 4 == expansion_memory(double).weight_items

    def test_flops_millions_rounding(self):
        assert flops_millions(2_326_124_864) == 2330.0
        assert flops_millions(123_456) == 0.123
        assert flops_millions(0) == 0.0
