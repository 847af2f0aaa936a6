"""Property tests for the merge algebra behind parallel verification.

Per-worker ``CompilationStats`` and ``MetricsRegistry`` instances are
folded into one view by the executor; replies arrive in *arbitrary
order* (whichever worker finishes first), so the merge operations must be
associative and commutative or the merged report would depend on
worker scheduling.  Integer-valued strategies keep every comparison
exact (no float-rounding escape hatch)."""

import copy

from hypothesis import given, strategies as st

from repro.mso.compile import CompilationStats
from repro.obs.metrics import (Counter, Gauge, Histogram,
                               MetricsRegistry, NULL_REGISTRY)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

counts = st.integers(min_value=0, max_value=10**6)


@st.composite
def compilation_stats(draw):
    stats = CompilationStats()
    for field in stats.to_dict():
        setattr(stats, field, draw(counts))
    return stats


@st.composite
def registries(draw):
    registry = MetricsRegistry()
    names = ("alpha", "beta", "gamma")
    for name in draw(st.sets(st.sampled_from(names))):
        registry.counter("count." + name).inc(draw(counts))
    for name in draw(st.sets(st.sampled_from(names))):
        gauge = registry.gauge("gauge." + name)
        for value in draw(st.lists(counts, max_size=4)):
            gauge.set(value)
    for name in draw(st.sets(st.sampled_from(names))):
        histogram = registry.histogram("hist." + name)
        for value in draw(st.lists(counts, max_size=6)):
            histogram.observe(value)
    return registry


def merged_stats(*parts):
    out = CompilationStats()
    for part in parts:
        out.merge(part)
    return out.to_dict()


def merged_registries(*parts):
    out = MetricsRegistry()
    for part in parts:
        out.merge(part)
    return out.to_dict()


# ----------------------------------------------------------------------
# CompilationStats.merge
# ----------------------------------------------------------------------

class TestCompilationStatsMerge:
    @given(a=compilation_stats(), b=compilation_stats())
    def test_commutative(self, a, b):
        assert merged_stats(a, b) == merged_stats(b, a)

    @given(a=compilation_stats(), b=compilation_stats(),
           c=compilation_stats())
    def test_associative(self, a, b, c):
        left = copy.deepcopy(a)
        left.merge(b)
        left.merge(c)
        bc = copy.deepcopy(b)
        bc.merge(c)
        right = copy.deepcopy(a)
        right.merge(bc)
        assert left.to_dict() == right.to_dict()

    @given(a=compilation_stats())
    def test_identity(self, a):
        assert merged_stats(a, CompilationStats()) == a.to_dict()

    @given(a=compilation_stats(), b=compilation_stats())
    def test_counters_sum_highwater_max(self, a, b):
        merged = merged_stats(a, b)
        assert merged["products"] == a.products + b.products
        assert merged["max_states"] == max(a.max_states, b.max_states)
        assert merged["peak_nodes"] == max(a.peak_nodes, b.peak_nodes)
        assert merged["unique_table_size"] == \
            max(a.unique_table_size, b.unique_table_size)

    @given(a=compilation_stats(), b=compilation_stats())
    def test_merge_argument_untouched(self, a, b):
        before = b.to_dict()
        a.merge(b)
        assert b.to_dict() == before


# ----------------------------------------------------------------------
# MetricsRegistry.merge
# ----------------------------------------------------------------------

class TestRegistryMerge:
    @given(a=registries(), b=registries())
    def test_commutative(self, a, b):
        assert merged_registries(a, b) == merged_registries(b, a)

    @given(a=registries(), b=registries(), c=registries())
    def test_associative(self, a, b, c):
        left = MetricsRegistry()
        left.merge(a)
        left.merge(b)
        left.merge(c)
        bc = MetricsRegistry()
        bc.merge(b)
        bc.merge(c)
        right = MetricsRegistry()
        right.merge(a)
        right.merge(bc)
        assert left.to_dict() == right.to_dict()

    @given(a=registries())
    def test_identity(self, a):
        assert merged_registries(a, MetricsRegistry()) == a.to_dict()

    @given(values=st.lists(counts, min_size=1, max_size=8))
    def test_merged_gauges_follow_max_over_subgoals(self, values):
        # One gauge per "worker", each holding one subgoal's value:
        # the merged gauge must equal the max over subgoals, exactly
        # as a sequential run's final gauge (which saw every set())
        # reports its max_value.
        merged = Gauge("g")
        sequential = Gauge("g")
        for value in values:
            worker = Gauge("g")
            worker.set(value)
            merged.merge(worker)
            sequential.set(value)
        assert merged.value == max(values)
        assert merged.max_value == sequential.max_value == max(values)

    @given(amounts=st.lists(counts, min_size=1, max_size=8))
    def test_merged_counters_sum(self, amounts):
        merged = Counter("c")
        for amount in amounts:
            worker = Counter("c")
            worker.inc(amount)
            merged.merge(worker)
        assert merged.value == sum(amounts)

    @given(left=st.lists(counts, max_size=8),
           right=st.lists(counts, max_size=8))
    def test_histogram_merge_equals_joint_observation(self, left, right):
        a, b, joint = Histogram("h"), Histogram("h"), Histogram("h")
        for value in left:
            a.observe(value)
            joint.observe(value)
        for value in right:
            b.observe(value)
            joint.observe(value)
        a.merge(b)
        assert a.to_dict() == joint.to_dict()

    def test_null_registry_merge_is_noop(self):
        source = MetricsRegistry()
        source.counter("x").inc(5)
        NULL_REGISTRY.merge(source)
        assert NULL_REGISTRY.to_dict() == {}
