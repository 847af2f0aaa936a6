"""Tests for the observability substrate (repro.obs)."""

import time

import pytest

from repro.bdd.mtbdd import Mtbdd
from repro.obs.metrics import (NULL_REGISTRY, MetricsRegistry,
                               activate_metrics, current_metrics)
from repro.obs.trace import (NULL_SPAN, NULL_TRACER, Tracer, activate,
                             current_tracer, span, tracer_from_env)


class TestTracer:
    def test_nested_spans_form_a_tree(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner", depth=2) as inner:
                pass
        assert tracer.roots == [outer]
        assert outer.children == [inner]
        assert inner.children == []
        assert inner.attrs == {"depth": 2}

    def test_span_measures_time(self):
        tracer = Tracer()
        with tracer.span("work") as sp:
            time.sleep(0.01)
        assert sp.seconds >= 0.01
        assert sp.end is not None

    def test_annotate_merges_attributes(self):
        tracer = Tracer()
        with tracer.span("op", a=1) as sp:
            sp.annotate(b=2, a=3)
        assert sp.attrs == {"a": 3, "b": 2}

    def test_real_spans_truthy_null_span_falsy(self):
        tracer = Tracer()
        with tracer.span("op") as sp:
            assert sp
        assert not NULL_SPAN

    def test_detail_spans_skipped_without_detail(self):
        tracer = Tracer(detail=False)
        with tracer.span("phase"):
            with tracer.span("op", detail=True) as sp:
                assert sp is NULL_SPAN
        assert len(tracer.roots) == 1
        assert tracer.roots[0].children == []

    def test_detail_spans_recorded_with_detail(self):
        tracer = Tracer(detail=True)
        with tracer.span("op", detail=True) as sp:
            pass
        assert tracer.roots == [sp]

    def test_max_spans_cap_drops_not_raises(self):
        tracer = Tracer(max_spans=2)
        for _ in range(5):
            with tracer.span("op"):
                pass
        assert tracer.spans_recorded == 2
        assert tracer.spans_dropped == 3
        assert len(tracer.roots) == 2

    def test_to_dict_round_trips_structure(self):
        tracer = Tracer()
        with tracer.span("outer", k="v"):
            with tracer.span("inner"):
                pass
        document = tracer.to_dict()
        assert document["spans_recorded"] == 2
        (root,) = document["spans"]
        assert root["name"] == "outer"
        assert root["attrs"] == {"k": "v"}
        assert [c["name"] for c in root["children"]] == ["inner"]
        assert root["seconds"] >= 0

    def test_iter_spans_preorder(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                pass
        names = [s.name for s in tracer.roots[0].iter_spans()]
        assert names == ["a", "b", "c"]


class TestActiveTracer:
    def test_default_is_null_sink(self):
        assert current_tracer() is NULL_TRACER
        assert span("anything") is NULL_SPAN

    def test_activate_installs_and_restores(self):
        tracer = Tracer()
        with activate(tracer):
            assert current_tracer() is tracer
            with span("via-module"):
                pass
        assert current_tracer() is NULL_TRACER
        assert [s.name for s in tracer.roots] == ["via-module"]

    def test_activate_none_means_null(self):
        with activate(None):
            assert current_tracer() is NULL_TRACER

    def test_tracer_from_env(self):
        assert tracer_from_env({}) is None
        assert tracer_from_env({"REPRO_TRACE": ""}) is None
        assert tracer_from_env({"REPRO_TRACE": "0"}) is None
        tracer = tracer_from_env({"REPRO_TRACE": "1"})
        assert isinstance(tracer, Tracer)
        assert tracer.detail


class TestMetrics:
    def test_counter(self):
        registry = MetricsRegistry()
        registry.counter("ops").inc()
        registry.counter("ops").inc(4)
        assert registry.counter("ops").value == 5

    def test_gauge_tracks_max(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("live")
        gauge.set(7)
        gauge.set(3)
        assert gauge.value == 3
        assert gauge.max_value == 7

    def test_histogram_statistics(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("states")
        for value in (1, 2, 3, 8, 100):
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.minimum == 1
        assert histogram.maximum == 100
        assert histogram.mean == pytest.approx(114 / 5)
        document = histogram.to_dict()
        # 1 -> le_2^0; 2 -> le_2^1; 3 -> le_2^2; 8 -> le_2^3;
        # 100 -> le_2^7
        assert document["buckets"] == {
            "le_2^0": 1, "le_2^1": 1, "le_2^2": 1, "le_2^3": 1,
            "le_2^7": 1}

    def test_registry_to_dict_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.gauge("a").set(1)
        assert list(registry.to_dict()) == ["a", "b"]

    def test_null_registry_swallows_everything(self):
        assert current_metrics() is NULL_REGISTRY
        NULL_REGISTRY.counter("x").inc()
        NULL_REGISTRY.gauge("y").set(9)
        NULL_REGISTRY.histogram("z").observe(3)
        assert NULL_REGISTRY.to_dict() == {}

    def test_activate_metrics_restores(self):
        registry = MetricsRegistry()
        with activate_metrics(registry):
            current_metrics().counter("inside").inc()
        assert current_metrics() is NULL_REGISTRY
        assert registry.counter("inside").value == 1


class TestBddCacheStats:
    def test_mtbdd_counts_apply_hits_and_misses(self):
        mgr = Mtbdd()
        f = mgr.node(0, mgr.leaf(0), mgr.leaf(1))
        g = mgr.node(1, mgr.leaf(0), mgr.leaf(1))
        mgr.apply2("pair", lambda a, b: (a, b), f, g)
        misses = mgr.apply_misses
        assert misses > 0
        assert mgr.apply_hits == 0
        # The identical call is answered entirely from the memo table.
        mgr.apply2("pair", lambda a, b: (a, b), f, g)
        assert mgr.apply_hits == 1
        assert mgr.apply_misses == misses

    def test_mtbdd_counts_map_and_restrict_caches(self):
        mgr = Mtbdd()
        f = mgr.node(0, mgr.node(1, mgr.leaf(0), mgr.leaf(1)),
                     mgr.leaf(2))
        mapped = mgr.map_leaves("inc", lambda v: v + 1, f)
        map_misses = mgr.map_misses
        assert map_misses > 0
        assert mgr.map_leaves("inc", lambda v: v + 1, f) == mapped
        assert mgr.map_hits == 1
        assert mgr.map_misses == map_misses
        restricted = mgr.restrict(f, {1: True})
        restrict_misses = mgr.restrict_misses
        assert restrict_misses > 0
        assert mgr.restrict(f, {1: True}) == restricted
        assert mgr.restrict_hits == 1
        assert mgr.restrict_misses == restrict_misses
        assert mgr.map_misses == map_misses
        assert mgr.restrict_misses == restrict_misses
        assert mgr.peak_nodes == len(mgr)

    def test_mtbdd_table_sizes(self):
        mgr = Mtbdd()
        assert mgr.unique_table_size == 0
        f = mgr.node(0, mgr.leaf("a"), mgr.leaf("b"))
        assert mgr.unique_table_size == 1
        assert mgr.peak_nodes == len(mgr)
        assert not mgr.is_leaf(f)
