"""Built-in instances and seeded generators."""

from __future__ import annotations

import pytest

from framescale.corpus import (
    CorpusError,
    cycle_pattern_frame,
    load,
    named_graph,
    names,
    onb,
    random_frame,
)
from framescale.frames import FrameError, classify_tightness, is_frame, random_parseval
from framescale.graphs import build_graph, compute_stats, zero_pattern_equal


class TestRegistry:
    def test_names_listed(self):
        assert {"paper/M1", "paper/M2", "paper/M", "canonical/mercedes",
                "paper/graph-K2K2-join-K13"} <= set(names())

    def test_built_in_frames_exact(self):
        # `filters --graph NAME` builds their graphs by exact adjacency
        frames = [load(name).frame for name in names()]
        assert all(fr.is_exact for fr in frames if fr is not None)

    def test_unknown_name(self):
        with pytest.raises(CorpusError):
            load("paper/nope")

    def test_m1_columns(self):
        fr = load("paper/M1").frame
        assert fr.dim == 4 and fr.count == 4
        assert tuple(fr.vectors[0]) == (1, 2, 0, 0)
        assert tuple(fr.vectors[3]) == (0, 0, 1, -2)

    def test_m_is_concatenation(self):
        m = load("paper/M").frame
        m1 = load("paper/M1").frame
        m2 = load("paper/M2").frame
        assert m.vectors == m1.vectors + m2.vectors

    def test_mercedes_unit_tight(self):
        fr = load("canonical/mercedes").frame
        assert fr.is_exact
        t = classify_tightness(fr)
        assert t.kind == "tight" and float(t.bound) == 1.5
        for v in fr.vectors:
            assert sum(x * x for x in v) == 1

    def test_instances_are_bare_inputs(self):
        for name in names():
            inst = load(name)
            assert inst._fields == ("name", "frame", "graph")
            assert inst.name == name
            assert (inst.frame is None) != (inst.graph is None)

    def test_graph_only_instance(self):
        inst = load("paper/graph-K2K2-join-K13")
        assert inst.frame is None
        g = inst.graph
        assert g.vertex_count == 8 and len(g.edges) == 21
        built = build_graph(load("paper/M").frame, 0)
        assert zero_pattern_equal(g, built)


class TestGenerators:
    def test_onb(self):
        fr = onb(4)
        assert not build_graph(fr, 0).edges
        assert classify_tightness(fr).kind == "parseval"

    def test_random_frame_spans_and_reproduces(self):
        a = random_frame(6, 3, 42)
        b = random_frame(6, 3, 42)
        assert a.vectors == b.vectors
        assert is_frame(a) and a.is_exact

    def test_random_frame_needs_enough_vectors(self):
        with pytest.raises(FrameError):
            random_frame(2, 3, 1)

    def test_random_parseval_deterministic(self):
        assert random_parseval(4, 2, 1).vectors == \
            random_parseval(4, 2, 1).vectors

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_cycle_pattern(self, n):
        fr = cycle_pattern_frame(7, n, 1)
        st = compute_stats(build_graph(fr, 1e-10))
        assert st.is_cycle and st.is_connected
        assert is_frame(fr, 1e-10)

    def test_cycle_pattern_unsupported_codim(self):
        with pytest.raises(FrameError):
            cycle_pattern_frame(8, 4, 1)


class TestNamedGraph:
    def test_shapes(self):
        assert named_graph("K5").vertex_count == 5
        assert len(named_graph("K_{2,3}").edges) == 6
        assert len(named_graph("C6").edges) == 6
        assert len(named_graph("P4").edges) == 3
        assert not named_graph("E4").edges

    def test_bad_names(self):
        # a negative size, or a count of K_{...} sizes other than two,
        # makes the name unknown
        for name in ("Q3", "Kx", "K_{-1,2}", "K_{2,-1}", "K_{1}",
                     "K_{1,2,3}", "K_{}", "K_{a,2}", "K-1", "K\u00b2"):
            with pytest.raises(CorpusError):
                named_graph(name)

    def test_bipartite_sizes_as_int_reads_them(self):
        for name in ("K_{ 2 , 3 }", "K_{+2,3}", "K_{02,3}"):
            assert named_graph(name) == named_graph("K_{2,3}")
        assert named_graph("K_{0,3}") == named_graph("E3")
