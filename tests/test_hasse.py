"""Covering relations, marker annotation, and DOT emission."""

import pytest

from qprop import (
    DiagramOptions,
    DuplicateElements,
    Marker,
    Proposition,
    StateVector,
    TruthValue,
    UnknownName,
    ValuationInput,
    annotate,
    build_graph,
    collection_of,
    contains_subspace,
    context_new,
    covering_relation,
    emit_dot,
    full_space,
    lattice_of,
    merge_graphs,
    paste_sublattice,
    qubit_projector,
    range_of,
    subspace_from_spanning,
    truth_table,
    zero_space,
)

SIGMA_Z = context_new("Sigma_z", [qubit_projector("z", +1), qubit_projector("z", -1)])
SIGMA_X = context_new("Sigma_x", [qubit_projector("x", +1), qubit_projector("x", -1)])
SIGMA_Y = context_new("Sigma_y", [qubit_projector("y", +1), qubit_projector("y", -1)])


class TestCoveringRelation:
    def test_qubit_lattice_edges(self):
        lat = lattice_of(SIGMA_Z)
        edges = covering_relation(lat.elements)
        assert sorted(edges) == [(0, 1), (0, 2), (1, 3), (2, 3)]

    def test_single_element(self):
        assert covering_relation([full_space(2)]) == []

    def test_chain_has_no_shortcut(self):
        chain = [
            zero_space(3),
            subspace_from_spanning([[1, 0, 0]]),
            full_space(3),
        ]
        assert sorted(covering_relation(chain)) == [(0, 1), (1, 2)]

    def test_duplicates_rejected(self):
        s = subspace_from_spanning([[1, 0]])
        with pytest.raises(DuplicateElements):
            covering_relation([s, s])

    def test_transitive_closure_recovers_containment(self):
        lat = lattice_of(context_new("c", [qubit_projector("z", +1), qubit_projector("z", -1)]))
        elements = list(lat.elements)
        edges = covering_relation(elements)
        n = len(elements)
        reach = [[False] * n for _ in range(n)]
        for lo, hi in edges:
            reach[lo][hi] = True
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
        for i in range(n):
            for j in range(n):
                strictly_below = (
                    contains_subspace(elements[i], elements[j])
                    and elements[i].dim < elements[j].dim
                )
                assert reach[i][j] == strictly_below


class TestAnnotate:
    def _graph(self):
        lat = lattice_of(SIGMA_Z)
        labels = [None, "P_z+", "P_z-", None]
        return build_graph(lat.elements, labels)

    def test_markers_set(self):
        g = annotate(self._graph(), [("P_z+", TruthValue.TRUE), ("P_z-", TruthValue.FALSE)])
        markers = {v.label: v.marker for v in g.vertices}
        assert markers["P_z+"] is Marker.TRUE_SQUARE
        assert markers["P_z-"] is Marker.FALSE_CIRCLE
        assert markers["dim-0 #0"] is Marker.UNVALUED

    def test_empty_valuations_leave_unvalued(self):
        g = annotate(self._graph(), [])
        assert all(v.marker is Marker.UNVALUED for v in g.vertices)

    def test_unknown_name_rejected(self):
        with pytest.raises(UnknownName):
            annotate(self._graph(), [("nope", TruthValue.TRUE)])

    def test_gap_marker(self):
        lat = lattice_of(SIGMA_X)
        g = build_graph(lat.elements, [None, "P_x+", "P_x-", None])
        g = annotate(g, [("P_x+", TruthValue.GAP)])
        assert {v.marker for v in g.vertices if v.label == "P_x+"} == {Marker.GAP_HOLLOW}

    def test_full_truth_table_leaves_nothing_unvalued(self):
        lat = lattice_of(SIGMA_Z)
        graph = build_graph(lat.elements)
        inp = ValuationInput(
            StateVector(2, [1, 0]),
            range_of(qubit_projector("z", +1)),
            collection_of([SIGMA_Z]),
        )
        props = [Proposition(v.label, lat.elements[v.index]) for v in graph.vertices]
        rows = truth_table(inp, props)
        graph = annotate(graph, rows)
        assert all(v.marker is not Marker.UNVALUED for v in graph.vertices)


class TestEmitDot:
    def test_four_node_lattice(self):
        lat = lattice_of(SIGMA_Z)
        dot = emit_dot(build_graph(lat.elements))
        assert dot.count("[label=") == 4
        assert dot.count("->") == 4
        assert dot.startswith("digraph hasse {")

    def test_empty_graph(self):
        dot = emit_dot(build_graph([]))
        body = dot.splitlines()[1:-1]
        assert all(("->" not in line and "label=" not in line) for line in body)

    def test_pasted_blocks_with_clusters(self):
        pasted = paste_sublattice(collection_of([SIGMA_Z, SIGMA_X, SIGMA_Y]))
        blocks = {
            i: tuple(sorted(pasted.blocks_of(i))) for i in range(len(pasted.elements))
        }
        g = build_graph(pasted.elements, blocks=blocks)
        dot = emit_dot(g, DiagramOptions(cluster_blocks=True))
        assert dot.count("[label=") == 8
        assert dot.count("subgraph cluster_") == 3

    def test_deterministic_bytes(self):
        lat = lattice_of(SIGMA_X)
        g = build_graph(lat.elements)
        assert emit_dot(g) == emit_dot(g)

    def test_rank_groups_by_dimension(self):
        lat = lattice_of(SIGMA_Z)
        dot = emit_dot(build_graph(lat.elements))
        assert "{ rank=same; n1; n2; }" in dot

    def test_marker_shapes(self):
        lat = lattice_of(SIGMA_Z)
        g = build_graph(lat.elements, [None, "t", "f", None])
        g = annotate(g, [("t", TruthValue.TRUE), ("f", TruthValue.FALSE)])
        dot = emit_dot(g)
        assert "shape=square, style=filled" in dot
        assert "shape=circle, style=filled" in dot

    def test_dim_label_style(self):
        lat = lattice_of(SIGMA_Z)
        dot = emit_dot(build_graph(lat.elements), DiagramOptions(label_style="dim"))
        assert 'label="dim 1"' in dot
        assert 'label="P_z+"' not in dot

    @pytest.mark.parametrize(
        "name, head",
        [
            ("_x9", "digraph _x9 {"),
            ("2intro.v1", 'digraph "2intro.v1" {'),
            ("a b", 'digraph "a b" {'),
            ("Graph", 'digraph "Graph" {'),
            ("strict", 'digraph "strict" {'),
        ],
    )
    def test_graph_name_quoted_unless_a_plain_identifier(self, name, head):
        graph = build_graph(lattice_of(SIGMA_Z).elements)
        dot = emit_dot(graph, DiagramOptions(graph_name=name))
        assert dot.splitlines()[0] == head

    def test_label_quoting(self):
        lat = lattice_of(SIGMA_Z)
        labels = [None, 'say "up"', None, None]
        dot = emit_dot(build_graph(lat.elements, labels))
        assert 'label="say \\"up\\""' in dot


class TestMergeGraphs:
    def test_disjoint_union(self):
        g1 = build_graph(lattice_of(SIGMA_Z).elements)
        g2 = build_graph(lattice_of(SIGMA_X).elements)
        merged = merge_graphs([g1, g2])
        assert len(merged.vertices) == 8
        assert len(merged.edges) == 8
        assert {v.index for v in merged.vertices} == set(range(8))

    def test_empty_input(self):
        assert merge_graphs([]).vertices == ()
