"""Covering relations and annotated Hasse diagrams in DOT format.

Vertices are subspaces ordered by containment; each carries a truth-value
marker: filled square (true), filled circle (false), hollow circle (gap),
or unvalued. Output is deterministic: identical input yields identical
DOT bytes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, DuplicateElements, UnknownName
from .subspaces import contained_in, equal_to
from .valuation import TruthValue


class Marker(Enum):
    TRUE_SQUARE = "true-square"
    FALSE_CIRCLE = "false-circle"
    GAP_HOLLOW = "gap-hollow"
    UNVALUED = "unvalued"


MARKER_OF_VALUE = {
    TruthValue.TRUE: Marker.TRUE_SQUARE,
    TruthValue.FALSE: Marker.FALSE_CIRCLE,
    TruthValue.GAP: Marker.GAP_HOLLOW,
}


@dataclass(frozen=True)
class HasseVertex:
    index: int
    label: str
    dim: int
    marker: Marker = Marker.UNVALUED
    blocks: tuple[str, ...] = ()


@dataclass(frozen=True)
class HasseGraph:
    """Transitive reduction of the containment order over some subspaces."""

    ambient_dim: int
    vertices: tuple[HasseVertex, ...]
    edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class DiagramOptions:
    cluster_blocks: bool = False
    label_style: str = "name"  # "name" | "dim"
    graph_name: str = "hasse"


def covering_relation(elements, tol: float | None = None) -> list[tuple[int, int]]:
    """Edges (lower, upper) of the transitive reduction of containment.

    Raises DuplicateElements naming the first equal pair (i, j), i < j,
    and DimensionMismatch when the elements live in different spaces.
    Edges come in row-major (lower, upper) order.
    """
    elements = list(elements)
    shape = [(e.ambient_dim, e.dim) for e in elements]
    same_shape: dict[tuple[int, int], list[int]] = {}
    for i, key in enumerate(shape):
        same_shape.setdefault(key, []).append(i)
    for i, e in enumerate(elements):
        later = same_shape[shape[i]]
        later.pop(0)  # i itself: each list holds ascending indices
        hits = np.flatnonzero(equal_to(e, [elements[j] for j in later], tol))
        if hits.size:
            raise DuplicateElements(f"elements {i} and {later[hits[0]]} are equal")
    if len({d for d, _ in shape}) > 1:
        raise DimensionMismatch("elements live in different ambient spaces")
    dims = np.array([r for _, r in shape], dtype=int)
    below = np.zeros((len(elements), len(elements)), dtype=bool)
    for j, outer in enumerate(elements):
        lower = np.flatnonzero(dims < outer.dim)
        below[lower, j] = contained_in([elements[i] for i in lower], outer, tol)
    # i → j is a cover unless some k lies strictly between: below[i, k] and below[k, j].
    covers = below & ~(below @ below)
    return [(int(i), int(j)) for i, j in np.argwhere(covers)]


def build_graph(
    elements,
    labels=None,
    blocks=None,
    tol: float | None = None,
) -> HasseGraph:
    """Hasse graph of a list of subspaces with optional labels and blocks.

    Unlabelled vertices get canonical "dim-k #i" names; ``blocks`` maps an
    element index to the context labels it belongs to (for clustering).
    """
    elements = list(elements)
    if not elements:
        return HasseGraph(0, (), ())
    d = elements[0].ambient_dim
    edges = covering_relation(elements, tol)
    vertices = []
    for i, e in enumerate(elements):
        label = labels[i] if labels and labels[i] is not None else f"dim-{e.dim} #{i}"
        blk = tuple(blocks.get(i, ())) if blocks else ()
        vertices.append(HasseVertex(i, label, e.dim, Marker.UNVALUED, blk))
    return HasseGraph(d, tuple(vertices), tuple(edges))


def annotate(graph: HasseGraph, valuations) -> HasseGraph:
    """Set markers from (name, TruthValue) rows; unmentioned go unvalued."""
    by_label = {v.label: v.index for v in graph.vertices}
    markers = {v.index: Marker.UNVALUED for v in graph.vertices}
    for name, value in valuations:
        if name not in by_label:
            raise UnknownName(f"no vertex labelled {name!r}")
        markers[by_label[name]] = MARKER_OF_VALUE[value]
    vertices = tuple(replace(v, marker=markers[v.index]) for v in graph.vertices)
    return HasseGraph(graph.ambient_dim, vertices, graph.edges)


def merge_graphs(graphs) -> HasseGraph:
    """Disjoint union of already-annotated graphs, indices shifted."""
    graphs = [g for g in graphs if g.vertices]
    if not graphs:
        return HasseGraph(0, (), ())
    dims = {g.ambient_dim for g in graphs}
    if len(dims) != 1:
        raise ValueError(f"cannot merge graphs over different spaces {sorted(dims)}")
    vertices: list[HasseVertex] = []
    edges: list[tuple[int, int]] = []
    offset = 0
    for g in graphs:
        for v in g.vertices:
            vertices.append(replace(v, index=v.index + offset))
        edges.extend((lo + offset, hi + offset) for lo, hi in g.edges)
        offset += len(g.vertices)
    return HasseGraph(graphs[0].ambient_dim, tuple(vertices), tuple(edges))


_SHAPE_ATTRS = {
    Marker.TRUE_SQUARE: 'shape=square, style=filled, fillcolor=black, fontcolor=white',
    Marker.FALSE_CIRCLE: 'shape=circle, style=filled, fillcolor=black, fontcolor=white',
    Marker.GAP_HOLLOW: 'shape=circle',
    Marker.UNVALUED: 'shape=ellipse, style=dashed',
}


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


_DOT_KEYWORDS = {"node", "edge", "graph", "digraph", "subgraph", "strict"}


def _dot_id(name: str) -> str:
    """name bare if DOT reads it as a plain identifier, else quoted."""
    plain = re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name)
    return name if plain and name.lower() not in _DOT_KEYWORDS else _quote(name)


def emit_dot(graph: HasseGraph, options: DiagramOptions | None = None) -> str:
    """Render a HasseGraph as a DOT digraph, ranked bottom-to-top by dimension."""
    opts = options or DiagramOptions()
    head = f"digraph {_dot_id(opts.graph_name)} {{"
    lines = [head, "  rankdir=BT;", "  node [fontsize=10];"]

    def node_line(v: HasseVertex, indent: str) -> str:
        label = v.label if opts.label_style == "name" else f"dim {v.dim}"
        return f"{indent}n{v.index} [label={_quote(label)}, {_SHAPE_ATTRS[v.marker]}];"

    if opts.cluster_blocks:
        singles = [v for v in graph.vertices if len(v.blocks) == 1]
        shared = [v for v in graph.vertices if len(v.blocks) != 1]
        block_order = []
        for v in graph.vertices:
            for b in v.blocks:
                if b not in block_order:
                    block_order.append(b)
        for bi, b in enumerate(block_order):
            members = [v for v in singles if v.blocks[0] == b]
            if not members:
                continue
            lines.append(f"  subgraph cluster_{bi} {{")
            lines.append(f"    label={_quote(b)};")
            for v in members:
                lines.append(node_line(v, "    "))
            lines.append("  }")
        for v in shared:
            lines.append(node_line(v, "  "))
    else:
        for v in graph.vertices:
            lines.append(node_line(v, "  "))

    dims = sorted({v.dim for v in graph.vertices})
    for dim in dims:
        ids = [f"n{v.index}" for v in graph.vertices if v.dim == dim]
        if len(ids) > 1:
            lines.append(f"  {{ rank=same; {'; '.join(ids)}; }}")
    for lo, hi in graph.edges:
        lines.append(f"  n{lo} -> n{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"
