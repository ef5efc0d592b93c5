"""The read overlap graph.

diBELLA's hash table "represents a read graph with read vertices connected to
each other by shared k-mers" (§11) — the overlap graph that downstream
assemblers (Miniasm, HINGE, FALCON) consume.  This module materialises that
graph as a ``networkx.Graph`` from the pipeline's overlap/alignment output so
examples and downstream users can run standard graph analyses on it.
networkx is imported on the first call, so the pipeline and the CLI start
without it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from repro.align.results import AlignmentResult
from repro.overlap.pairs import OverlapRecord

if TYPE_CHECKING:
    import networkx as nx


def build_overlap_graph(
    overlaps: Iterable[OverlapRecord],
    alignments: Mapping[tuple[int, int], AlignmentResult] | None = None,
    min_score: int | None = None,
) -> nx.Graph:
    """Build the read overlap graph.

    Parameters
    ----------
    overlaps:
        Consolidated overlap records (one per read pair).
    alignments:
        Optional mapping from ``(rid_a, rid_b)`` to the pair's best
        :class:`AlignmentResult`; when provided, edges carry ``score`` and
        ``span`` attributes and pairs scoring below ``min_score`` are
        omitted.
    min_score:
        Minimum alignment score for an edge (requires *alignments*).

    Returns
    -------
    networkx.Graph
        Nodes are RIDs; each edge carries ``n_seeds`` and, when alignment
        results are available, ``score`` and ``span``.
    """
    import networkx as nx

    graph = nx.Graph()
    for record in overlaps:
        attrs: dict[str, float | int] = {"n_seeds": record.n_seeds}
        if alignments is not None:
            result = alignments.get((record.rid_a, record.rid_b))
            if result is None:
                continue
            if min_score is not None and result.score < min_score:
                continue
            attrs["score"] = result.score
            attrs["span"] = max(result.span_a, result.span_b)
        graph.add_edge(record.rid_a, record.rid_b, **attrs)
    return graph


def overlap_graph_summary(graph: nx.Graph) -> dict[str, float]:
    """Summary statistics of an overlap graph.

    Reports the numbers an assembler cares about: component structure (a
    good overlap graph of a single bacterial genome is dominated by one giant
    component) and degree statistics (related to coverage depth).
    """
    n_nodes = graph.number_of_nodes()
    n_edges = graph.number_of_edges()
    if n_nodes == 0:
        return {
            "n_nodes": 0.0,
            "n_edges": 0.0,
            "n_components": 0.0,
            "largest_component_fraction": 0.0,
            "mean_degree": 0.0,
            "max_degree": 0.0,
        }
    import networkx as nx

    components = list(nx.connected_components(graph))
    largest = max((len(c) for c in components), default=0)
    degrees = np.array([d for _, d in graph.degree()], dtype=np.float64)
    return {
        "n_nodes": float(n_nodes),
        "n_edges": float(n_edges),
        "n_components": float(len(components)),
        "largest_component_fraction": largest / n_nodes,
        "mean_degree": float(degrees.mean()),
        "max_degree": float(degrees.max()),
    }
