"""Tiny deterministic fixture graphs used throughout the test-suite.

The hand-drawn graphs of the paper's figures, plus a small
planted-community graph for the integration tests.
"""

from __future__ import annotations

from repro.graph.heterograph import HeteroGraph, NodeId


def tiny_academic() -> HeteroGraph:
    """The academic network of Figure 2(a).

    Five authors (A1..A5), two papers (P1, P2) with a mutual citation, two
    universities (U1, U2).  Edge types: citation (PP), authorship (AP),
    affiliation (AU).  A1 and A3 share a university but never co-author —
    the paper's running example of cross-view contradiction.
    """
    g = HeteroGraph()
    for a in ("A1", "A2", "A3", "A4", "A5"):
        g.add_node(a, "author")
    for p in ("P1", "P2"):
        g.add_node(p, "paper")
    for u in ("U1", "U2"):
        g.add_node(u, "university")
    g.add_edge("P1", "P2", "citation")
    g.add_edge("A1", "P1", "authorship")
    g.add_edge("A2", "P1", "authorship")
    g.add_edge("A3", "P2", "authorship")
    g.add_edge("A4", "P2", "authorship")
    g.add_edge("A5", "P2", "authorship")
    g.add_edge("A1", "U1", "affiliation")
    g.add_edge("A3", "U1", "affiliation")
    g.add_edge("A2", "U2", "affiliation")
    g.add_edge("A4", "U2", "affiliation")
    g.add_edge("A5", "U2", "affiliation")
    return g


def book_rating_view() -> HeteroGraph:
    """The book-rating heter-view of Figure 4.

    Three readers (R1..R3) and three books (B1..B3); weights are rating
    scores 1..5.  R1 and R3 both dislike B2 (scores 2 and 1) while R2
    likes it (score 5) — the worked example behind the correlated-walk
    term pi_2 (Equation 7).
    """
    g = HeteroGraph()
    for r in ("R1", "R2", "R3"):
        g.add_node(r, "reader")
    for b in ("B1", "B2", "B3"):
        g.add_node(b, "book")
    g.add_edge("R1", "B1", "rating", weight=4.0)
    g.add_edge("R1", "B2", "rating", weight=2.0)
    g.add_edge("R2", "B2", "rating", weight=5.0)
    g.add_edge("R3", "B2", "rating", weight=1.0)
    g.add_edge("R3", "B3", "rating", weight=4.0)
    g.add_edge("R2", "B3", "rating", weight=3.0)
    return g


def two_view_toy(
    num_per_side: int = 8,
) -> tuple[HeteroGraph, dict[NodeId, int]]:
    """A two-view network with planted 2-community structure and labels.

    View "AB" is a heter-view between items and tags; view "AA" is a
    homo-view among items.  Both views agree on the two communities, so
    cross-view transfer is genuinely informative.  Returns
    ``(graph, item_labels)``.
    """
    if num_per_side < 4 or num_per_side % 2:
        raise ValueError("num_per_side must be an even integer >= 4")
    g = HeteroGraph()
    items = [f"i{k}" for k in range(num_per_side)]
    tags = [f"t{k}" for k in range(num_per_side // 2)]
    for node in items:
        g.add_node(node, "item")
    for node in tags:
        g.add_node(node, "tag")
    half = num_per_side // 2
    community = {item: (0 if k < half else 1) for k, item in enumerate(items)}
    # homo-view: ring inside each community plus one weak bridge
    for block in (items[:half], items[half:]):
        for k in range(len(block)):
            g.add_edge(block[k], block[(k + 1) % len(block)], "AA", weight=2.0)
    g.add_edge(items[0], items[half], "AA", weight=0.5)
    # heter-view: items attach to tags of their community
    for k, item in enumerate(items):
        tag_pool = tags[: len(tags) // 2] if community[item] == 0 else tags[len(tags) // 2 :]
        g.add_edge(item, tag_pool[k % len(tag_pool)], "AB", weight=3.0)
        g.add_edge(item, tag_pool[(k + 1) % len(tag_pool)], "AB", weight=1.0)
    return g, community

