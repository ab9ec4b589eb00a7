"""Minimum edge coloring of bipartite multigraphs.

A bipartite multigraph with maximum degree ``delta`` always has a proper
edge coloring with exactly ``delta`` colors. The classic alternating-path
algorithm below achieves that: insert edges one at a time, and when the
endpoints have no free color in common, swap colors along the unique
two-color path starting at the right endpoint.
"""

from __future__ import annotations


def color_bipartite_multigraph(n: int, edges: list[tuple[int, int]]) -> list[int]:
    """Color edges (left, right) of a bipartite multigraph with max-degree colors.

    Returns the color of each edge, in 0..delta-1; the edges of one color
    form a matching. Parallel edges are allowed and get distinct colors.
    """
    if not edges:
        return []
    left_deg = [0] * n
    right_deg = [0] * n
    for u, v in edges:
        left_deg[u] += 1
        right_deg[v] += 1
    delta = max(max(left_deg), max(right_deg))

    # color -> (edge_id, other endpoint), per node and side
    left_tab: list[dict[int, tuple[int, int]]] = [dict() for _ in range(n)]
    right_tab: list[dict[int, tuple[int, int]]] = [dict() for _ in range(n)]
    edge_color = [-1] * len(edges)

    def free_color(tab: dict) -> int:
        for c in range(delta):
            if c not in tab:
                return c
        raise AssertionError("degree exceeds delta")  # cannot happen

    for eid, (u, v) in enumerate(edges):
        a = free_color(left_tab[u])
        b = free_color(right_tab[v])
        if a != b:
            # Swap colors a/b along the alternating path starting at v.
            node, on_left, want = v, False, a
            trail = []
            while True:
                tab = left_tab[node] if on_left else right_tab[node]
                if want not in tab:
                    break
                nxt_eid, other = tab[want]
                trail.append(nxt_eid)
                node, on_left = other, not on_left
                want = b if want == a else a
            # Delete every old entry before inserting any new one: adjacent
            # trail edges share a node, and the incoming color of one edge is
            # the outgoing color of the next.
            for teid in trail:
                tu, tv = edges[teid]
                old = edge_color[teid]
                del left_tab[tu][old]
                del right_tab[tv][old]
            for teid in trail:
                tu, tv = edges[teid]
                new = b if edge_color[teid] == a else a
                edge_color[teid] = new
                left_tab[tu][new] = (teid, tv)
                right_tab[tv][new] = (teid, tu)
        edge_color[eid] = a
        left_tab[u][a] = (eid, v)
        right_tab[v][a] = (eid, u)
    return edge_color
