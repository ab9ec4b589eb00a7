import random

from hypothesis import given, settings, strategies as st

from coflow.coloring import color_bipartite_multigraph


def degrees(n, edges):
    left = [0] * n
    right = [0] * n
    for u, v in edges:
        left[u] += 1
        right[v] += 1
    return max(max(left), max(right))


def check_coloring(n, edges):
    colors = color_bipartite_multigraph(n, edges)
    assert len(colors) == len(edges)
    delta = degrees(n, edges)
    assert set(colors) == set(range(delta))
    classes = [[] for _ in range(delta)]
    for edge, color in zip(edges, colors):
        classes[color].append(edge)
    colored = []
    for cls in classes:
        assert len({u for u, _ in cls}) == len(cls)
        assert len({v for _, v in cls}) == len(cls)
        colored.extend(cls)
    assert sorted(colored) == sorted(edges)
    return classes


def test_empty():
    assert color_bipartite_multigraph(3, []) == []


def test_single_perfect_matching_one_color():
    classes = check_coloring(3, [(0, 1), (1, 2), (2, 0)])
    assert len(classes) == 1


def test_parallel_edges_get_distinct_colors():
    classes = check_coloring(2, [(0, 1), (0, 1), (0, 1)])
    assert len(classes) == 3


def test_star_needs_degree_colors():
    check_coloring(4, [(0, 1), (0, 2), (0, 3)])


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 8),
    seed=st.integers(0, 10**6),
    m=st.integers(1, 40),
)
def test_random_multigraphs_use_exactly_delta_colors(n, seed, m):
    rng = random.Random(seed)
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
    check_coloring(n, edges)
