"""Output checks, computed in Python without Spark.

Every summary must be a tree (``n_edges = n_nodes - 1``, weakly connected by
union-find), use only undirected KG edges, and hold at least one centre of its
request; its row in the quality frame must agree with it. Graph statistics are
compared with counts of the collected KG and with a networkx BFS from the same
landmarks.
"""
import networkx as nx

from repro.core.summary import Summary


def _find(parent: dict, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def summary_problems(s: Summary, kg_edges: set, centres: set) -> list[str]:
    """Reasons ``s`` is not a valid summary; empty when it is."""
    problems = []
    nodes = set(s.nodes)
    edges = set(s.edges)
    if len(edges) != len(s.edges):
        problems.append("repeated edge")
    if any(a not in nodes or b not in nodes for a, b in edges):
        problems.append("edge endpoint outside the node set")
    if len(edges) != len(nodes) - 1:
        problems.append(f"not a tree: {len(edges)} edges on {len(nodes)} nodes")
    parent = {n: n for n in nodes | {x for e in edges for x in e}}
    for a, b in edges:
        parent[_find(parent, a)] = _find(parent, b)
    if len({_find(parent, n) for n in parent}) > 1:
        problems.append("not weakly connected")
    if not edges <= kg_edges:
        problems.append(f"{len(edges - kg_edges)} edges not in the KG")
    if not nodes & centres:
        problems.append("no centre")
    return problems


def quality_problems(s: Summary, row) -> list[str]:
    """Disagreements between a summary and its ``compute_quality`` row."""
    if row is None:
        return ["no quality row"]
    problems = []
    if int(row["n_edges"]) != s.n_edges():
        problems.append(f"quality n_edges {row['n_edges']} != {s.n_edges()}")
    if int(row["n_nodes"]) != s.n_nodes():
        problems.append(f"quality n_nodes {row['n_nodes']} != {s.n_nodes()}")
    return problems


def bfs_path_stats(edges: list[tuple[int, int]], landmarks: list[int], max_hops: int):
    """(average path length, diameter estimate) by networkx BFS, unit costs."""
    g = nx.Graph(edges)
    g.add_nodes_from(landmarks)  # an isolated landmark still counts, with no pairs
    dists = []
    for lm in landmarks:
        lengths = nx.single_source_shortest_path_length(g, lm, cutoff=max_hops)
        dists.extend(d for d in lengths.values() if d > 0)
    return (sum(dists) / len(dists) if dists else 0.0), (max(dists) if dists else 0)
