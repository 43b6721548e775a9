import pytest

from paradoxlab import build_directed, build_undirected
from paradoxlab import graph as graph_module
from paradoxlab.generators import (complete_edges, cycle_edges, path_edges,
                                   star_edges)


def path(n):
    return build_undirected(n, path_edges(n))


def cycle(n):
    return build_undirected(n, cycle_edges(n))


def star(n):
    return build_undirected(n, star_edges(n))


def complete(n):
    return build_undirected(n, complete_edges(n))


@pytest.fixture
def p6():
    return path(6)


@pytest.fixture
def hub_digraph():
    """Arcs 0->1, 0->2, 1->0, 2->0: node 0 is the hub."""
    return build_directed(3, [(0, 1), (0, 2), (1, 0), (2, 0)])


@pytest.fixture
def hop_distance_calls(monkeypatch):
    """Source node of every ``graph.hop_distances`` search, in call order."""
    calls = []
    search = graph_module.hop_distances

    def counted(offsets, targets, source):
        calls.append(source)
        return search(offsets, targets, source)

    monkeypatch.setattr(graph_module, "hop_distances", counted)
    return calls
