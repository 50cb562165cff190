import pytest

from graphsample.structures import VertexGraph


@pytest.fixture
def vertex_builds(monkeypatch):
    """The vertex count of every VertexGraph built from here on, in order."""
    built = []
    init = VertexGraph.__init__

    def counted(self, n, edges=frozenset()):
        built.append(n)
        init(self, n, edges)

    monkeypatch.setattr(VertexGraph, "__init__", counted)
    return built
