import pytest

from graphsample.structures import VertexGraph


@pytest.fixture
def vertex_builds(monkeypatch):
    """The vertex count of every VertexGraph built from here on, through its
    checking __init__ or through _Record._of, in order."""
    built = []
    init, of = VertexGraph.__init__, VertexGraph._of.__func__

    def counted(self, n, edges=frozenset()):
        built.append(n)
        init(self, n, edges)

    def counted_of(cls, n, edges):
        built.append(n)
        return of(cls, n, edges)

    monkeypatch.setattr(VertexGraph, "__init__", counted)
    monkeypatch.setattr(VertexGraph, "_of", classmethod(counted_of))
    return built
