import pytest

from starforest import (
    Decomposition,
    LabelScheme,
    LabelSchemeError,
    MalformedForestError,
    MalformedStarError,
    PreconditionError,
    Star,
    StarForest,
    complete_graph_edges,
    forest_edges,
    k27,
    k16,
    make_edge,
    relabel,
)


def test_complete_graph_edges_small():
    assert complete_graph_edges(1) == []
    assert complete_graph_edges(3) == [(0, 1), (0, 2), (1, 2)]


def test_complete_graph_edges_k27_count():
    assert len(complete_graph_edges(27)) == 351


def test_complete_graph_edges_lex_order():
    edges = complete_graph_edges(9)
    assert edges == sorted(edges)


def test_complete_graph_edges_count_law():
    for n in range(1, 201):
        assert len(complete_graph_edges(n)) == n * (n - 1) // 2


def test_complete_graph_rejects_empty():
    with pytest.raises(PreconditionError):
        complete_graph_edges(0)


def test_make_edge_canonical():
    assert make_edge(5, 2) == (2, 5)
    with pytest.raises(MalformedStarError):
        make_edge(3, 3)


def test_star_invariants():
    with pytest.raises(MalformedStarError, match=r"^star with center 0 lists the center as a leaf$"):
        Star(0, (0, 1))
    with pytest.raises(MalformedStarError, match=r"^star with center 0 repeats a leaf$"):
        Star(0, (1, 1))
    # the center check comes first, as in the parser's line-numbered errors
    with pytest.raises(MalformedStarError, match=r"^star with center 1 lists the center as a leaf$"):
        Star(1, (1, 1))
    with pytest.raises(MalformedStarError):
        Star(0, ())  # no leaves


def test_forest_edges_simple():
    assert forest_edges(StarForest((Star(0, (1, 2)),))) == [(0, 1), (0, 2)]
    assert forest_edges(StarForest((Star(0, (1,)), Star(2, (3,))))) == [(0, 1), (2, 3)]


def test_forest_edges_rejects_overlap():
    f = StarForest((Star(0, (1, 2)), Star(2, (3,))))
    with pytest.raises(MalformedForestError):
        forest_edges(f)


def test_forest_edges_k27_grid_forest():
    # every per-cell forest of the K_27 construction carries 12+6+6 edges
    forest = k27().decomposition.forests[0]
    edges = forest_edges(forest)
    assert len(edges) == 24
    assert len(set(edges)) == 24


def test_label_schemes():
    plain = LabelScheme("plain")
    assert plain.label(7) == "7"
    cube = LabelScheme("f3cube")
    assert cube.expected_n() == 27
    assert cube.label(0) == "(0,0,0)"
    assert cube.label(14) == "(1,1,2)"
    block = LabelScheme("block12m4", 1)
    assert block.expected_n() == 16
    assert [block.label(v) for v in (0, 5, 10, 14)] == ["A0(0)", "B0(1)", "C0(2)", "A1(2)"]
    with pytest.raises(LabelSchemeError):
        LabelScheme("block12m4")  # missing m
    with pytest.raises(LabelSchemeError):
        LabelScheme("f3cube", 2)
    with pytest.raises(LabelSchemeError):
        LabelScheme("nosuch")


def test_relabel_is_metadata_only():
    d = k27().decomposition
    r = relabel(d, LabelScheme("f3cube"))
    assert r.forests == d.forests
    assert r.labels == LabelScheme("f3cube")


def test_relabel_k16_block_scheme():
    d = k16().decomposition
    r = relabel(d, LabelScheme("block12m4", 1))
    assert r.forests == d.forests


def test_relabel_rejects_wrong_n():
    d = Decomposition(n=4, k=2, forests=())
    with pytest.raises(LabelSchemeError):
        relabel(d, LabelScheme("f3cube"))
