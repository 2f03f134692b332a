import pytest

from starforest import (
    LabelScheme,
    LabelSchemeError,
    MalformedStarError,
    PreconditionError,
    Star,
    complete_graph_edges,
    k27,
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


@pytest.mark.parametrize("center, leaves, problem", [
    (-1, (), "negative vertex id in star centered at -1"),  # the sign check comes first
    (0, (), "star centered at 0 has no leaves"),
    (0, (1, -2), "negative vertex id in star centered at 0"),
    (2, (-1, 2), "negative vertex id in star centered at 2"),
])
def test_star_negative_and_empty_messages(center, leaves, problem):
    with pytest.raises(MalformedStarError) as exc:
        Star(center, leaves)
    assert str(exc.value) == problem


def test_forest_edges_k27_grid_forest():
    # every per-cell forest of the K_27 construction carries 12+6+6 edges
    assert k27().decomposition.forests[0].edge_count() == 24


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
