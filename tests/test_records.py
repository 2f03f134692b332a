"""The records are named tuples: field order, repr, hashing, immutability and
re-validation through ``_replace`` are part of the public interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from starforest import (
    BoundReport,
    ConstructionOutput,
    CountingReport,
    CoverageReport,
    Decomposition,
    Degree1PlacementReport,
    DecompositionError,
    DecompositionFile,
    DegreeProfile,
    FExactResult,
    IsolationReport,
    LabelScheme,
    LabelSchemeError,
    MalformedStarError,
    PreconditionError,
    RootHypergraph,
    SearchBudget,
    SearchResult,
    Star,
    StarForest,
    ValidationReport,
    bound_report,
    broken_double_star,
    check_counting_inequality,
    check_degree1_placement,
    check_no_isolated,
    degree_profile,
    exists_decomposition,
    f_exact,
    k27,
    root_hypergraph,
    validate_decomposition,
)

SRC = Path(__file__).resolve().parent.parent / "src"

FIELDS = {
    Star: ("center", "leaves"),
    StarForest: ("stars",),
    LabelScheme: ("name", "param"),
    Decomposition: ("n", "k", "forests", "labels"),
    DecompositionFile: ("decomposition", "family", "provenance", "raw_duplicates", "meta"),
    ConstructionOutput: ("decomposition", "family", "provenance", "raw_duplicates", "meta", "raw_edge_slots"),
    CoverageReport: ("total_edges", "missing", "duplicated"),
    ValidationReport: ("ok", "malformed", "k_violations", "coverage", "decomposition"),
    RootHypergraph: ("n", "hyperedges"),
    IsolationReport: ("applicable", "ok", "hypergraph"),
    DegreeProfile: ("hypergraph", "r", "p", "isolated", "degree_sum"),
    CountingReport: ("lhs", "rhs", "slack", "bipartite_edge_count", "counting_lhs", "counting_rhs",
                     "counting_slack", "ok"),
    Degree1PlacementReport: ("ok", "shared_degree1", "pinched_degree2"),
    SearchBudget: ("max_nodes", "wall_time"),
    SearchResult: ("status", "certificate", "nodes_explored"),
    FExactResult: ("status", "value", "certificate", "attempts", "lower_bound", "interval", "nodes_explored"),
    BoundReport: ("n", "k", "lower", "lower_source", "upper", "upper_source", "conjecture_value",
                  "conjecture_refuted_here"),
}


def _small() -> Decomposition:
    return Decomposition(4, 2, (
        StarForest((Star(0, (1, 2, 3)),)),
        StarForest((Star(1, (2,)), Star(3, (2,)))),
        StarForest((Star(1, (3,)),)),
    ), LabelScheme("plain"))


def _examples() -> dict:
    d = k27().decomposition
    rh = root_hypergraph(d)
    report = validate_decomposition(d)
    return {
        Star: Star(0, (1, 2)),
        StarForest: d.forests[0],
        LabelScheme: LabelScheme("block12m4", 1),
        Decomposition: d,
        DecompositionFile: DecompositionFile(_small(), meta={"note": "hi"}),
        ConstructionOutput: broken_double_star(3),
        CoverageReport: report.coverage,
        ValidationReport: report,
        RootHypergraph: rh,
        IsolationReport: check_no_isolated(rh),
        DegreeProfile: degree_profile(rh),
        CountingReport: check_counting_inequality(degree_profile(rh)),
        Degree1PlacementReport: check_degree1_placement(rh, report),
        SearchBudget: SearchBudget(),
        SearchResult: exists_decomposition(4, 2, 2),
        FExactResult: f_exact(4, 2),
        BoundReport: bound_report(9, 3),
    }


def test_every_record_is_covered():
    assert set(_examples()) == set(FIELDS)


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_field_order_and_assignment(cls):
    record = _examples()[cls]
    assert type(record) is cls
    assert record._fields == FIELDS[cls]
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


# each recorded from the dataclass records these replaced
REPRS = {
    "star": (lambda: Star(0, (1, 2)), "Star(center=0, leaves=(1, 2))"),
    "decomposition": (_small, (
        "Decomposition(n=4, k=2, forests=(StarForest(stars=(Star(center=0, leaves=(1, 2, 3)),)), "
        "StarForest(stars=(Star(center=1, leaves=(2,)), Star(center=3, leaves=(2,)))), "
        "StarForest(stars=(Star(center=1, leaves=(3,)),))), labels=LabelScheme(name='plain', param=None))")),
    "file": (lambda: DecompositionFile(_small(), family="x", provenance=("a", "b", None),
                                       raw_duplicates=((0, 1),), meta={"note": "hi"}), (
        "DecompositionFile(decomposition=Decomposition(n=4, k=2, forests=(StarForest(stars=(Star(center=0, "
        "leaves=(1, 2, 3)),)), StarForest(stars=(Star(center=1, leaves=(2,)), Star(center=3, leaves=(2,)))), "
        "StarForest(stars=(Star(center=1, leaves=(3,)),))), labels=LabelScheme(name='plain', param=None)), "
        "family='x', provenance=('a', 'b', None), raw_duplicates=((0, 1),), meta={'note': 'hi'})")),
    "bound-report": (lambda: bound_report(9, 3), (
        "BoundReport(n=9, k=3, lower=6, lower_source='akiyama-kano', upper=None, upper_source=None, "
        "conjecture_value=6, conjecture_refuted_here=False)")),
    "search-result": (lambda: exists_decomposition(4, 2, 2), (
        "SearchResult(status=<SearchStatus.EXHAUSTED_NOT_FOUND: 'exhausted-not-found'>, certificate=None, "
        "nodes_explored=0)")),
    "f-exact-result": (lambda: f_exact(4, 2), (
        "FExactResult(status=<SearchStatus.FOUND: 'found'>, value=3, certificate=Decomposition(n=4, k=2, "
        "forests=(StarForest(stars=(Star(center=0, leaves=(1, 2, 3)),)), StarForest(stars=(Star(center=1, "
        "leaves=(2, 3)),)), StarForest(stars=(Star(center=2, leaves=(3,)),))), labels=None), attempts=(), "
        "lower_bound=3, interval=(3, 3), nodes_explored=0)")),
    "construction-output": (lambda: broken_double_star(2), (
        "ConstructionOutput(decomposition=Decomposition(n=4, k=2, forests=(StarForest(stars=(Star(center=0, "
        "leaves=(1,)), Star(center=2, leaves=(3,)))), StarForest(stars=(Star(center=1, leaves=(2,)), "
        "Star(center=3, leaves=(0,)))), StarForest(stars=(Star(center=0, leaves=(2,)), Star(center=1, "
        "leaves=(3,))))), labels=None), family='bds', provenance=('dstar(0)', 'dstar(1)', 'matching'), "
        "raw_duplicates=(), meta={'matching': '0-2 1-3'}, raw_edge_slots=(2, 2, 2))")),
}


@pytest.mark.parametrize("name", REPRS)
def test_repr_pinned(name):
    make, text = REPRS[name]
    assert repr(make()) == text


def test_replace_validates_and_normalises():
    with pytest.raises(MalformedStarError, match="lists the center as a leaf"):
        Star(0, (1,))._replace(leaves=[0])
    assert Star(0, (1,))._replace(leaves=[2, 3]).leaves == (2, 3)
    assert StarForest(())._replace(stars=[Star(0, (1,))]).stars == (Star(0, (1,)),)
    with pytest.raises(LabelSchemeError, match="takes no parameter"):
        LabelScheme("plain")._replace(param=2)
    d = _small()
    forests = [*d.forests]
    assert type(d._replace(forests=forests).forests) is tuple
    with pytest.raises(PreconditionError, match="component bound"):
        d._replace(k=0)
    with pytest.raises(DecompositionError, match="provenance length"):
        DecompositionFile(d)._replace(provenance=("a",))
    with pytest.raises(PreconditionError, match="must be positive"):
        SearchBudget()._replace(max_nodes=0)
    out = broken_double_star(3)
    renamed = out._replace(family="other")
    assert type(renamed) is ConstructionOutput
    assert renamed.raw_edge_slots == out.raw_edge_slots
    with pytest.raises(DecompositionError, match="provenance length"):
        out._replace(provenance=("a",))
    with pytest.raises(ValueError):
        out._replace(bogus=1)


def test_defaults_and_keywords():
    assert SearchBudget() == SearchBudget(50_000_000, 600.0)
    assert LabelScheme("plain").param is None
    f = DecompositionFile(decomposition=_small())
    assert (f.family, f.provenance, f.raw_duplicates, f.meta) == (None, (None, None, None), (), {})
    assert f.meta is not DecompositionFile(_small()).meta  # a fresh dict per record
    with pytest.raises(TypeError):
        ConstructionOutput(_small())  # raw_edge_slots is required, by keyword
    out = ConstructionOutput(_small(), "x", raw_edge_slots=(3, 2, 1))
    assert out.decomposition.forest_count == 3
    assert isinstance(out, DecompositionFile)


def test_hash_leaves_meta_out_and_equality_compares_it():
    a = DecompositionFile(_small(), family="x", meta={"note": "a"})
    b = DecompositionFile(_small(), family="x", meta={"note": "b"})
    assert hash(a) == hash(b) == hash((a.decomposition, a.family, a.provenance, a.raw_duplicates))
    assert a != b
    assert a == DecompositionFile(_small(), family="x", meta={"note": "a"})
    out = broken_double_star(3)
    assert hash(out) == hash((out.decomposition, out.family, out.provenance, out.raw_duplicates,
                              out.raw_edge_slots))
    assert out != DecompositionFile(*out[:5])
    assert hash(_small()) == hash(tuple(_small()))


def test_cached_properties_cache():
    rh = root_hypergraph(broken_double_star(3).decomposition)
    assert rh.degree is rh.degree
    assert "degree" in vars(rh)
    iso = check_no_isolated(rh)
    assert iso.isolated is iso.isolated
    assert "isolated" in vars(iso)
    assert iso == check_no_isolated(root_hypergraph(broken_double_star(3).decomposition))


def test_cli_import_loads_no_dataclasses_inspect_argparse_or_gettext():
    # compared with the modules loaded before the import, so what the
    # interpreter's site set-up preloads does not count
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import starforest.cli\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-s", "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    added = set(proc.stdout.split())
    assert "starforest.cli" in added
    assert not added & {"dataclasses", "inspect", "argparse", "gettext"}
