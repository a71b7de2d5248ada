"""Property battery over arbitrary small hypergraphs, beyond the regular uniform family."""

from hypothesis import given, settings
from hypothesis import strategies as st

import hyperwalk as hw
from conftest import union_find_components


@st.composite
def hypergraphs(draw, max_n=7):
    """Any non-empty edges on n <= max_n vertices, plus a singleton for each uncovered vertex.

    This reaches non-regular and disconnected hypergraphs, repeated and
    singleton edges, and n = 1.
    """
    n = draw(st.integers(1, max_n))
    vertices = st.sets(st.integers(0, n - 1), min_size=1)
    edges = draw(st.lists(vertices, min_size=1, max_size=max_n))
    edges += [{v} for v in sorted(set(range(n)) - set().union(*edges))]
    return hw.from_edge_lists(n, edges)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(hg=hypergraphs(), classify_tol=st.sampled_from([1e-17, 1e-9, 1e-3]))
def test_analyze_counts_one_unit_per_component_and_passes(hg, classify_tol):
    report = hw.analyze(hg, classify_tol=classify_tol)
    assert report.verdict == "pass", report.to_json()
    assert report.classification.count("unit") == union_find_components(hg)
    assert sum(entry["multiplicity"] for entry in report.to_json_dict()["predicted"]) == report.size
