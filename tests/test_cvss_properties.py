"""Property-based tests over the CVSS calculators."""

from hypothesis import given, strategies as st

from repro.cvss import (
    CvssV2Metrics,
    CvssV3Metrics,
    parse_v2_vector,
    parse_v3_vector,
    score_v2,
    score_v3,
    severity_v2,
    severity_v3,
    v2_vector_string,
    v3_vector_string,
)

v2_metrics = st.builds(
    CvssV2Metrics,
    st.sampled_from(["L", "A", "N"]),
    st.sampled_from(["H", "M", "L"]),
    st.sampled_from(["M", "S", "N"]),
    st.sampled_from(["N", "P", "C"]),
    st.sampled_from(["N", "P", "C"]),
    st.sampled_from(["N", "P", "C"]),
)

v3_metrics = st.builds(
    CvssV3Metrics,
    st.sampled_from(["N", "A", "L", "P"]),
    st.sampled_from(["L", "H"]),
    st.sampled_from(["N", "L", "H"]),
    st.sampled_from(["N", "R"]),
    st.sampled_from(["U", "C"]),
    st.sampled_from(["H", "L", "N"]),
    st.sampled_from(["H", "L", "N"]),
    st.sampled_from(["H", "L", "N"]),
)

_IMPACT_RANK = {"N": 0, "P": 1, "C": 2}
_IMPACT3_RANK = {"N": 0, "L": 1, "H": 2}


@given(v2_metrics)
def test_v2_score_in_range_one_decimal(m):
    base = score_v2(m).base
    assert 0.0 <= base <= 10.0
    assert round(base, 1) == base


@given(v2_metrics)
def test_v2_vector_round_trip(m):
    assert parse_v2_vector(v2_vector_string(m)) == m


@given(v2_metrics)
def test_v2_severity_defined_for_all_scores(m):
    assert severity_v2(score_v2(m).base) is not None


@given(v2_metrics, st.sampled_from(["confidentiality", "integrity", "availability"]))
def test_v2_raising_impact_never_lowers_score(m, dimension):
    import dataclasses

    current = getattr(m, dimension)
    if current == "C":
        return
    raised = "P" if current == "N" else "C"
    higher = dataclasses.replace(m, **{dimension: raised})
    assert score_v2(higher).base >= score_v2(m).base


@given(v3_metrics)
def test_v3_score_in_range_one_decimal(m):
    base = score_v3(m).base
    assert 0.0 <= base <= 10.0
    assert round(base, 1) == base


@given(v3_metrics)
def test_v3_vector_round_trip(m):
    assert parse_v3_vector(v3_vector_string(m)) == m


@given(v3_metrics)
def test_v3_zero_iff_no_impact(m):
    base = score_v3(m).base
    no_impact = m.confidentiality == m.integrity == m.availability == "N"
    assert (base == 0.0) == no_impact


@given(v3_metrics)
def test_v3_30_score_close_to_31(m):
    # The two spec revisions only differ in rounding details; scores
    # should never drift by more than one rounding step.
    delta = abs(score_v3(m, spec="3.0").base - score_v3(m, spec="3.1").base)
    assert delta <= 0.1


@given(v3_metrics, st.sampled_from(["confidentiality", "integrity", "availability"]))
def test_v3_raising_impact_never_lowers_score(m, dimension):
    import dataclasses

    current = getattr(m, dimension)
    if current == "H":
        return
    raised = "L" if current == "N" else "H"
    higher = dataclasses.replace(m, **{dimension: raised})
    assert score_v3(higher).base >= score_v3(m).base


@given(v3_metrics)
def test_v3_severity_defined_for_all_scores(m):
    assert severity_v3(score_v3(m).base) is not None


# -- memoization: every cached function equals its uncached original ------

v2_full_metrics = st.builds(
    CvssV2Metrics,
    st.sampled_from(["L", "A", "N"]),
    st.sampled_from(["H", "M", "L"]),
    st.sampled_from(["M", "S", "N"]),
    st.sampled_from(["N", "P", "C"]),
    st.sampled_from(["N", "P", "C"]),
    st.sampled_from(["N", "P", "C"]),
    exploitability=st.sampled_from(["U", "POC", "F", "H", "ND"]),
    remediation_level=st.sampled_from(["OF", "TF", "W", "U", "ND"]),
    collateral_damage=st.sampled_from(["N", "L", "LM", "MH", "H", "ND"]),
    confidentiality_req=st.sampled_from(["L", "M", "H", "ND"]),
)

v3_full_metrics = st.builds(
    CvssV3Metrics,
    st.sampled_from(["N", "A", "L", "P"]),
    st.sampled_from(["L", "H"]),
    st.sampled_from(["N", "L", "H"]),
    st.sampled_from(["N", "R"]),
    st.sampled_from(["U", "C"]),
    st.sampled_from(["H", "L", "N"]),
    st.sampled_from(["H", "L", "N"]),
    st.sampled_from(["H", "L", "N"]),
    exploit_code_maturity=st.sampled_from(["X", "U", "P", "F", "H"]),
    report_confidence=st.sampled_from(["X", "U", "R", "C"]),
    integrity_req=st.sampled_from(["X", "L", "M", "H"]),
)

v2_vectors = st.one_of(
    st.builds(v2_vector_string, v2_full_metrics, st.booleans()),
    st.builds(v2_vector_string, v2_full_metrics).map(lambda v: f"({v})"),
    st.text(alphabet="AVCIuN:/LPH() ", max_size=40),
)
v3_vectors = st.one_of(
    st.builds(v3_vector_string, v3_full_metrics, st.sampled_from(["3.0", "3.1"]), st.booleans()),
    st.text(alphabet="CVSS:3.1/AVNLHPRUI ", max_size=50),
)


def _outcome(function, *args):
    """The result of a call, or the type of the exception it raised."""
    try:
        return function(*args)
    except Exception as error:  # noqa: BLE001 - comparing failure kinds
        return type(error)


@given(v2_vectors)
def test_memoized_v2_parse_equals_original(vector):
    expected = _outcome(parse_v2_vector.__wrapped__, vector)
    assert _outcome(parse_v2_vector, vector) == expected
    assert _outcome(parse_v2_vector, vector) == expected  # a cache hit, if any


@given(v3_vectors)
def test_memoized_v3_parse_equals_original(vector):
    expected = _outcome(parse_v3_vector.__wrapped__, vector)
    assert _outcome(parse_v3_vector, vector) == expected
    assert _outcome(parse_v3_vector, vector) == expected


@given(v2_full_metrics, st.booleans())
def test_memoized_v2_score_and_render_equal_originals(m, optional):
    assert score_v2(m) == score_v2.__wrapped__(m)
    assert v2_vector_string(m, optional) == v2_vector_string.__wrapped__(m, optional)


@given(v3_full_metrics, st.sampled_from(["3.0", "3.1"]), st.booleans())
def test_memoized_v3_score_and_render_equal_originals(m, spec, optional):
    assert score_v3(m, spec) == score_v3.__wrapped__(m, spec)
    assert v3_vector_string(m, spec, optional) == v3_vector_string.__wrapped__(
        m, spec, optional
    )
