"""Property: no method, predict body or paging parameter makes the service 500.

Drives :meth:`NvdService.handle` in-process with arbitrary JSON predict
bodies (CWE labels, long digit runs, non-string fields), every method
the transport routes (``PUT``/``PATCH``/``DELETE``/``OPTIONS`` included)
and arbitrary ``offset``/``limit``/``cursor`` values on the paged
routes; every answer must be a 2xx or a 4xx.
"""

import json
import urllib.parse

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.service import encode_cursor

SETTINGS = settings(
    deadline=None, max_examples=150, suppress_health_check=[HealthCheck.too_slow]
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=20),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=10), inner, max_size=4),
    max_leaves=8,
)
#: short runs, and runs past a float (> 308 digits) or int()'s string
#: conversion limit (> 4300 digits).
digits = st.text("0123456789", max_size=12) | st.integers(1, 5000).map("9".__mul__)
cwe_labels = st.builds("CWE-{}".format, digits | st.text(max_size=8)) | st.text()
v2_vectors = st.builds(
    "AV:{}/AC:{}/Au:{}/C:{}/I:{}/A:{}".format,
    *(st.sampled_from(levels) for levels in ("LAN", "HML", "MSN", "NPC", "NPC", "NPC")),
)
predict_bodies = json_values | st.fixed_dictionaries(
    {},
    optional={
        "cvss_v2": v2_vectors | json_values,
        "description": st.builds("overflow CWE-{} here".format, digits) | json_values,
        "cwe_ids": st.lists(cwe_labels, max_size=3) | json_values,
    },
)
param_values = (
    st.integers().map(str)
    | digits
    | st.text(max_size=30)
    | st.builds(encode_cursor, st.sampled_from(["v0001", "v9999"]), st.integers(0))
)
paging_params = st.dictionaries(
    st.sampled_from(["offset", "limit", "cursor"]), param_values, max_size=3
)
#: every method the transport routes to the service; the unsupported
#: ones must get the service's 404, never the stdlib's 501.
methods = st.sampled_from(["GET", "POST", "PUT", "PATCH", "DELETE", "OPTIONS"])


@pytest.fixture(scope="module")
def paged_paths(service):
    """A real vendor and product route, so paging reaches the id lists."""
    snapshot, quote = service.state.snapshot, urllib.parse.quote
    vendor = max(snapshot.vendor_cve_counts().items(), key=lambda i: (i[1], i[0]))[0]
    pair = max(snapshot.product_cve_counts().items(), key=lambda i: (i[1], i[0]))[0]
    return f"/v1/vendor/{quote(vendor)}", f"/v1/product/{quote(pair[0])}/{quote(pair[1])}"


def assert_not_5xx(response) -> None:
    assert response.status // 100 in (2, 4), (response.status, response.body[:300])


@SETTINGS
@given(body=predict_bodies)
def test_predict_never_500(service, body):
    body_bytes = json.dumps(body).encode()
    assert_not_5xx(service.handle("POST", "/v1/severity/predict", body_bytes))


@SETTINGS
@given(
    method=methods,
    path=st.sampled_from(["/v1/severity/predict", "/v1/stats", "/healthz"])
    | st.text(max_size=30).map("/".__add__),
    body=st.none()
    | st.binary(max_size=64)
    | predict_bodies.map(lambda body: json.dumps(body).encode()),
)
def test_any_method_never_500(service, method, path, body):
    assert_not_5xx(service.handle(method, path, body))


@SETTINGS
@given(params=paging_params, product=st.booleans(), raw=st.text(max_size=40))
def test_paged_routes_never_500(service, paged_paths, params, product, raw):
    path = paged_paths[product]
    query = urllib.parse.urlencode(params)
    assert_not_5xx(service.handle("GET", f"{path}?{query}", None))
    assert_not_5xx(service.handle("GET", f"{path}?{raw}", None))
