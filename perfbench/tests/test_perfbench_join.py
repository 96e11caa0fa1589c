"""Joining client round trips to server spans on the request trace id."""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

import serve_workload  # noqa: E402
from tracer import Span, Tracer, self_times, spans_from_trace  # noqa: E402

MS = 1_000_000  # ns


def _request(trace_id: str, label: str, rtt_ms: float, measured: bool = True):
    return serve_workload.Request(
        index=int(trace_id, 16), label=label, method="GET", path="/", body=None,
        status=200, rtt_s=rtt_ms / 1000.0, trace_id=trace_id, digest=b"",
        measured=measured, done_s=0.0,
    )


def _spans() -> list[Span]:
    return [
        # a cve request: handle 0..2 ms with a 1 ms payload builder inside
        Span("service.handle", 0, 2 * MS, -1, 1, "0100000001"),
        Span("service.cache.get", 0, MS // 10, 0, 1, "0100000001"),
        Span("service.state.cve", MS // 2, 3 * MS // 2, 0, 1, "0100000001"),
        # a predict request whose scoring runs on another thread
        Span("service.handle", 10 * MS, 15 * MS, -1, 2, "0100000002"),
        Span("service.state.predict", 12 * MS, 13 * MS, -1, 3, ""),
        Span("core.severity.predict", 12 * MS, 12 * MS + MS // 2, 4, 3, ""),
        # start-up load and a health probe that carries no client id
        Span("artifacts.load", -50 * MS, -10 * MS, -1, 4, ""),
        Span("service.handle", -5 * MS, -4 * MS, -1, 4, ""),
    ]


def test_transport_is_round_trip_minus_handle():
    requests = [
        _request("0100000001", "cve", 10.0),
        _request("0100000002", "predict", 20.0),
        _request("0100000003", "cve", 5.0),  # never reached the server
    ]
    metrics, rows, rtt_us = serve_workload.server_layers(requests, _spans())
    # (10 - 2) and (20 - 5) ms over the two joined requests
    assert metrics["service.transport_us"] == pytest.approx((8_000 + 15_000) / 2)
    assert metrics["service.handle_us"] == pytest.approx((2_000 + 5_000) / 2)
    assert rtt_us == pytest.approx(15_000)


def test_other_thread_work_is_attributed_to_its_predict_handle():
    requests = [_request("0100000001", "cve", 10.0), _request("0100000002", "predict", 20.0)]
    metrics, rows, rtt_us = serve_workload.server_layers(requests, _spans())
    # the predict handle waited 5 ms, 1 ms of it scoring elsewhere
    assert metrics["service.predict_wait_us"] == pytest.approx(4_000)
    assert metrics["service.state.predict_us"] == pytest.approx(1_000)
    assert metrics["core.severity.predict_s"] == pytest.approx(0.0005 / 2)
    # handle self: cve 2 - 0.1 - 1 = 0.9 ms, predict 5 - 1 = 4 ms
    assert metrics["service.handle_self_us"] == pytest.approx((900 + 4_000) / 2)
    assert metrics["service.state.cve_us"] == pytest.approx(1_000)
    assert metrics["artifacts.load_s"] == pytest.approx(0.04)
    # self times plus transport cover the mean round trip exactly
    assert sum(own for _, _, _, own in rows) * 1e6 == pytest.approx(rtt_us)


def test_without_handle_spans_the_round_trip_is_all_transport():
    requests = [_request("0100000009", "cve", 1.0), _request("010000000a", "cve", 3.0)]
    metrics, rows, rtt_us = serve_workload.server_layers(requests, _spans())
    assert metrics == {"service.transport_us": pytest.approx(2_000)}
    assert rtt_us == pytest.approx(2_000)
    assert [row[0] for row in rows] == ["service.transport"]


def test_trace_file_round_trip_keeps_parents_and_trace_ids(tmp_path):
    tracer = Tracer()
    traced = tracer.wrap("service.handle", lambda *args, **kwargs: inner())
    inner = tracer.wrap("service.state.cve", lambda: None)
    traced(None, "GET", "/v1/cve/x", None, trace_id="0a0b")
    with tracer.span("ingest"):
        pass
    path = tmp_path / "trace.json"
    tracer.write(path)
    from repro.obs.trace import load_trace

    spans = spans_from_trace(load_trace(path))
    assert [(s.name, s.parent, s.trace_id) for s in spans] == [
        ("service.handle", -1, "0a0b"),
        ("service.state.cve", 0, "0a0b"),
        ("ingest", -1, ""),
    ]
    table = self_times(spans)
    assert table["service.handle"][0] == 1
