import pytest

from spans import SpanRecorder, self_times


def span(span_id, name, parent, start, end):
    return {"id": span_id, "name": name, "parent": parent, "request": 1,
            "start": start, "end": end, "attrs": {}}


def test_self_time_is_duration_minus_what_children_cover():
    tree = [
        span(1, "request", None, 0.0, 10.0),
        span(2, "execute", 1, 1.0, 9.0),
        # two shard calls side by side: covered once, not twice
        span(3, "shard", 2, 2.0, 6.0),
        span(4, "shard", 2, 3.0, 8.0),
        span(5, "serialize", 1, 9.0, 9.5),
    ]
    selves = self_times(tree)
    assert selves[1] == pytest.approx(10.0 - 8.0 - 0.5)
    assert selves[2] == pytest.approx(8.0 - 6.0)  # children cover [2, 8)
    assert selves[3] == pytest.approx(4.0)
    assert selves[5] == pytest.approx(0.5)


def test_children_are_clipped_to_their_parent():
    tree = [span(1, "parent", None, 0.0, 4.0), span(2, "child", 1, 3.0, 7.0)]
    assert self_times(tree)[1] == pytest.approx(3.0)


def test_recorder_nests_spans_and_inherits_the_request_id():
    recorder = SpanRecorder()
    with recorder.span("request", request=7) as outer:
        with recorder.span("probe") as inner:
            pass
    assert inner["parent"] == outer["id"]
    assert inner["request"] == 7
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    assert [s["name"] for s in recorder.spans] == ["request", "probe"]


def test_graft_adopts_a_rendered_service_tree():
    recorder = SpanRecorder()
    with recorder.span("request", request=3) as request:
        pass
    recorder.graft(request, {
        "name": "query", "start_ms": 0.0, "duration_ms": 5.0, "attrs": {},
        "children": [
            {"name": "execute", "start_ms": 1.0, "duration_ms": 3.0,
             "attrs": {"engine": "Typer"}, "children": []},
        ],
    })
    by_name = {s["name"]: s for s in recorder.spans}
    assert by_name["query"]["parent"] == request["id"]
    assert by_name["execute"]["parent"] == by_name["query"]["id"]
    assert by_name["execute"]["request"] == 3
    assert by_name["execute"]["start"] == pytest.approx(request["start"] + 0.001)
    assert by_name["execute"]["end"] - by_name["execute"]["start"] == pytest.approx(0.003)
