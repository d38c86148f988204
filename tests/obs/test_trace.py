"""Tracer tests: injected clocks make exported traces deterministic.

Every test drives a private `Tracer` with a fake monotonic clock, so
assertions are on exact bytes and exact timestamps, never on wall
time.  The process-wide tracer is swapped with `set_tracer` and always
restored.
"""

import asyncio
import json
import threading
from io import StringIO

from repro.obs import NdjsonSink, Tracer, get_tracer, set_tracer, span


class FakeClock:
    """Monotonic integer clock: 1.0, 2.0, 3.0, ..."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def collecting_tracer():
    spans = []
    tracer = Tracer(sink=spans.append, clock=FakeClock())
    return tracer, spans


class TestDisabledPath:
    def test_default_tracer_is_disabled(self):
        assert not Tracer().enabled

    def test_disabled_span_yields_none(self):
        tracer = Tracer()
        with tracer.span("anything", system="mysql") as record:
            assert record is None
        assert tracer.current_span() is None


class TestSpans:
    def test_timings_come_from_the_injected_clock(self):
        tracer, spans = collecting_tracer()
        with tracer.span("outer"):
            pass
        (record,) = spans
        assert (record.start, record.end) == (1.0, 2.0)
        assert record.duration == 1.0

    def test_nesting_links_parents_and_exports_in_completion_order(self):
        tracer, spans = collecting_tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current_span() is inner
            assert tracer.current_span() is outer
        assert [s.name for s in spans] == ["inner", "outer"]
        assert spans[0].parent_id == outer.span_id
        assert outer.parent_id is None

    def test_attrs_travel_on_the_span(self):
        tracer, spans = collecting_tracer()
        with tracer.span("campaign.batch", system="mysql", size=8):
            pass
        assert spans[0].attrs == {"system": "mysql", "size": 8}

    def test_sink_fires_even_when_the_body_raises(self):
        tracer, spans = collecting_tracer()
        try:
            with tracer.span("failing"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert [s.name for s in spans] == ["failing"]
        assert spans[0].end is not None
        assert tracer.current_span() is None

    def test_span_ids_are_unique_and_sequential(self):
        tracer, spans = collecting_tracer()
        for _ in range(3):
            with tracer.span("s"):
                pass
        assert [s.span_id for s in spans] == [1, 2, 3]

    def test_thread_local_stacks_do_not_cross_parent(self):
        tracer, spans = collecting_tracer()
        seen = {}

        def worker():
            with tracer.span("child-thread") as record:
                seen["parent"] = record.parent_id

        with tracer.span("main-thread"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        # The other thread's span must NOT claim the main thread's
        # open span as its parent.
        assert seen["parent"] is None

    def test_interleaved_coroutines_each_get_their_own_root(self):
        """Concurrent requests share one event-loop thread: each
        asyncio task must still nest only its own spans, and leave
        with its own span current."""
        tracer, spans = collecting_tracer()
        seen = {}

        async def request(name):
            with tracer.span(name) as root:
                await asyncio.sleep(0)  # let the other request open
                with tracer.span(f"{name}.child") as child:
                    await asyncio.sleep(0)
                    seen[name] = (root, child, tracer.current_span())
                await asyncio.sleep(0)
                assert tracer.current_span() is root

        async def main():
            await asyncio.gather(request("a"), request("b"))

        asyncio.run(main())
        for name in ("a", "b"):
            root, child, current = seen[name]
            assert root.parent_id is None
            assert child.parent_id == root.span_id
            assert current is child
        assert len(spans) == 4
        assert tracer.current_span() is None


class TestNdjsonExport:
    def test_export_is_byte_deterministic(self):
        buffer = StringIO()
        tracer = Tracer(sink=NdjsonSink(buffer), clock=FakeClock())
        with tracer.span("outer", system="mysql"):
            with tracer.span("inner"):
                pass
        assert buffer.getvalue() == (
            '{"attrs": {}, "duration": 1.0, "end": 3.0, "name": "inner", '
            '"parent_id": 1, "span_id": 2, "start": 2.0}\n'
            '{"attrs": {"system": "mysql"}, "duration": 3.0, "end": 4.0, '
            '"name": "outer", "parent_id": null, "span_id": 1, '
            '"start": 1.0}\n'
        )

    def test_every_line_is_valid_json(self):
        buffer = StringIO()
        tracer = Tracer(sink=NdjsonSink(buffer), clock=FakeClock())
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        lines = buffer.getvalue().splitlines()
        decoded = [json.loads(line) for line in lines]
        assert [d["name"] for d in decoded] == ["a", "b"]
        assert set(decoded[0]) == {
            "attrs", "duration", "end", "name",
            "parent_id", "span_id", "start",
        }


class TestProcessTracer:
    def test_set_tracer_swaps_and_returns_previous(self):
        replacement, spans = collecting_tracer()
        previous = set_tracer(replacement)
        try:
            assert get_tracer() is replacement
            with span("via-module-helper"):
                pass
        finally:
            set_tracer(previous)
        assert [s.name for s in spans] == ["via-module-helper"]

    def test_module_span_is_a_noop_while_disabled(self):
        assert not get_tracer().enabled  # the shipped default
        with span("campaign.run", system="mysql") as record:
            assert record is None
