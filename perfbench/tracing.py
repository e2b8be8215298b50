"""In-memory spans around calls into the streamaudit layers.

A span is (id, name, parent id, pass id, start, end). Spans are only
recorded while a Tracer is installed: installing replaces the public
functions listed by the caller with timing wrappers on their modules (and
classes), so calls the library makes between its own modules are timed too,
and uninstalling puts the originals back. Untraced passes therefore run the
unmodified library.

A layer is the first dot-separated part of a span name; the benchmark's
own spans ("pass") belong to the layer "bench".
"""

import contextlib
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self.pass_id = None

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        span_id = len(self.spans)
        record = [span_id, name, parent, self.pass_id, time.perf_counter(),
                  None]
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            record[5] = time.perf_counter()
            self._stack.pop()

    def adopt(self, spans):
        """Add spans recorded by a child process (perf_counter is the
        system-wide monotonic clock, so its times compare with ours) under
        the currently open span, in the current pass."""
        ids = {}
        for span_id, name, parent, _, start, end in spans:
            ids[span_id] = len(self.spans)
            self.spans.append([
                ids[span_id], name,
                ids[parent] if parent is not None else self._stack[-1],
                self.pass_id, start, end])

    def _wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            # a function that calls itself (a path argument re-dispatched
            # to the stream reader) is one span, not two
            if tracer._stack and tracer.spans[tracer._stack[-1]][1] == label:
                return fn(*args, **kwargs)
            with tracer.span(label):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Trace every (owner, attribute, span name) in targets while the
        block runs. A span name may be a function of the call's arguments."""
        saved = []
        try:
            for owner, attr, name in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def layer_of(name):
    return "bench" if name == "pass" else name.split(".", 1)[0]


def self_times(spans):
    """Span id -> duration minus the time its direct children cover."""
    self_s = {s[0]: s[5] - s[4] for s in spans}
    for s in spans:
        if s[2] is not None:
            self_s[s[2]] -= s[5] - s[4]
    return self_s


def totals_by_pass(spans):
    """{pass id: {span name: total seconds in that pass}}."""
    out = {}
    for s in spans:
        per = out.setdefault(s[3], {})
        per[s[1]] = per.get(s[1], 0.0) + (s[5] - s[4])
    return out


def layer_self_by_pass(spans):
    """{pass id: {layer: self seconds}}."""
    self_s = self_times(spans)
    out = {}
    for s in spans:
        per = out.setdefault(s[3], {})
        layer = layer_of(s[1])
        per[layer] = per.get(layer, 0.0) + self_s[s[0]]
    return out
