"""In-memory span recorder for the traced benchmark run.

A span has a name (``layer.function``), a start, an end and a parent. The
benchmark opens spans around its own calls into the CLI, and `Tracer.wrap`
replaces a function or class at the module attribute where its callers
look it up, so the real CLI call tree records spans without any change to
the package. Spans stay in memory until `Tracer.write` at the end of a run.
"""

import contextlib
import functools
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int  # -1 for a root span
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    @contextlib.contextmanager
    def span(self, name, **attrs):
        """Record a span around the ``with`` body, closed even if it raises.
        Spans nest by call order, so the traced code must be single-threaded
        (the benchmark passes ``--threads 1``)."""
        parent = self._stack[-1].id if self._stack else -1
        s = Span(len(self.spans), parent, name, time.perf_counter(), attrs=attrs)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr, name, on_result=None):
        """Replace ``owner.attr`` by a traced call; ``on_result(span, args,
        result)`` may attach counts taken from the arguments or result."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(s, args, result)
                return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap_all(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def subtree(self, root):
        """The spans under ``root`` (itself included), in start order."""
        inside = {root.id}
        out = [root]
        for s in self.spans[root.id + 1:]:
            if s.parent in inside:
                inside.add(s.id)
                out.append(s)
        return out

    def write(self, path):
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "id": s.id, "parent": s.parent, "name": s.name,
                    "start": s.start, "end": s.end, **s.attrs,
                }) + "\n")


def self_times(spans):
    """Per-layer self time: each span's duration minus the time its direct
    children cover (children never overlap in single-threaded code)."""
    child_time = {}
    for s in spans:
        child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    out = {}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + s.duration - child_time.get(s.id, 0.0)
    return out
