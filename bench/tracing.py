"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer of the package: its name, start and end
(monotonic seconds), the span that was open when it started, the id of
the workload call it belongs to, and a few attributes read off the
arguments and the result.  Spans are kept in a list and written out as
JSON once the run ends.

Layers are instrumented by replacing a public name in the namespace of
its caller (``backstep.verify.simulate_closed_loop``, because ``verify``
imports it by name).  The wrapper passes arguments and the result through
unchanged.  A name that no longer exists is reported as missing and left
alone.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    call: int
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans while ``call`` is set; records nothing otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.call: int | None = None
        self._stack: list[int] = []

    def wrap(self, module: str, name: str, span: str, annotate=None) -> None:
        """Replace ``module.name`` by a recording wrapper named ``span``."""
        try:
            mod = importlib.import_module(module)
            fn = getattr(mod, name)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{name}")
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.call is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            rec = Span(len(self.spans), span, self.call, parent, time.perf_counter())
            self.spans.append(rec)
            self._stack.append(rec.sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end = time.perf_counter()
                self._stack.pop()
            if annotate is not None:
                try:
                    rec.attrs.update(annotate(args, kwargs, result))
                except (AttributeError, IndexError, TypeError) as exc:
                    rec.attrs["annotate_error"] = repr(exc)
            return result

        setattr(mod, name, wrapper)

    def of_call(self, call: int) -> list[Span]:
        return [s for s in self.spans if s.call == call]

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"missing": self.missing,
                       "spans": [asdict(s) for s in self.spans]}, fh)


def self_time(span: Span, spans: list[Span]) -> float:
    """Duration of ``span`` minus the part its direct children cover."""
    children = sorted((s.start, s.end) for s in spans if s.parent == span.sid)
    covered, edge = 0.0, span.start
    for start, end in children:
        start = max(start, edge)
        if end > start:
            covered += end - start
            edge = end
    return span.duration - covered

