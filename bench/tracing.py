"""In-memory spans for the traced benchmark run.

A span records its name, start, end, parent and the op it belongs to, so
the spans of one op share an identifier.  Nothing is written until the run
ends (``Tracer.dump``), so recording costs two clock reads and one append.
"""

from __future__ import annotations

import contextlib
import json
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, **attrs):
        parent = self._stack[-1] if self._stack else None
        rec = {"id": len(self.spans), "parent": parent["id"] if parent else None,
               "op": parent["op"] if parent else len(self.spans),
               "name": name, "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self):
        """Each span's duration minus the part its (sequential) children cover."""
        out = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def dump(self, path, **header):
        self_s = self.self_times()
        spans = [dict(s, dur_s=s["end"] - s["start"], self_s=self_s[s["id"]])
                 for s in self.spans]
        with open(path, "w") as fh:
            json.dump(dict(header, spans=spans), fh, indent=1, sort_keys=True)
            fh.write("\n")


def dur(span):
    return span["end"] - span["start"]
