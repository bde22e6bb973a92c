"""In-memory span tracer that instruments a library from outside it.

A function is instrumented by replacing the attribute its caller looks
it up under (`decoding.detect_ls_exhaustive`, not only the defining
`detection.detect_ls_exhaustive`), and every replaced attribute is put
back when the tracer's `with` block ends, also on error.  Spans are kept
in memory as [name, start, end, parent, trial, error]; self time is a
span's duration minus the durations of its direct children.
"""

import csv
import functools
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.state: dict = {}
        self.trial = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _replace(self, module, attr: str, make_wrapper) -> None:
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, functools.wraps(original)(make_wrapper(original)))

    def add(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, module, attr: str, name: str, on_return=None, trial_root: bool = False) -> None:
        """Give every call of module.attr a span; on_return(tracer, args, result) may count."""

        def make_wrapper(fn):
            def wrapper(*args, **kwargs):
                if trial_root:
                    self.trial = args[1]
                rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.trial, None]
                self._stack.append(len(self.spans))
                self.spans.append(rec)
                rec[1] = time.perf_counter()
                try:
                    out = fn(*args, **kwargs)
                except BaseException as e:
                    rec[5] = type(e).__name__
                    raise
                finally:
                    rec[2] = time.perf_counter()
                    self._stack.pop()
                if on_return is not None:
                    on_return(self, args, out)
                return out

            return wrapper

        self._replace(module, attr, make_wrapper)

    def counter(self, module, attr: str, name: str) -> None:
        """Count calls of a per-element helper without giving each a span."""

        def make_wrapper(fn):
            def wrapper(*args, **kwargs):
                self.counts[name] = self.counts.get(name, 0) + 1
                return fn(*args, **kwargs)

            return wrapper

        self._replace(module, attr, make_wrapper)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, per-call durations, errors by type."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, _, error) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "durations": [], "errors": {}})
            s["calls"] += 1
            s["total"] += end - start
            s["self"] += end - start - child[i]
            s["durations"].append(end - start)
            if error is not None:
                s["errors"][error] = s["errors"].get(error, 0) + 1
        return out

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["name", "start", "end", "parent", "trial", "error"])
            writer.writerows(self.spans)
