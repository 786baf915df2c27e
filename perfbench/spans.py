"""In-memory span recorder that wraps public functions at their call sites.

A span is (name, start, end, parent, item).  Spans stay in compact arrays
while the traced pass runs and are written out when the benchmark ends.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from time import perf_counter

#: (module, function, span name).  Each public function is wrapped at the
#: binding its caller uses: the benchmark's own calls go through the
#: defining module, library-internal calls through the importing module's
#: name for it.  Both evaluator entry points share the span name
#: `hurwitz.zeta`.
WRAP_POINTS = (
    ("zero_analysis", "verify_theorem", "zero_analysis.verify_theorem"),
    ("zero_analysis", "uniqueness_check", "zero_analysis.uniqueness_check"),
    ("zero_analysis", "locate_zeros", "zero_analysis.locate_zeros"),
    ("zero_analysis", "predict_zero", "zero_analysis.predict_zero"),
    ("zero_analysis", "hurwitz_zeta", "hurwitz.zeta"),
    ("zero_analysis", "hurwitz_zeta_exact_at_nonpositive_integer",
     "hurwitz.exact"),
    ("zero_analysis", "eval_poly", "bernoulli.eval_poly"),
    ("zero_analysis", "even_roots", "bernoulli.even_roots"),
    ("hurwitz", "eval_poly", "bernoulli.eval_poly"),
    ("cli", "main", "cli.main"),
    ("cli", "build_parser", "cli.build_parser"),
    ("cli", "predict_zero", "zero_analysis.predict_zero"),
    ("cli", "predict_zero_explicit", "zero_analysis.predict_zero_explicit"),
    ("cli", "hurwitz_zeta_detailed", "hurwitz.zeta"),
)


class Tracer:
    """Records spans for the functions it wraps until uninstalled."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("H")
        self.parent = array("q")
        self.item = array("q")
        self.start = array("d")
        self.end = array("d")
        self.errors: dict = {}    # span index -> exception class name
        self.lengths: dict = {}   # span index -> len(result), locate spans
        self.current_item = -1
        self._stack = [-1]
        self._saved: list = []

    def _wrap(self, fn, span_name: str, keep_len: bool):
        if span_name not in self._ids:
            self._ids[span_name] = len(self.names)
            self.names.append(span_name)
        nid = self._ids[span_name]
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.item.append(self.current_item)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[idx] = type(exc).__name__
                raise
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if keep_len:
                self.lengths[idx] = len(out)
            return out

        return traced

    def install(self, lib) -> "Tracer":
        for mod_name, attr, span_name in WRAP_POINTS:
            mod = getattr(lib, mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, span_name,
                                          attr == "locate_zeros"))
        return self

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self) -> dict:
        """Per span name: calls, busy seconds, exceptions by class; per
        layer (the name's first component): self seconds, i.e. span time
        not covered by child spans; per span: direct children by name."""
        names = self.names
        dur = [e - s for s, e in zip(self.start, self.end)]
        calls = defaultdict(int)
        busy = defaultdict(float)
        child_time = [0.0] * len(dur)
        children = defaultdict(lambda: defaultdict(int))
        for i, nid in enumerate(self.name):
            calls[names[nid]] += 1
            busy[names[nid]] += dur[i]
            p = self.parent[i]
            if p >= 0:
                child_time[p] += dur[i]
                children[p][names[nid]] += 1
        self_time = defaultdict(float)
        for i, nid in enumerate(self.name):
            self_time[names[nid].split(".", 1)[0]] += dur[i] - child_time[i]
        errors = defaultdict(int)
        for i, exc_name in self.errors.items():
            errors[(names[self.name[i]], exc_name)] += 1
        return {"calls": calls, "busy": busy, "self": self_time,
                "children": children, "errors": errors}

    def save(self, path) -> None:
        """Write every span to one numpy .npz file."""
        import numpy as np

        err_idx = sorted(self.errors)
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.uint16),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 item=np.frombuffer(self.item, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 error_span=np.array(err_idx, dtype=np.int64),
                 error_name=np.array([self.errors[i] for i in err_idx],
                                     dtype=str))
