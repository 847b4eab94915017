"""Spans recorded around the solver's layer calls, from outside the solver.

The steppers look their callees up as module globals at call time, so
replacing a module attribute with a timing wrapper puts a span around every
call without touching the solver. Spans live in memory as
(name, start, end, parent) and are written out when the round ends.
"""

import contextlib
import importlib
import json
import time

# (module, attribute, span name). The homogeneous stepper is bound when
# landau.collision is imported, so its step spans are derived from the
# pairing calls instead (see derive_steps).
TARGETS = [
    ("landau.collision", "random_pairing", "collision.pairing"),
    ("landau.collision", "time_scale_k", "kernels.time_scale_k"),
    ("landau.vpl", "time_scale_k", "kernels.time_scale_k"),
    ("landau.collision", "sample_sbm_batch", "sphere.sample"),
    ("landau.collision", "mollified_density", "diagnostics.kde"),
    ("landau.collision", "moments", "diagnostics.moments"),
    ("landau.vpl", "cell_collisions", "vpl.cell_collisions"),
    ("landau.vpl", "cn_va_step", "vpl.cn"),
    ("landau.vpl", "deposit_current", "vpl.deposit"),
    ("landau.vpl", "interpolate_field", "vpl.interpolate"),
    ("landau.vpl", "sample_landau_damping", "analytic.init"),
    ("landau.streams", "RngStream.generator", "streams.generator"),
]

# Spans of the tracer's own bookkeeping; they are subtracted from the time of
# every span that encloses them.
OVERHEAD = "trace.capture"


class Tracer:
    """In-memory span recorder with an explicit parent stack."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent]
        self._stack = []
        self._patched = []
        self.missing = []

    @contextlib.contextmanager
    def span(self, name):
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else None])
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            self.spans[sid][2] = time.perf_counter()

    def wrap(self, name, fn, hook=None):
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if hook is not None:
                with self.span(OVERHEAD):
                    hook(args, kwargs, out)
            return out
        return traced

    def patch(self, hooks=None):
        """Wrap every TARGETS entry that exists; record the ones that do not."""
        hooks = hooks or {}
        for mod_name, attr, name in TARGETS:
            owner = importlib.import_module(mod_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._patched.append((owner, leaf, fn))
            setattr(owner, leaf, self.wrap(name, fn, hooks.get(name)))

    def restore(self):
        for owner, leaf, fn in reversed(self._patched):
            setattr(owner, leaf, fn)
        self._patched.clear()

    def write(self, path, header):
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "missing": self.missing}) + "\n")
            for sid, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent}) + "\n")


def derive_steps(spans, run_id, step_name="collision.step"):
    """Add one span per homogeneous step under the run span and re-parent.

    A step starts at its pairing call and ends at the next pairing call, the
    next checkpoint's first diagnostic (moments) or the end of the run,
    whichever comes first.
    """
    run_end = spans[run_id][2]
    top = [i for i, s in enumerate(spans) if s[3] == run_id]
    pair_starts = [spans[i][1] for i in top if spans[i][0] == "collision.pairing"]
    stops = sorted(pair_starts + [spans[i][1] for i in top
                                  if spans[i][0] == "diagnostics.moments"] + [run_end])
    steps = []
    for t0 in pair_starts:
        t1 = next(t for t in stops if t > t0)
        steps.append(len(spans))
        spans.append([step_name, t0, t1, run_id])
    for i in top:
        for sid in steps:
            if spans[sid][1] <= spans[i][1] and spans[i][2] <= spans[sid][2]:
                spans[i][3] = sid
                break
    return steps


def span_times(spans):
    """Net duration (less enclosed tracer overhead) and self time of each span."""
    net = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if name == OVERHEAD:
            p = parent
            while p is not None:
                net[p] -= t1 - t0
                p = spans[p][3]
    for i, s in enumerate(spans):
        if s[3] is not None and s[0] != OVERHEAD:
            child[s[3]] += net[i]
    self_t = [net[i] - child[i] for i in range(len(spans))]
    return net, self_t
