"""Layer spans and counters for the traced benchmark run.

The tracer wraps oplab's public functions at the attribute names their
callers look up (``oplab.quad.integrate_*`` for every module that calls
``quad.X``; ``hilbert.beta_fn``, ``schur.log_beta`` ... for names bound at
import time) and the ``Func1D``/``Func2D`` objects built through
``funcdsl.func1d``/``func2d``.  Each wrapped call records a span
(name, start, end, parent, task id) in memory; layer self time is a
span's duration minus the time covered by its child spans.

Known blind spot: integrand closures defined inside ``hilbert`` and
``bergman`` (such as the kernel inside ``bergman._tplus_slice``) run
under the enclosing ``quad`` span, so ``quad.self_s`` includes them.
Spans inside the program itself are a later change.

The wrappers are installed only for a traced pass and removed afterwards,
so untraced passes run the unmodified program.
"""

from __future__ import annotations

import dataclasses
import functools
import time

import numpy as np

LAYERS = ("quad", "funcdsl", "hilbert", "schur", "bergman", "specfun")

# Counters that must repeat exactly between two traced passes.
DETERMINISTIC = ("quad.drives", "funcdsl.eval_calls", "funcdsl.eval_points",
                 "hilbert.probes", "specfun.calls")

# quad entry points that each run exactly one adaptive drive
_DRIVES = ("integrate_semiaxis", "integrate_truncated",
           "integrate_interval", "integrate_real_line")

_HILBERT = ("apply_H", "apply_H_many", "apply_H_adjoint", "weighted_lp_norm",
            "image_norm", "bilinear_pairing", "extremal_quotient",
            "dilation_residual", "growth_exponent", "sharp_norm",
            "hilbert_verdict", "solve_gamma")
_SCHUR = ("find_certificate", "verify_certificate", "sup_test_L1", "sup_test_Linf")
_BERGMAN = ("kernel_row_integral", "mixed_norm", "apply_Tplus", "apply_T",
            "bergman_project", "reduction_bound_check", "column_integral",
            "reproduce_check", "bergman_verdict", "tplus_exact_norm")


class Tracer:
    """In-memory span recorder with per-layer self time and counters."""

    def __init__(self):
        self.spans: list[tuple] = []   # (name, start, end, parent index, task id)
        self.counts: dict[str, float] = {}
        self.self_s = {layer: 0.0 for layer in LAYERS + ("bench",)}
        self.task = None
        self._stack: list[list] = []   # [span index, layer, child time]
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------
    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def span(self, layer: str, name: str, fn, *args, **kwargs):
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, layer, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (f"{layer}.{name}", start, end, parent, self.task)
            self.self_s[layer] += (end - start) - frame[2]
            if self._stack:
                self._stack[-1][2] += end - start

    # -- installation --------------------------------------------------
    def _patch(self, obj, attr: str, wrapper) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, wrapper)

    def _wrap(self, layer: str, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.add(f"{layer}.calls")
            try:
                out = tracer.span(layer, name, fn, *args, **kwargs)
            except Exception:
                tracer.add(f"{layer}.errors")
                raise
            if after is not None:
                after(args, kwargs, out)
            return out
        return wrapper

    def wrap_func(self, f):
        """A copy of a Func1D/Func2D whose evaluations are counted and timed."""
        tracer = self
        inner = f.fn

        def fn(*xs):
            tracer.add("funcdsl.eval_calls")
            tracer.add("funcdsl.eval_points", np.broadcast(*xs).size)
            return tracer.span("funcdsl", "eval", inner, *xs)
        return dataclasses.replace(f, fn=fn)

    def install(self) -> None:
        from oplab import bergman, cli, funcdsl, hilbert, quad, schur

        def drive_done(args, kwargs, out):
            self.add("quad.drives")
            self.add("quad.results", np.size(out))

        for name in _DRIVES:
            self._patch(quad, name, self._wrap("quad", name, getattr(quad, name), drive_done))
        self._patch(quad, "integrate_halfplane",
                    self._wrap("quad", "integrate_halfplane", quad.integrate_halfplane))

        def probes(args, kwargs, out):
            self.add("hilbert.probes", np.size(out))

        for name in _HILBERT:
            after = probes if name == "apply_H_many" else None
            self._patch(hilbert, name, self._wrap("hilbert", name, getattr(hilbert, name), after))
        self._patch(bergman, "apply_H", hilbert.apply_H)
        self._patch(schur, "hilbert_verdict", hilbert.hilbert_verdict)

        def samples(args, kwargs, out):
            self.add("schur.samples", out.n_samples if hasattr(out, "n_samples") else len(out.grid))

        for name in _SCHUR:
            after = None if name == "find_certificate" else samples
            self._patch(schur, name, self._wrap("schur", name, getattr(schur, name), after))
        for name in _BERGMAN:
            self._patch(bergman, name, self._wrap("bergman", name, getattr(bergman, name)))

        # specfun names are bound into each caller at import time
        for module, name in ((hilbert, "beta_fn"), (bergman, "beta_fn"),
                             (schur, "beta_fn"), (schur, "log_beta")):
            self._patch(module, name, self._wrap("specfun", name, getattr(module, name)))

        def parse_counted(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.add("funcdsl.parse_calls")
                return self.span("funcdsl", "parse", fn, *args, **kwargs)
            return wrapper

        def builder(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.wrap_func(fn(*args, **kwargs))
            return wrapper

        self._patch(funcdsl, "parse", parse_counted(funcdsl.parse))
        for name in ("func1d", "func2d"):
            self._patch(funcdsl, name, builder(getattr(funcdsl, name)))
        for module in (hilbert, cli):
            self._patch(module, "func1d", funcdsl.func1d)

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    # -- results -------------------------------------------------------
    def counters(self) -> dict:
        """The deterministic counters plus per-layer self times."""
        c = self.counts
        drives = c.get("quad.drives", 0)
        out = {
            "quad.drives": drives,
            "quad.results_per_drive": c.get("quad.results", 0) / drives if drives else 0.0,
            "quad.errors": c.get("quad.errors", 0),
            "funcdsl.parse_calls": c.get("funcdsl.parse_calls", 0),
            "funcdsl.eval_calls": c.get("funcdsl.eval_calls", 0),
            "funcdsl.eval_points": c.get("funcdsl.eval_points", 0),
            "hilbert.calls": c.get("hilbert.calls", 0),
            "hilbert.probes": c.get("hilbert.probes", 0),
            "schur.calls": c.get("schur.calls", 0),
            "schur.samples": c.get("schur.samples", 0),
            "bergman.calls": c.get("bergman.calls", 0),
            "specfun.calls": c.get("specfun.calls", 0),
        }
        for layer in LAYERS + ("bench",):
            out[f"{layer}.self_s"] = self.self_s[layer]
        return out


def merge(counters: list[dict]) -> dict:
    """Sum counters from several traced processes (results_per_drive is
    re-weighted by each process's drive count)."""
    total: dict = {}
    results = 0.0
    for c in counters:
        results += c["quad.results_per_drive"] * c["quad.drives"]
        for k, v in c.items():
            total[k] = total.get(k, 0) + v
    drives = total.get("quad.drives", 0)
    total["quad.results_per_drive"] = results / drives if drives else 0.0
    return total
