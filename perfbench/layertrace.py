"""In-memory span tracing of the package's layers, installed from outside.

The package has no tracing hooks of its own, so the tracer replaces each
layer function at the name its callers look it up by (a module
attribute) with a wrapper that records one span per call. Spans are kept
in memory as [name, start, end, parent, op] and written out once, at the
end of a run. Self time is a span's duration minus the durations of its
direct children; calls nest strictly in one thread, so children never
overlap and their durations can simply be summed.
"""

from __future__ import annotations

import csv
import functools
import time

# Layer name -> the (module, attribute) pairs through which callers reach
# it. Functions imported with ``from x import f`` are bound by name in
# the importing module, so each such binding is wrapped where it lives.
LAYER_BINDINGS = {
    "pipeline.ingest": [("pipeline", "ingest")],
    "pipeline.derive_series": [("pipeline", "derive_series")],
    "pipeline.run_unit_roots": [("pipeline", "run_unit_roots")],
    "pipeline.run_estimation": [("pipeline", "run_estimation")],
    "pipeline.run_montecarlo": [("pipeline", "run_montecarlo")],
    "pipeline.build_report": [("pipeline", "build_report")],
    "pipeline.render_report": [("pipeline", "render_report")],
    "unitroot.adf_test": [("unitroot", "adf_test")],
    "unitroot.pp_test": [("unitroot", "pp_test")],
    "ols.solve_ols": [("_ols", "solve_ols"), ("unitroot", "solve_ols"), ("coint", "solve_ols")],
    "lrcov.long_run_cov": [("lrcov", "long_run_cov"), ("coint", "long_run_cov")],
    "lrcov.bartlett_long_run_variance": [
        ("lrcov", "bartlett_long_run_variance"),
        ("unitroot", "bartlett_long_run_variance"),
    ],
    "coint.fmols": [("coint", "fmols")],
    "coint.hansen_lc": [("coint", "hansen_lc")],
    "model.simulate_dgp": [("model", "simulate_dgp")],
    "model.delta_path": [("model", "delta_ratio_at"), ("model", "delta_at")],
    "tools.simulate_lc_chunk": [("lctool", "simulate_lc_chunk")],
}
LAYERS = tuple(LAYER_BINDINGS)
OP = "op"
LC_BYTES = "tools.simulate_lc_chunk.bytes_computed"


def lc_chunk_bytes(rng, reps: int, t_len: int, powers) -> int:
    """Bytes of the float64 arrays one Lc chunk computes, from their shapes.

    Computed, not measured: x, y and the first-stage residual are
    reps x T; the regressor innovation, the two centred series, the
    corrected y and the second-stage residual are reps x (T-1); the
    scores and their cumulative sums are reps x (T-1) x k.
    """
    m = t_len - 1
    k = len(powers) + 1
    return 8 * reps * (3 * t_len + 5 * m + 2 * m * k)


def package_modules(lctool=None) -> dict:
    """The package modules that hold layer bindings, by short name."""
    from currsub import _ols, coint, lrcov, model, pipeline, unitroot

    modules = {
        "_ols": _ols,
        "coint": coint,
        "lrcov": lrcov,
        "model": model,
        "pipeline": pipeline,
        "unitroot": unitroot,
    }
    if lctool is not None:
        modules["lctool"] = lctool
    return modules


class Tracer:
    """Span recorder; ``install`` wraps the layers, ``uninstall`` restores them.

    ``op`` is the id of the op in progress, -1 between ops; spans and
    counts recorded with op -1 (output checks, for instance) are left
    out of every summary.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.events: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def current(self) -> int:
        return self._stack[-1] if self._stack else -1

    def add_external(self, spans: list[list], parent: int) -> None:
        """Attach spans recorded by a child process under span ``parent``."""
        base = len(self.spans)
        for name, start, end, sub_parent, _ in spans:
            self.spans.append(
                [name, start, end, parent if sub_parent < 0 else base + sub_parent, self.op]
            )

    def _wrap(self, fn, name: str):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self
        # Computed bytes are counted at the chunk's boundary, from its arguments.
        counts_bytes = name == "tools.simulate_lc_chunk"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counts_bytes:
                tracer.events.append([LC_BYTES, tracer.op, lc_chunk_bytes(*args, **kwargs)])
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op])
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = spans[idx]
                span[1] = start
                span[2] = clock()
                stack.pop()

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every layer binding found among ``modules`` (short name -> module)."""
        for name, bindings in LAYER_BINDINGS.items():
            for mod_name, attr in bindings:
                module = modules.get(mod_name)
                if module is None:
                    continue
                fn = getattr(module, attr)
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["name", "start", "end", "parent", "op"])
            writer.writerows(self.spans)


def read_csv(path: str) -> list[list]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    return [[n, float(s), float(e), int(p), int(o)] for n, s, e, p, o in rows]


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _zero_counts() -> dict[str, int]:
    counts = {f"{layer}.calls": 0 for layer in LAYERS}
    counts["unitroot.adf_test.fits"] = 0
    counts["unitroot.adf_test.useful_fits"] = 0
    counts[LC_BYTES] = 0
    return counts


def counts_by_op(spans: list[list], events: list[list]) -> dict[int, dict[str, int]]:
    """Integer counts of each op; these must repeat exactly."""
    by_op: dict[int, dict[str, int]] = {}
    adf_with_fits = set()
    for name, _, _, parent, op in spans:
        if op < 0:
            continue
        counts = by_op.setdefault(op, _zero_counts())
        if name == OP:
            continue
        counts[f"{name}.calls"] += 1
        if name == "ols.solve_ols" and parent >= 0 and spans[parent][0] == "unitroot.adf_test":
            counts["unitroot.adf_test.fits"] += 1
            # An ADF call reports the statistic of one fit, its last; the
            # others only served the lag search.
            if parent not in adf_with_fits:
                adf_with_fits.add(parent)
                counts["unitroot.adf_test.useful_fits"] += 1
    for name, op, value in events:
        if op >= 0:
            by_op[op][name] += value
    return by_op


def layer_metrics(spans: list[list], op_counts: dict[int, dict[str, int]]) -> dict[str, float]:
    """Layer metrics per op, averaged over the traced ops (times in ms).

    ``op_counts`` is :func:`counts_by_op` of the same spans.
    """
    n_ops = len(op_counts)
    self_s = dict.fromkeys(LAYERS, 0.0)
    op_total = 0.0
    unattributed = 0.0
    for span, own in zip(spans, self_times(spans)):
        if span[4] < 0:
            continue
        if span[0] == OP:
            op_total += span[2] - span[1]
            unattributed += own
        else:
            self_s[span[0]] += own
    counts = _zero_counts()
    for one_op in op_counts.values():
        for name, value in one_op.items():
            counts[name] += value
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = counts[f"{layer}.calls"] / n_ops
        out[f"{layer}.self_ms"] = 1000.0 * self_s[layer] / n_ops
    fits = counts["unitroot.adf_test.fits"]
    tests = counts["unitroot.adf_test.calls"]
    out["unitroot.adf_test.fits_per_test"] = fits / tests if tests else 0.0
    out["unitroot.adf_test.useful_fit_ratio"] = (
        counts["unitroot.adf_test.useful_fits"] / fits if fits else 0.0
    )
    out[LC_BYTES] = counts[LC_BYTES] / n_ops
    out["op.traced_ms"] = 1000.0 * op_total / n_ops
    out["op.unattributed_ms"] = 1000.0 * unattributed / n_ops
    return out
