"""Spans around the benchmark's calls into twinpdc, and the per-layer metrics built from them.

A span records the name of the public function called, its start and end on
the monotonic clock, the span that caused it, the run id, and how far the
process's ru_maxrss high-water mark rose during the call.  Spans are kept in
memory; the caller writes them out when the run ends.
"""
import resource
import time
from contextlib import contextmanager


def peak_rss_mb() -> float:
    """High-water resident set size of this process in MiB (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class NullTracer:
    """Tracing off: calls go straight through."""

    def call(self, name, fn, *args, attrs=None, **kwargs):
        return fn(*args, **kwargs)

    def annotate(self, **attrs):
        pass


class Tracer:
    """Records one span per call made through it."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._last_closed = None

    def _open(self, name, attrs):
        span = {"id": len(self.spans), "name": name, "run": self.run_id,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "rss0": peak_rss_mb(), **(attrs or {})}
        self.spans.append(span)
        self._stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def _close(self):
        end = time.perf_counter()
        span = self._stack.pop()
        span["end"] = end
        span["rss_step_mb"] = peak_rss_mb() - span.pop("rss0")
        self._last_closed = span

    def call(self, name, fn, *args, attrs=None, **kwargs):
        self._open(name, attrs)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    def annotate(self, **attrs):
        """Add attributes known only after the call to the span that closed last."""
        self._last_closed.update(attrs)

    @contextmanager
    def region(self, name):
        """A span that encloses other spans (a workload body)."""
        span = self._open(name, None)
        try:
            yield span
        finally:
            self._close()


def duration(span):
    return span["end"] - span["start"]


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + duration(s)
    return {s["id"]: duration(s) - child_time.get(s["id"], 0.0) for s in spans}


def _select(spans, names, **attrs):
    return [s for s in spans if s["name"] in names
            and all(s.get(k) == v for k, v in attrs.items())]


def _seconds(spans):
    return sum(duration(s) for s in spans)


def layer_metrics(spans):
    """Per-layer metrics for every layer the spans exercise.

    Layers the spans never call are left out, so the caller can tell which
    metrics a pass measured.
    """
    out = {}

    def put(name, selected, value):
        if selected:
            out[name] = value(selected)

    def seconds(name, *span_names, **attrs):
        put(name, _select(spans, span_names, **attrs), _seconds)

    def rss_step(name, span_name):
        put(name, _select(spans, {span_name}),
            lambda sel: sum(s["rss_step_mb"] for s in sel))

    build = _select(spans, {"jsa.build_jsa"})
    seconds("jsa.build_jsa.s", "jsa.build_jsa")
    put("jsa.build_jsa.calls", build, len)
    put("jsa.build_jsa.cells_per_s", build,
        lambda sel: sum(s["cells"] for s in sel) / _seconds(sel))
    rss_step("jsa.build_jsa.rss_step_mb", "jsa.build_jsa")
    seconds("jsa.apply_filter.s", "jsa.apply_filter")
    seconds("jsa.geometry.s", "jsa.marginals", "jsa.fwhm", "jsa.jsi_linewidth")

    for fn in ("dump_grid", "load_grid"):
        sel = _select(spans, {f"jsa.{fn}"})
        put(f"jsa.{fn}.s", sel, _seconds)
        put(f"jsa.{fn}.mb_per_s", sel,
            lambda sel: sum(s["bytes"] for s in sel) / 1e6 / _seconds(sel))

    for fn in ("spectral_overlap", "delay_compensated_overlap", "density_overlap",
               "decompose", "schmidt_spectral_overlap", "gain_for_mean_n"):
        seconds(f"schmidt.{fn}.s", f"schmidt.{fn}")
    rss_step("schmidt.density_overlap.rss_step_mb", "schmidt.density_overlap")
    rss_step("schmidt.decompose.rss_step_mb", "schmidt.decompose")
    put("schmidt.decompose.modes_kept", _select(spans, {"schmidt.decompose"}),
        lambda sel: max(s["modes_kept"] for s in sel))

    for path in ("equal", "unequal", "device"):
        put(f"montecarlo.simulate.{path}.s_per_mgate",
            _select(spans, {"montecarlo.simulate"}, path=path),
            lambda sel: _seconds(sel) / (sum(s["gates"] for s in sel) / 1e6))
    put("montecarlo.simulate.gates",
        _select(spans, {"montecarlo.simulate", "montecarlo.efficiency_sweep"}),
        lambda sel: sum(s["gates"] for s in sel))
    seconds("montecarlo.efficiency_sweep.s", "montecarlo.efficiency_sweep")

    seconds("twinstats.estimators.s", "twinstats.klyshko", "twinstats.mean_n_from_cross")
    seconds("twinstats.records_io.s", "twinstats.write_count_records",
            "twinstats.read_count_records", "twinstats.write_visibility_points",
            "twinstats.read_visibility_points")

    fits = _select(spans, {"fit.fit_overlap"})
    for model in ("approx", "full"):
        put(f"fit.fit_overlap.{model}.s_per_fit",
            _select(spans, {"fit.fit_overlap"}, model=model),
            lambda sel: _seconds(sel) / len(sel))
    put("fit.fit_overlap.calls", fits, len)
    return out


def coverage(spans, root_id):
    """Share of the root span's wall time spent inside calls into twinpdc (self times)."""
    selfs = self_times(spans)
    root = spans[root_id]
    inside = sum(t for sid, t in selfs.items() if sid != root_id)
    return inside / duration(root)
