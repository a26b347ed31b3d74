"""Spans around longpred's public functions, recorded from outside the
program.

``Tracer.install`` wraps every public function of the traced modules and
rebinds the wrapper wherever a longpred module (or the package itself)
holds the original, so calls between modules and within a module are seen.
The term callback handed to ``tails.powerlaw_tail_sum`` is wrapped too.
Each call records a span ``[name, start, end, parent]``; counters record
the work a call did.  ``uninstall`` puts the originals back.
"""

import inspect
import json
import os
import statistics
import sys
import time

from longpred import (cli, fraccoeff, predictor, rng, risk, series,
                      simulate, spectral, tails, toeplitz)

TRACED_MODULES = (fraccoeff, toeplitz, risk, tails, simulate, rng, spectral,
                  cli, predictor, series)

# the per-layer metrics a traced run reports, with their units; BENCHMARK.json
# lists the same names
LAYER_METRICS = {
    "tails.powerlaw_tail_sum.calls": "count",
    "tails.powerlaw_tail_sum.self_s": "s",
    "tails.terms_s": "s",
    "tails.terms": "count",
    "tails.cutoff_max": "count",
    "fraccoeff.exact_autocov.calls": "count",
    "fraccoeff.exact_autocov.self_s": "s",
    "fraccoeff.exact_autocov.lags": "count",
    "fraccoeff.series_inverse.calls": "count",
    "fraccoeff.series_inverse.self_s": "s",
    "fraccoeff.series_inverse.terms": "count",
    "fraccoeff.ma_inf_coeffs.calls": "count",
    "fraccoeff.ma_inf_coeffs.self_s": "s",
    "fraccoeff.ar_inf_coeffs.self_s": "s",
    "fraccoeff.integrate_symmetric_singular.self_s": "s",
    "fraccoeff.spectral_density.calls": "count",
    "toeplitz.durbin_levinson.calls": "count",
    "toeplitz.durbin_levinson.self_s": "s",
    "toeplitz.durbin_levinson.order_sum": "count",
    "toeplitz.empirical_autocov.calls": "count",
    "toeplitz.empirical_autocov.self_s": "s",
    "risk.truncation_excess.calls": "count",
    "risk.ark_excess.self_s": "s",
    "risk.excess_decomposition.self_s": "s",
    "risk.compute_H.self_s": "s",
    "simulate.gaussian_paths.calls": "count",
    "simulate.gaussian_paths.self_s": "s",
    "simulate.paths": "count",
    "simulate.path_values": "count",
    "simulate.circulant_s": "s",
    "simulate.innovations_s": "s",
    "simulate.circulant_eigenvalues.self_s": "s",
    "rng.normals.self_s": "s",
    "rng.variates": "count",
    "rng.derive_rng.calls": "count",
    "rng.derive_rng.self_s": "s",
    "rng.replicate_map.self_s": "s",
    "spectral.whittle_fit.calls": "count",
    "spectral.whittle_fit.self_s": "s",
    "spectral.whittle_objective.calls": "count",
    "spectral.whittle_objective.self_s": "s",
    "spectral.periodogram.self_s": "s",
    "cli.write_artifact.calls": "count",
    "cli.write_artifact.self_s": "s",
    "cli.write_artifact.bytes": "B",
}


class Tracer:
    """Installs span-recording wrappers and turns spans into layer metrics."""

    def __init__(self):
        self.names = []        # span name table
        self._name_ids = {}
        self.spans = []        # [name id, start, end, parent index, tag]
        self.counts = {}
        self._stack = []
        self._bindings = []    # (namespace dict, attribute, original)

    # -- recording ----------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name, fn, after=None):
        """``fn`` recording a span per call; ``after(tracer, args, kwargs,
        result)`` may add counters and returns an optional span tag."""
        name_id = self._name_id(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                span[4] = after(self, args, kwargs, result)
            self.add(name + ".calls", 1)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self):
        namespaces = [vars(m) for name, m in sys.modules.items()
                      if name == "longpred" or name.startswith("longpred.")]
        for module in TRACED_MODULES:
            short = module.__name__.rpartition(".")[2]
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{short}.{attr}"
                wrapper = self.wrap(name, fn, _AFTER.get(name))
                if fn is tails.powerlaw_tail_sum:
                    wrapper = self._wrap_tail_driver(wrapper)
                for ns in namespaces:
                    for key, value in list(ns.items()):
                        if value is fn:
                            self._bindings.append((ns, key, fn))
                            ns[key] = wrapper

    def uninstall(self):
        for ns, key, fn in reversed(self._bindings):
            ns[key] = fn
        self._bindings.clear()

    def _wrap_tail_driver(self, driver):
        def count_terms(tracer, args, kwargs, result):
            tracer.add("tails.terms", len(result))

        def traced_driver(values_fn, *args, **kwargs):
            return driver(self.wrap("tails.terms", values_fn, count_terms),
                          *args, **kwargs)

        return traced_driver

    # -- metrics ------------------------------------------------------------

    def self_times(self, lo, hi):
        """{name: self time}, plus the sampler split, for spans[lo:hi]."""
        spans = self.spans[lo:hi]
        child = [0.0] * len(spans)
        for span in spans:
            parent = span[3] - lo
            if parent >= 0:
                child[parent] += span[2] - span[1]
        out = {}
        for span, c in zip(spans, child):
            name = self.names[span[0]]
            own = span[2] - span[1] - c
            out[name] = out.get(name, 0.0) + own
            if span[4] is not None:
                out[span[4]] = out.get(span[4], 0.0) + own
        return out

    def pass_metrics(self, lo, hi, counts):
        """The LAYER_METRICS of one pass: spans[lo:hi] and its counters."""
        times = self.self_times(lo, hi)
        metrics = {}
        for name, unit in LAYER_METRICS.items():
            if unit == "s":
                span_name = name.removesuffix(".self_s").removesuffix("_s")
                metrics[name] = times.get(span_name, 0.0)
            else:
                metrics[name] = counts.get(name, 0)
        return metrics

    def dump(self, path, extra):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(dict(extra, names=self.names, spans=self.spans), fh)


def summarise(per_pass):
    """Counts from the passes (they must agree) and median self times.

    Returns (metrics, list of counter names that differed between passes).
    """
    metrics, unsteady = {}, []
    for name, unit in LAYER_METRICS.items():
        values = [m[name] for m in per_pass]
        if unit == "s":
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                unsteady.append(name)
    return metrics, unsteady


# counters and tags recorded after a call returns


def _tail_cutoff(tracer, args, kwargs, result):
    tracer.counts["tails.cutoff_max"] = max(
        tracer.counts.get("tails.cutoff_max", 0), result.cutoff)


def _paths(tracer, args, kwargs, result):
    tracer.add("simulate.paths", len(result))
    tracer.add("simulate.path_values", sum(len(p) for p in result))
    return f"simulate.{result[0].sim_method}"


_AFTER = {
    "tails.powerlaw_tail_sum": _tail_cutoff,
    "fraccoeff.exact_autocov":
        lambda t, a, k, r: t.add("fraccoeff.exact_autocov.lags", len(r)),
    "fraccoeff.series_inverse":
        lambda t, a, k, r: t.add("fraccoeff.series_inverse.terms", len(r)),
    "toeplitz.durbin_levinson":
        lambda t, a, k, r: t.add("toeplitz.durbin_levinson.order_sum", r.k),
    "simulate.gaussian_paths": _paths,
    "rng.normals": lambda t, a, k, r: t.add("rng.variates", len(r)),
    "cli.write_artifact":
        lambda t, a, k, r: t.add("cli.write_artifact.bytes",
                                 os.path.getsize(a[0] if a else k["path"])),
}
