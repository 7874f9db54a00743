"""Run one ``tentqmc`` CLI call with span and counter wrappers installed.

    python3 perfbench/tracer.py SPANS_FILE -- <cli arguments>

The package is imported, the functions in ``WRAPPED`` are replaced in
every ``tentqmc`` module namespace that refers to them (so calls made
through another module's import are seen too), and ``tentqmc.cli.main``
runs on the arguments.  Spans stay in memory and are written to
SPANS_FILE as JSON lines when the call ends: one line per span with
``id``, ``parent``, ``name``, ``start`` and ``end`` (seconds since the
tracer started), then one line of counters.  The exit code is main's.

Kinds of wrapper:

* ``span``   one span per call;
* ``rollup`` one span per (parent span, name) with ``calls``, ``true``
  (calls that returned True) and ``busy`` seconds, for functions called
  hundreds of thousands of times;
* ``count``  a counter only, no clock reads, for the hottest helpers.
"""

from __future__ import annotations

import json
import sys
import time
from functools import wraps

# (module, function, kind).  Everything a CLI subcommand reaches in a named
# layer, minus the arithmetic leaves whose calls run into the millions.
WRAPPED = [
    ("base_arith", "poly_is_irreducible", "rollup"),
    ("base_arith", "laurent_expand", "span"),
    ("walsh", "delta_b", "count"),
    ("walsh", "mu_alpha", "count"),
    ("walsh", "grid_exponents", "count"),
    ("nets", "load_spec_file", "span"),
    ("nets", "matrices_from_poly", "span"),
    ("nets", "net_from_matrices", "span"),
    ("transforms", "sample_shift", "span"),
    ("transforms", "shift_digit_array", "span"),
    ("transforms", "fold_digit_array", "span"),
    ("transforms", "folded_values", "span"),
    ("sobolev", "load_weights_file", "span"),
    ("sobolev", "calibrate_c_walsh", "span"),
    ("sobolev", "kernel_walsh_coefficient_1d", "count"),
    ("sobolev", "bound_B", "span"),
    ("sobolev", "existence_bound_opt", "span"),
    ("sobolev", "wce_squared", "span"),
    ("sobolev", "mean_wce_estimate", "span"),
    ("search", "first_irreducible", "span"),
    ("search", "run_search", "span"),
    ("cli", "main", "span"),
]


def _sizes(name, args, result):
    """Work sizes computed from a call's arguments and result."""
    if name == "nets.net_from_matrices":
        gen = args[0]
        return {"digits": gen.base**gen.m * gen.s * gen.n}
    if name == "sobolev.bound_B":
        spec, params = args[0], args[1]
        # the dual box holds L^s vectors, L = b^(T-1) admissible indices
        return {"vectors": (params.base ** (result.truncation - 1)) ** spec.s,
                "T": result.truncation}
    if name == "sobolev.wce_squared":
        N, s = args[0].shape
        return {"pairs": N * N * s}
    return None


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []
        self.rollups = {}
        self.counts = {}
        self.stack = [None]

    def span(self, name, fn):
        spans, stack, clock, t0 = self.spans, self.stack, time.perf_counter, self.t0

        @wraps(fn)
        def wrapper(*args, **kwargs):
            rec = {"id": len(spans), "parent": stack[-1], "name": name}
            spans.append(rec)
            stack.append(rec["id"])
            rec["start"] = clock() - t0
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = clock() - t0
                stack.pop()
            sizes = _sizes(name, args, result)
            if sizes:
                rec.update(sizes)
            return result

        return wrapper

    def rollup(self, name, fn):
        spans, stack, rollups = self.spans, self.stack, self.rollups
        clock, t0 = time.perf_counter, self.t0

        @wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock() - t0
            result = fn(*args, **kwargs)
            end = clock() - t0
            key = (stack[-1], name)
            rec = rollups.get(key)
            if rec is None:
                rec = {"id": len(spans), "parent": stack[-1], "name": name,
                       "start": start, "calls": 0, "true": 0, "busy": 0.0}
                spans.append(rec)
                rollups[key] = rec
            rec["end"] = end
            rec["calls"] += 1
            rec["true"] += result is True
            rec["busy"] += end - start
            return result

        return wrapper

    def count(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package):
        modules = [m for key, m in sys.modules.items()
                   if key == package or key.startswith(package + ".")]
        for mod_name, fn_name, kind in WRAPPED:
            module = sys.modules[f"{package}.{mod_name}"]
            original = getattr(module, fn_name)
            wrapper = getattr(self, kind)(f"{mod_name}.{fn_name}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def dump(self, path, extra):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
            fh.write(json.dumps({"counters": {**self.counts, **extra}}) + "\n")


def main(argv):
    spans_file, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_FILE -- <cli arguments>")
    import tentqmc.cli
    import tentqmc.sobolev

    cached = tentqmc.sobolev.kernel_walsh_coefficient_1d
    tracer = Tracer()
    tracer.install("tentqmc")
    try:
        code = tentqmc.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        cache = cached.cache_info()
        tracer.dump(spans_file, {"sobolev.walsh_coeff_hits": cache.hits,
                                 "sobolev.walsh_coeff_misses": cache.misses})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
