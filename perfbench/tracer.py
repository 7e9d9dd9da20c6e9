"""An external tracer: spans around calls into nil's public functions.

`Tracer.install` replaces each traced function at every place it is bound
(its defining module, every `from .x import f` site, and the package
namespace), so a call is traced whichever name it goes through.  Spans are
kept in memory with parent links and written out by `write`; `summary`
turns them into per-function calls, self time and errors.

Self time of a span is its duration minus the time covered by its direct
child spans.  Calls are single-threaded, so child spans nest and never
overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# (module, function) pairs, named by the module that defines them.
TRACED = (
    ("simplex", "maximize_total"),
    ("closure", "lp_max_weight"),
    ("closure", "is_power_integrally_closed"),
    ("closure", "closure_power_generators"),
    ("closure", "normality_scan"),
    ("ideal", "power"),
    ("ideal", "contains_power"),
    ("wgraph", "chordless_cycles"),
    ("classifier", "find_f1_f2_f3"),
    ("classifier", "find_f4"),
    ("classifier", "find_f5"),
    ("classifier", "classify"),
    ("classifier", "verify_certificate"),
    ("classifier", "cross_validate"),
    ("cli", "main"),
    ("cli", "parse_graph_file"),
    ("cli", "_emit"),
)

# Spans whose `k` argument the LP hit ratio compares LP optima against.
SCAN_SPANS = ("closure.is_power_integrally_closed", "closure.closure_power_generators")
LP_SPAN = "closure.lp_max_weight"


def _scan_k(args, kwargs):
    return kwargs["k"] if "k" in kwargs else args[1]


class Tracer:
    """Records one span per traced call: name, start, end, parent, error.

    Spans live in flat arrays (a traced xval run makes hundreds of
    thousands).  `clock` is injectable so the self-time arithmetic can be
    tested with a fake clock.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []  # span name by name id
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")  # index of the parent span, or -1
        self.errors = bytearray()
        self.counts = {}  # extra counters: generators, cycles, configs, LP hits
        self._stack = []  # indices of open spans
        self._scan_ks = []  # k of each open scan span, innermost last
        self._patched = []  # (namespace, attribute, original, wrapper)

    def __len__(self):
        return len(self.starts)

    def _count(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name, fn):
        """`fn` with a span named `name` around every call."""
        is_scan = name in SCAN_SPANS
        name_id = len(self.names)
        self.names.append(name)
        name_ids, starts, ends, parents, errors = (
            self.name_ids, self.starts, self.ends, self.parents, self.errors)
        stack, scan_ks, clock = self._stack, self._scan_ks, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            errors.append(0)
            stack.append(index)
            if is_scan:
                scan_ks.append(_scan_k(args, kwargs))
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[index] = 1
                raise
            finally:
                ends[index] = clock()
                stack.pop()
                if is_scan:
                    scan_ks.pop()
            self._observe(name, result)
            return result

        return traced

    def _observe(self, name, result):
        if name == "ideal.power":
            self._count("ideal.power.gens", len(result.gens))
        elif name == "wgraph.chordless_cycles":
            self._count("wgraph.chordless_cycles.cycles", len(result))
        elif name.startswith("classifier.find_"):
            self._count("classifier.configs", len(result))
        elif name == LP_SPAN and self._scan_ks:
            self._count("closure.lp_scan_solves", 1)
            if result.optimum >= self._scan_ks[-1]:
                self._count("closure.lp_scan_hits", 1)

    def install(self):
        """Wrap every function in TRACED wherever nil binds it.

        A function that no longer exists is skipped; it then makes no
        calls, and run.py reports it as missing where it is expected.
        """
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "nil" or key.startswith("nil."))
        ]
        for module_name, attr in TRACED:
            original = getattr(sys.modules.get(f"nil.{module_name}"), attr, None)
            if original is None:
                continue
            wrapper = self.wrap(f"{module_name}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original, wrapper))
        self.resume()

    def pause(self):
        """Restore the untraced functions, e.g. while outputs are checked."""
        for module, key, original, _ in self._patched:
            setattr(module, key, original)

    def resume(self):
        for module, key, _, wrapper in self._patched:
            setattr(module, key, wrapper)

    def summary(self):
        """{name: {"calls", "self_s", "errors"}} for every name that ran."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        covered = [0.0] * len(durations)
        for duration, parent in zip(durations, self.parents):
            if parent >= 0:
                covered[parent] += duration
        out = {}
        for name_id, duration, child, error in zip(
                self.name_ids, durations, covered, self.errors):
            entry = out.setdefault(
                self.names[name_id], {"calls": 0, "self_s": 0.0, "errors": 0})
            entry["calls"] += 1
            entry["self_s"] += duration - child
            entry["errors"] += error
        return out

    def write(self, path):
        """Write the spans as JSON lines: [name, start, end, parent, error]."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in zip(self.name_ids, self.starts, self.ends, self.parents, self.errors):
                fh.write(json.dumps([self.names[span[0]], *span[1:]]) + "\n")


def span_cost_s():
    """Seconds one span adds to a call, measured on a no-op function."""
    reps = 20000

    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap("noop", noop)
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(reps):
            noop()
        t1 = time.perf_counter()
        for _ in range(reps):
            traced()
        t2 = time.perf_counter()
        samples.append(((t2 - t1) - (t1 - t0)) / reps)
    samples.sort()
    return samples[len(samples) // 2]
