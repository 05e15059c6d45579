"""Spans around the calls into each envq module, recorded from outside.

``Tracer.install`` swaps every public function named in ``LAYERS`` for
a wrapper in each envq module namespace that holds it, and wraps
``QuantumState.__init__`` in place; ``uninstall`` puts the originals
back.  No file under ``src/envq`` is touched.  Spans are recorded only
while a task runs (``tracer.task`` is set), so the reference checks
stay out of the per-layer numbers.

A span is (name, start, end, parent span, task id).  Each thread keeps
its own span stack.  A call made on a worker thread with no open span of
its own (``cli.cmd_sweep`` maps its points over a thread pool) takes as
parent the innermost open span of the thread that installed the tracer,
so its time is not also counted as the caller's self time.  Self time is
a span's duration minus the time covered by the union of its direct
children, which may overlap when they ran on different threads; busy
time counts only the outermost span of each name, so recursion is not
counted twice.
"""

import functools
import inspect
import json
import math
import sys
import threading
import time
from collections import defaultdict

LAYERS = {
    "dynamics": ("liouvillian", "dual_liouvillian", "propagate", "propagate_series",
                 "stationary_state"),
    "quantumness": ("q_series", "q_functional_series", "degree_of_quantumness"),
    "models": ("oscillator_q_numeric", "oscillator_q_extrapolated", "volterra_solve"),
    "qcore": ("matrix_exponential", "hermitian_eigensystem", "QuantumState"),
    "stochastic": ("sample_noise_path", "stochastic_q", "stochastic_average_state",
                   "collisional_q"),
    "microscopic": ("quantumness_via_dual", "quantumness_direct"),
    "config": ("load_config", "build_model"),
    "cli": ("run", "cmd_qt", "cmd_dq", "cmd_sweep"),
}
COLLISIONAL_MODES = ("series", "monte-carlo")
SERIES_STEP_PER_MEAN = 0.01  # envq's default series step is mean waiting time / 100


def span_names():
    """Every span name the tracer can emit, in a stable order."""
    names = []
    for module, functions in LAYERS.items():
        for fn in functions:
            if (module, fn) == ("stochastic", "collisional_q"):
                names += [f"stochastic.collisional_q.{mode}" for mode in COLLISIONAL_MODES]
            else:
                names.append(f"{module}.{fn}")
    return names


COUNT_NAMES = ("dynamics.propagate_series.points", "stochastic.sample_noise_path.segments",
               "stochastic.collisional_q.series.grid_points")


def _series_grid_points(args):
    """Renewal grid size of a series call, computed from its inputs."""
    times = [float(t) for t in args["times"]]
    waiting = args["model"].waiting
    if waiting.family == "deterministic":
        return len(times)
    step = args.get("step") or SERIES_STEP_PER_MEAN * waiting.mean()
    return max(2, math.ceil(max(times, default=0.0) / step)) + 1


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent index, task id]
        self.counts = defaultdict(int)
        self.task = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._owner_stack = None
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, namer=None, counter=None):
        signature = inspect.signature(fn) if (counter or namer) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.task is None:
                return fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs).arguments if signature else None
            span = [namer(bound) if namer else name, time.perf_counter(), None,
                    None, self.task]
            stack = self._stack()
            if stack:
                span[3] = stack[-1]
            elif stack is not self._owner_stack and self._owner_stack:
                span[3] = self._owner_stack[-1]
            with self._lock:
                stack.append(len(self.spans))
                self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                key, amount = counter(span[0], bound, result)
                if key is not None:
                    with self._lock:
                        self.counts[key] += amount
            return result

        return wrapper

    def install(self, envq):
        self._owner_stack = self._stack()
        modules = [m for name, m in sys.modules.items()
                   if name == "envq" or name.startswith("envq.")]
        for module_name, functions in LAYERS.items():
            module = getattr(envq, module_name)
            for fn_name in functions:
                name = f"{module_name}.{fn_name}"
                original = getattr(module, fn_name)
                if inspect.isclass(original):
                    init = original.__init__
                    original.__init__ = self._wrap(name, init)
                    self._restore.append((original, "__init__", init))
                    continue
                namer = counter = None
                if name == "stochastic.collisional_q":
                    def namer(args):
                        return "stochastic.collisional_q." + args.get("mode", "series")
                    counter = _count_collisional
                elif name == "dynamics.propagate_series":
                    counter = _count_points
                elif name == "stochastic.sample_noise_path":
                    counter = _count_segments
                wrapper = self._wrap(name, original, namer, counter)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- derived metrics ----------------------------------------------------

    def layer_metrics(self):
        """calls, busy_s and self_s per span name, plus the work counts."""
        children = defaultdict(list)
        for name, start, end, parent, task in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        child_time = {idx: _covered(intervals) for idx, intervals in children.items()}
        metrics = {}
        for name in span_names():
            metrics[f"{name}.calls"] = 0
            metrics[f"{name}.busy_s"] = 0.0
            metrics[f"{name}.self_s"] = 0.0
        for idx, (name, start, end, parent, task) in enumerate(self.spans):
            duration = end - start
            metrics[f"{name}.calls"] += 1
            metrics[f"{name}.self_s"] += duration - child_time.get(idx, 0.0)
            if not self._has_ancestor(parent, name):
                metrics[f"{name}.busy_s"] += duration
        for key in COUNT_NAMES:
            metrics[key] = self.counts.get(key, 0)
        return metrics

    def _has_ancestor(self, parent, name):
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path, header):
        """One JSON object per line: a header, then one span per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(header, fields=["name", "start", "end", "parent", "task"]))
                     + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _count_points(name, args, result):
    return "dynamics.propagate_series.points", len(args["times"])


def _count_segments(name, args, result):
    return "stochastic.sample_noise_path.segments", len(result.durations)


def _count_collisional(name, args, result):
    if name != "stochastic.collisional_q.series":
        return None, 0
    return "stochastic.collisional_q.series.grid_points", _series_grid_points(args)
