"""In-memory span recorder for the benchmark's traced runs.

A span is (id, parent, name, start, end, attrs). Spans are recorded by
wrappers that replace public fluidmimo functions at the module attributes
through which the library (or the benchmark) calls them; no library file
changes. Span ids are (pid, counter) pairs, so spans recorded in sweep
worker processes stay unique when they are shipped back to the parent.

Sweep workers: the harness hands `harness._trial_task` to a process pool.
While tracing, that attribute is `traced_trial_task`, which records the
task as a `harness.trial` span and returns the records as a `SpanChunk`,
a list that also carries the spans the worker recorded. `TracingPool`,
installed as `harness.ProcessPoolExecutor`, takes those spans back into
the parent's tracer under the span that was open when the pool ran
(`harness.run_sweep`). A forked worker inherits the wrappers; a worker
started by spawn or forkserver installs its own.
"""

import hashlib
import os
import time
from concurrent.futures import ProcessPoolExecutor

_ACTIVE = None  # the tracer installed in this process, if any


def _digest(array):
    return hashlib.sha1(array.tobytes()).hexdigest()


def _solve_attrs(args, kwargs, result):
    return {"key": _digest(args[0].entries), "iterations": result.solver_stats.iterations}


def _ipm_attrs(args, kwargs, result):
    return {"iterations": result.stats.iterations}


def _generate_attrs(args, kwargs, result):
    return {"key": repr(args)}


def _search_attrs(args, kwargs, result):
    return {"evaluations": result.evaluations, "sweeps": result.iterations}


def _write_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _targets():
    """(module, attribute, span name, attrs function) for every wrapped call."""
    from fluidmimo import cli, harness, relaxation, selection

    return [
        (cli, "main", "cli.main", None),
        (cli, "run_sweep", "harness.run_sweep", None),
        (cli, "write_records_csv", "reporting.write_records_csv", _write_attrs),
        (cli, "write_summary_csv", "reporting.write_summary_csv", _write_attrs),
        (harness, "generate_channel", "channel.generate_channel", _generate_attrs),
        (harness, "exhaustive_search", "selection.exhaustive_search", _search_attrs),
        (harness, "jcr_res", "selection.jcr_res", _search_attrs),
        (harness, "jcr_ao", "selection.jcr_ao", _search_attrs),
        (harness, "random_selection", "selection.random_selection", None),
        (harness, "conventional_mimo", "selection.conventional_mimo", None),
        (selection, "jcr_res", "selection.jcr_res", _search_attrs),
        (selection, "jcr_ao", "selection.jcr_ao", _search_attrs),
        (selection, "solve_jcr", "relaxation.solve_jcr", _solve_attrs),
        (selection, "capacity", "capacity.capacity", None),
        (relaxation, "solve_epigraph_lp", "ipm.solve_epigraph_lp", _ipm_attrs),
    ]


class SpanChunk(list):
    """Trial records from a worker, with the spans recorded while making them."""

    spans = ()


class Tracer:
    """Records spans around wrapped calls; `install` wraps, `uninstall` restores."""

    def __init__(self):
        self.spans = []
        self.owner_pid = os.getpid()
        self._stack = []
        self._counter = 0
        self._patches = []
        self._trial_task = None

    def call(self, name, fn, args, kwargs, attrs=None):
        span_id = (os.getpid(), self._counter)
        self._counter += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        span = {"id": span_id, "parent": parent, "name": name, "attrs": {}}
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span["attrs"]["error"] = type(exc).__name__
            raise
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(span)
        if attrs is not None:
            span["attrs"].update(attrs(args, kwargs, result))
        return result

    def _wrap(self, module, attr, name, attrs):
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            return self.call(name, original, args, kwargs, attrs)

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def install(self):
        global _ACTIVE
        from fluidmimo import harness

        for module, attr, name, attrs in _targets():
            self._wrap(module, attr, name, attrs)
        self._trial_task = harness._trial_task
        self._patches.append((harness, "_trial_task", harness._trial_task))
        self._patches.append((harness, "ProcessPoolExecutor", harness.ProcessPoolExecutor))
        harness._trial_task = traced_trial_task
        harness.ProcessPoolExecutor = TracingPool
        _ACTIVE = self

    def uninstall(self):
        global _ACTIVE
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []
        _ACTIVE = None

    def adopt(self, spans):
        """Take spans shipped from a worker; their roots become children of
        the span open here."""
        parent = self._stack[-1] if self._stack else None
        for span in spans:
            if span["parent"] is None:
                span["parent"] = parent
            self.spans.append(span)


def traced_trial_task(args):
    """Worker-side stand-in for `harness._trial_task` while tracing."""
    tracer = _ACTIVE
    if tracer is None:  # a worker started without the parent's memory
        tracer = Tracer()
        tracer.install()
        tracer.owner_pid = None
    if os.getpid() == tracer.owner_pid:  # serial sweep: spans stay here
        return tracer.call("harness.trial", tracer._trial_task, (args,), {})
    tracer._stack = []
    mark = len(tracer.spans)
    chunk = SpanChunk(tracer.call("harness.trial", tracer._trial_task, (args,), {}))
    chunk.spans = tracer.spans[mark:]
    del tracer.spans[mark:]
    return chunk


class TracingPool(ProcessPoolExecutor):
    """Process pool that hands the spans returned by workers to the tracer."""

    def map(self, fn, *iterables, **kwargs):
        for chunk in super().map(fn, *iterables, **kwargs):
            _ACTIVE.adopt(chunk.spans)
            yield chunk
