"""Spans and counters around the program's public functions.

Nothing under ``src/`` is instrumented: :func:`install` replaces the
public functions and methods named in :data:`metrics.PER_LAYER` with
timing wrappers from here, in every module that holds a binding to
them (so ``from x import f`` consumers see the wrapper too).  Each
wrapper keeps, per span name, a call count and the total seconds, in
memory; a process writes them to ``<trace dir>/trace-<role>-<pid>.json``
when it exits.  Pool workers forked from a traced process start empty and
write their own file when the pool shuts them down.

A span does not nest in itself: a recursive or re-entrant call runs
untimed inside the outer one, so counts are of outermost calls.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import json
import multiprocessing.util
import os
import pickle
import sys
import threading
from pathlib import Path
from time import perf_counter

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

#: Definitions timed under their own span; the rest share one.
NAMED_DEFS = ("E2", "E6", "E9", "E10", "E11", "A3")


class Tracer:
    """Span totals and counters of one process."""

    def __init__(self, role: str, directory: Path) -> None:
        self.role = role
        self.directory = directory
        self._lock = threading.Lock()
        self._local = threading.local()
        #: Targets the program no longer has; their metrics read 0.
        self.missing: list[str] = []
        self.reset()

    def reset(self) -> None:
        #: span name -> [calls, total seconds]
        self.spans: dict[str, list] = {}
        self.counters: dict[str, float] = {}

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def _frames(self) -> list:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        return frames

    def wrap(self, name, fn, after=None, prepare=None):
        """A timing wrapper around ``fn``.

        ``name`` is a span name or a function of the call's arguments
        returning one.  ``prepare(args, kwargs)`` may return replaced
        ``(args, kwargs)`` before the call (to materialise an
        iterable argument); ``after(args, kwargs, result)`` records
        counters from a finished call.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name(args) if callable(name) else name
            frames = tracer._frames()
            if span in frames:
                return fn(*args, **kwargs)
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            frames.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                frames.pop()
                with tracer._lock:
                    totals = tracer.spans.setdefault(span, [0, 0.0])
                    totals[0] += 1
                    totals[1] += elapsed
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def patch(self, target: str, span, **hooks) -> None:
        """Wrap ``"module:function"`` at every ``repro`` binding, or
        ``"module:Class.method"`` on its class.  A target the program
        no longer has is recorded in :attr:`missing`, not raised."""
        module_name, _, path = target.partition(":")
        owner_name, _, attr = path.rpartition(".")
        try:
            module = importlib.import_module(module_name)
            if not owner_name:
                original = getattr(module, attr)
                _replace_everywhere(original, self.wrap(span, original,
                                                        **hooks))
                return
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(target)
            return
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(self.wrap(span, raw.__func__, **hooks))
        else:
            wrapped = self.wrap(span, raw, **hooks)
        setattr(owner, attr, wrapped)

    def dump(self) -> None:
        path = self.directory / f"trace-{self.role}-{os.getpid()}.json"
        with self._lock:
            data = {
                "role": self.role,
                "pid": os.getpid(),
                "spans": self.spans,
                "counters": self.counters,
                "missing": self.missing,
            }
        path.write_text(json.dumps(data), encoding="utf-8")

    def _after_fork(self) -> None:
        # A forked pool worker: drop the parent's totals (and a lock
        # another thread may have held at the fork), write its own.
        self._lock = threading.Lock()
        self.reset()
        self._local = threading.local()
        self.role = f"{self.role}-worker"
        multiprocessing.util.Finalize(self, Tracer.dump, args=(self,),
                                      exitpriority=0)


# -- binding replacement -----------------------------------------------------


def _replace_everywhere(original, wrapper) -> None:
    """Point every ``repro`` module binding of ``original`` at ``wrapper``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


# -- the per-layer targets ---------------------------------------------------


def _listify(position: int):
    def prepare(args, kwargs):
        args = list(args)
        args[position] = list(args[position])
        return tuple(args), kwargs

    return prepare


def _record_queries(record) -> int:
    if record.traffic is not None:
        return sum(record.traffic.queries)
    if record.result is not None:
        return record.result.queries
    return 0


def _def_span(args) -> str:
    experiment = args[0].experiment_id
    return f"experiments.{experiment if experiment in NAMED_DEFS else 'other'}"


def install(role: str, directory: Path) -> Tracer:
    """Wrap every traced layer of ``repro`` and return the tracer; its
    totals are written when the process exits."""
    from repro.experiments.registry import all_experiments

    all_experiments()  # import every definition module before patching
    tracer = Tracer(role, directory)
    count = tracer.count

    def after(name, measure):
        return {"after": lambda args, kwargs, result: count(
            name, measure(args, result))}

    probes = {
        "prepare": _listify(3),
        **after("core.probes",
                lambda args, _: sum(map(_record_queries, args[3]))),
    }
    targets = [
        ("repro.experiments.spec:ExperimentSpec.__call__", _def_span, {}),
        ("repro.core.complexity:complexity_specs", "core.spec_emit", {}),
        ("repro.core.traffic:traffic_specs", "core.spec_emit", {}),
        ("repro.core.complexity:assemble_measurement", "core.assemble",
         probes),
        ("repro.core.traffic:assemble_traffic", "core.assemble", probes),
        ("repro.core.lower_bounds:estimate_certificate", "core.certificate",
         {}),
        ("repro.percolation.models:TablePercolation.__init__",
         "percolation.model_build", {}),
        ("repro.percolation.coupled:pair_threshold", "percolation.coupled",
         {}),
        ("repro.percolation.giant:giant_fraction_scan",
         "percolation.giant_scan", {}),
        ("repro.percolation.giant:full_connectivity_scan",
         "percolation.giant_scan", {}),
        ("repro.core.router:Router.route", "routers.route", {}),
        ("repro.kernels.percolation:table_edge_masks", "kernels.draw", {}),
        ("repro.kernels.percolation:site_up_masks", "kernels.draw", {}),
        ("repro.kernels.bfs:batched_connected", "kernels.conditioning", {}),
        ("repro.runtime.chunkexec:execute_specs", "runtime.execute",
         {"prepare": _listify(0),
          **after("runtime.trials", lambda args, _: len(args[0]))}),
        ("repro.runtime.workload:Workload.__post_init__",
         "runtime.workload.build", {}),
        ("repro.runtime.trial:TrialSpec.execute",
         "runtime.chunkexec.fallback", {}),
        ("repro.runtime.runner:ProcessPoolRunner.run", "runtime.pool.run",
         {}),
        ("repro.runtime.recordwire:unpack_records",
         "runtime.recordwire.unpack",
         after("runtime.recordwire.records", lambda _, result: len(result))),
        ("repro.serve.digest:point_digest", "serve.digest", {}),
        ("repro.serve.cache:ResultCache.get", "serve.cache.get", {}),
        ("repro.serve.cache:ResultCache.put", "serve.cache.put", {}),
    ]
    # The routing engines router_kernel_for / pair_router_kernel_for
    # return: every engine class's entry points.
    import repro.kernels.routing as engines

    for cls in vars(engines).values():
        if isinstance(cls, type) and cls.__module__ == engines.__name__:
            for attr in ("route_rows", "route_pairs"):
                if attr in cls.__dict__:
                    targets.append((
                        f"{engines.__name__}:{cls.__name__}.{attr}",
                        "kernels.routing", {},
                    ))
    if role == "coordinator":
        targets += _cluster_targets(tracer, after)
    for target, span, hooks in targets:
        tracer.patch(target, span, **hooks)
    _wrap_chunk_runners(tracer)

    atexit.register(tracer.dump)
    multiprocessing.util.register_after_fork(tracer, Tracer._after_fork)
    return tracer


def _wrap_chunk_runners(tracer: Tracer) -> None:
    """Time the compiled callables ``chunkexec.chunk_runner`` returns."""
    import repro.runtime.chunkexec as chunkexec

    original = getattr(chunkexec, "chunk_runner", None)
    if original is None:
        tracer.missing.append("repro.runtime.chunkexec:chunk_runner")
        return

    def count_trials(args, kwargs, result):
        tracer.count("runtime.chunkexec.kernel_trials", len(args[0]))

    def chunk_runner(workload):
        compiled = original(workload)
        if compiled is None:
            return None
        return tracer.wrap("runtime.chunkexec.kernel", compiled,
                           after=count_trials)

    _replace_everywhere(original, chunk_runner)


def _cluster_targets(tracer: Tracer, after) -> list:
    """Coordinator-side wire and scheduling counters."""
    import repro.runtime.cluster as cluster

    count = tracer.count

    def count_sent(args, kwargs, result):
        count("cluster.frames_sent")
        count("cluster.bytes_sent", len(result))

    def count_payload(args, kwargs, result):
        payloads = args[2]
        count("cluster.payloads", len(payloads))
        count("cluster.payload_bytes",
              sum(len(pickle.dumps(w, protocol=pickle.HIGHEST_PROTOCOL))
                  for w in payloads.values()))

    def count_received(args, kwargs, result):
        count("cluster.bytes_recv", len(args[1]))
        count("cluster.frames_recv", len(result))

    name = cluster.__name__
    return [
        (f"{name}:ClusterRunner.run", "cluster.run", {}),
        (f"{name}:encode_frame", "cluster.encode", {"after": count_sent}),
        (f"{name}:MessageStream.recv", "cluster.recv_wait", {}),
        (f"{name}:FrameReader.feed", "cluster.decode",
         {"after": count_received}),
        (f"{name}:ClusterRunner._ship_chunk", "cluster.ship",
         {"after": count_payload}),
        (f"{name}:ClusterRunner._answer_miss", "cluster.miss",
         after("cluster.misses", lambda *_: 1)),
        (f"{name}:ClusterRunner._requeue", "cluster.requeue",
         after("cluster.requeues", lambda *_: 1)),
    ]


def load_traces(directory: Path) -> dict:
    """Sum the span totals and counters of every process's trace file."""
    spans: dict[str, list] = {}
    counters: dict[str, float] = {}
    missing: set[str] = set()
    for path in sorted(directory.glob("trace-*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        for name, (calls, total) in data["spans"].items():
            totals = spans.setdefault(name, [0, 0.0])
            totals[0] += calls
            totals[1] += total
        for name, value in data["counters"].items():
            counters[name] = counters.get(name, 0) + value
        missing.update(data["missing"])
    return {"spans": spans, "counters": counters, "missing": sorted(missing)}
