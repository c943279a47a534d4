"""In-memory span tracer that wraps the program's public entry points.

The benchmark traces from its own files: :func:`install` replaces each
entry point named in :data:`HOOKS` with a wrapper that records a span
(layer, name, start, end, thread, parent) and restores the originals on
:func:`uninstall`.  Only the outermost call into a layer on a thread
gets a span, so a layer that calls itself is counted once.  A span
opened on a helper thread (the ``PrefetchLoader`` IO thread) with no
open span of its own takes the main thread's innermost open span as
parent.

Spans stay in memory while the workload runs; :meth:`Tracer.dump`
writes them out at the end and :func:`per_layer` derives every
per-layer metric from them.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import threading
import time
from array import array
from pathlib import Path

#: (module, attribute path, layer) for every wrapped entry point.  The
#: same function imported under several module names is wrapped in each,
#: because callers look it up in their own module's namespace.
HOOKS = [
    ("repro.core.campaign", "StageUnit.complete", "stage"),
    ("repro.surrogate.featurize", "featurize_smiles", "surrogate.featurize"),
    ("repro.surrogate.infer", "featurize_smiles", "surrogate.featurize"),
    ("repro.chem.depict", "layout_2d", "chem.depict.layout_2d"),
    ("repro.nn.inference", "CompiledModel.__call__", "nn.forward"),
    ("repro.core.campaign", "train_surrogate", "surrogate.train"),
    ("repro.docking.engine", "DockingEngine.dock_smiles", "docking.dock_smiles"),
    ("repro.docking.engine", "DockingEngine.dock_entries", "docking.dock_entries"),
    ("repro.esmacs.protocol", "EsmacsRunner.run", "esmacs.run"),
    ("repro.md.forcefield", "ForceField.compute", "md.forcefield"),
    ("repro.core.campaign", "run_s2", "ddmd.run_s2"),
    ("repro.surrogate.infer", "save_artifact", "util.checkpoint.save_artifact"),
    ("repro.docking.batch", "save_artifact", "util.checkpoint.save_artifact"),
    ("repro.util.checkpoint", "CheckpointManifest.mark_done", "util.checkpoint.mark_done"),
    ("repro.nn.dataloader", "read_shard", "nn.dataloader.read_shard"),
    ("repro.service.sched", "StrideScheduler.pick", "service.sched.pick"),
    ("repro.rct.sched", "PendingQueue.try_start_one", "rct.sched.try_start_one"),
    ("repro.rct.pilot", "Pilot.start_task", "rct.pilot.start_task"),
    ("repro.rct.pilot", "Pilot.wait_one", "rct.pilot.wait_one"),
]

#: the stage names a campaign yields, in order, and the streamed ones
CAMPAIGN_STAGES = ("seed", "ML1", "S1", "S3-CG", "S2", "S3-FG", "retrain")
STREAM_STAGES = ("ML1-stream", "S1-stream")

#: per-span quantities ``(n, m)`` a layer's result carries: the work done
#: (evaluations, MD steps, bytes written, grants) and the ligands docked
QUANTITY = {
    "docking.dock_smiles": lambda r: (r.n_evals, 1),
    "docking.dock_entries": lambda r: (sum(x.n_evals for x in r), len(r)),
    "esmacs.run": lambda r: (r.md_steps, 0),
    "util.checkpoint.save_artifact": lambda r: (Path(r).stat().st_size, 0),
    "rct.sched.try_start_one": lambda r: (int(r is not None), 0),
}


class Tracer:
    """Spans in columns (``array``), one row per closed span.

    A row is ``id, parent, name, t0, t1, thread, n, m``; ``name`` and
    ``thread`` index :attr:`names` and :attr:`threads`.  ``n`` and ``m``
    are per-span quantities the layer's result carries (evaluations and
    ligands docked, MD steps, bytes written, grants); 0 where none.
    Columns keep a traced service run's hundreds of thousands of spans
    in tens of MB.
    """

    FIELDS = ("id", "parent", "name", "t0", "t1", "thread", "n", "m")

    def __init__(self) -> None:
        self.cols = {
            field: array(code) for field, code in zip(self.FIELDS, "qqiddiqq")
        }
        self.names: list[str] = []
        self.threads: list[str] = []
        self._name_ix: dict[str, int] = {}
        self._thread_ix: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[list] = []

    def _stack(self) -> list[list]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str, name: str) -> list | None:
        """Start a span, or return ``None`` when ``layer`` is already open."""
        stack = self._stack()
        for span in stack:
            if span[2] == layer:
                return None
        if stack:
            parent = stack[-1][0]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1][0]
        else:
            parent = 0
        span = [next(self._ids), parent, layer, name, time.perf_counter(), 0.0, 0, 0]
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack().pop()
        self._append(span[0], span[1], span[3], span[4], span[5], span[6], span[7])

    def add_span(self, name: str, t0: float, t1: float, parent: int) -> None:
        """Record a span whose bounds were taken elsewhere (stream hooks)."""
        self._append(next(self._ids), parent, name, t0, t1, 0, 0)

    @staticmethod
    def _intern(table: list[str], index: dict[str, int], key: str) -> int:
        ix = index.get(key)
        if ix is None:
            ix = index[key] = len(table)
            table.append(key)
        return ix

    def _append(self, sid, parent, name, t0, t1, n, m) -> None:
        thread = threading.current_thread().name
        with self._lock:
            row = (
                sid, parent, self._intern(self.names, self._name_ix, name), t0, t1,
                self._intern(self.threads, self._thread_ix, thread), n, m,
            )
            for field, value in zip(self.FIELDS, row):
                self.cols[field].append(value)

    def rows(self):
        """Every span as ``(id, parent, name, t0, t1, thread, n, m)``."""
        names = self.names
        for row in zip(*(self.cols[f] for f in self.FIELDS)):
            yield (row[0], row[1], names[row[2]], *row[3:])

    def dump(self, path: Path) -> None:
        """Write every span as one CSV row (gzip)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(",".join(self.FIELDS) + "\n")
            for sid, parent, name, t0, t1, thread, n, m in self.rows():
                fh.write(f"{sid},{parent},{name},{t0!r},{t1!r},{self.threads[thread]},{n},{m}\n")


def _wrap(tracer: Tracer, layer: str, fn):
    quantity = QUANTITY.get(layer)

    def wrapper(*args, **kwargs):
        name = f"stage.{args[0].stage}" if layer == "stage" else layer
        span = tracer.open(layer, name)
        if span is None:
            return fn(*args, **kwargs)
        try:
            result = fn(*args, **kwargs)
            if quantity is not None:
                span[6], span[7] = quantity(result)
        finally:
            tracer.close(span)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every hook; returns what :func:`uninstall` needs."""
    saved = []
    for module, path, layer in HOOKS:
        owner, attr = _resolve(module, path)
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(tracer, layer, original))
    return saved


def uninstall(saved: list[tuple]) -> None:
    """Restore the originals :func:`install` replaced."""
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def _unattributed(tracer: Tracer) -> float:
    """Campaign stage time that no traced layer below the stage covers.

    Each stage span's duration minus the union of its same-thread
    children's intervals, summed over stage spans.
    """
    stage_names = {f"stage.{s}" for s in CAMPAIGN_STAGES}
    stages = {
        sid: (t0, t1, thread)
        for sid, _p, name, t0, t1, thread, _n, _m in tracer.rows()
        if name in stage_names
    }
    children: dict[int, list[tuple[float, float]]] = {sid: [] for sid in stages}
    for _sid, parent, _name, t0, t1, thread, _n, _m in tracer.rows():
        if parent in stages and stages[parent][2] == thread:
            children[parent].append((t0, t1))
    total = 0.0
    for sid, (t0, t1, _thread) in stages.items():
        covered, end = 0.0, t0
        for c0, c1 in sorted(children[sid]):
            c0 = max(c0, end)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        total += (t1 - t0) - covered
    return total


def per_layer(tracer: Tracer, rounds: int, extra: dict[str, float]) -> dict:
    """The per-layer metrics BENCHMARK.json names, each a mean per
    traced round.

    Every layer has ``<layer>.calls`` and ``<layer>.busy_s`` (a stage's
    layer is ``stage.<name>``); a layer that did not run reads 0.
    ``extra`` supplies the reference figures measured outside the spans
    (``process.cpu_s``, ``trace.overhead_s``).
    """
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    qty: dict[str, int] = {}
    ligands = 0
    for _sid, _parent, name, t0, t1, _thread, n, m in tracer.rows():
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + (t1 - t0)
        qty[name] = qty.get(name, 0) + n
        ligands += m
    per = max(rounds, 1)
    layers = {layer for _module, _path, layer in HOOKS if layer != "stage"}
    layers |= {f"stage.{s}" for s in CAMPAIGN_STAGES + STREAM_STAGES}
    value: dict[str, float] = {}
    for layer in layers:
        value[f"{layer}.calls"] = calls.get(layer, 0) / per
        value[f"{layer}.busy_s"] = busy.get(layer, 0.0) / per
    value["surrogate.featurize.mols"] = value["surrogate.featurize.calls"]
    value["campaign.unattributed_s"] = _unattributed(tracer) / per
    evals = qty.get("docking.dock_smiles", 0) + qty.get("docking.dock_entries", 0)
    dock_busy = busy.get("docking.dock_smiles", 0.0) + busy.get("docking.dock_entries", 0.0)
    value["docking.ligands"] = ligands / per
    value["docking.evals"] = evals / per
    value["docking.evals_per_s"] = evals / dock_busy if dock_busy else 0.0
    md_steps = qty.get("esmacs.run", 0)
    esmacs_busy = busy.get("esmacs.run", 0.0)
    value["esmacs.md_steps"] = md_steps / per
    value["md.steps_per_s"] = md_steps / esmacs_busy if esmacs_busy else 0.0
    value["util.checkpoint.save_artifact.bytes"] = qty.get("util.checkpoint.save_artifact", 0) / per
    granted = qty.get("rct.sched.try_start_one", 0)
    value["rct.sched.try_start_one.granted"] = granted / per
    # grants per placement try: each try is one start_task call
    tries = calls.get("rct.pilot.start_task", 0)
    value["rct.sched.try_start_one.useful_ratio"] = granted / tries if tries else 0.0
    value.update(extra)
    wanted = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    return {
        m["name"]: {"value": value[m["name"]], "unit": m["unit"]} for m in wanted["per_layer"]
    }
