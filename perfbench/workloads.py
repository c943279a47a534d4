"""One workload in one fresh process: set up, run timed rounds, check.

``run.py`` starts this module with the BLAS/OpenMP pools pinned to one
thread and ``src`` on the path.  The process sets up the workload's
inputs from the seed, then repeats whole *rounds* of the same
operations until the requested seconds have passed (at least one
round), then checks the last round's outputs and prints one JSON line.

A round is the workload's unit of timed work:

* ``campaign`` -- a fresh :class:`ImpeccableCampaign` driven through
  ``iter_units()`` for two iterations over the seeded library;
* ``screen`` -- ``run_streamed_screen`` over the seeded NDJSON shards
  with a fresh checkpoint directory, then (untimed) one small shard that
  holds a malformed SMILES among well-formed ones;
* ``service`` -- a fresh :class:`CampaignManager` driving eight tenants'
  :class:`SyntheticWork` on a simulated four-node cluster.

Set-up runs from the parent's spawn of this process to the first timed
call, and is timed in pieces like a round (see :class:`Meter`).  With
``--setup-only`` the process stops after set-up; ``run.py`` uses that to
take several set-up samples per run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from repro.chem.library import generate_library
from repro.chem.smiles import SmilesError
from repro.core.campaign import CampaignConfig, ImpeccableCampaign
from repro.core.streaming import run_streamed_screen
from repro.docking.engine import DockingEngine
from repro.docking.lga import LGAConfig
from repro.docking.receptor import make_receptor
from repro.esmacs.protocol import EsmacsConfig
from repro.rct.backends import create_executor
from repro.rct.cluster import SUMMIT_NODE, Cluster
from repro.rct.pilot import Pilot
from repro.rct.task import TaskState
from repro.service.manager import CampaignManager
from repro.service.tenant import Tenant
from repro.service.work import SyntheticWork, campaign_result_digest
from repro.surrogate.infer import InferenceEngine
from repro.surrogate.train import TrainConfig, train_surrogate
from repro.util.checkpoint import load_artifact
from repro.util.shardio import read_shard, shard_path, write_shard

import spans
from probe import SETUP_PROBES, probe, rescale

# ------------------------------------------------------------------ sizes
#: docking effort shared by every workload that docks
LGA = LGAConfig(population=10, generations=5)

CAMPAIGN = dict(
    library_size=32,
    seed_train_size=8,
    iterations=2,
    cg_compounds=4,
    s2_top_compounds=4,
    s2_outliers_per_compound=1,
    docking=LGA,
    surrogate=TrainConfig(epochs=4, batch_size=16, width=6),
    cg=EsmacsConfig(
        replicas=2, equilibration_ns=1.0, production_ns=3.0, steps_per_ns=10,
        n_residues=60, record_every=3, minimize_iterations=15,
    ),
    fg=EsmacsConfig(
        replicas=4, equilibration_ns=1.0, production_ns=4.0, steps_per_ns=10,
        n_residues=60, record_every=4, minimize_iterations=15,
    ),
    compute_enrichment=False,
    failure_policy="drop_and_continue",
)

SCREEN_RECORDS = 768
SCREEN_SHARD = 64
SCREEN_BATCH = 64
SCREEN_TOP = 16
SCREEN_DOCK_SHARD = 8
SCREEN_TRAIN = 12
SCREEN_POSE_SAMPLES = 4
STREAM_STAGE = {"ml1": "stage.ML1-stream", "s1": "stage.S1-stream"}
#: the known-bad shard: well-formed records around one malformed SMILES
#: (an unclosed branch).  It does not depend on the seed.
FAULT_RECORDS = [
    ("FAULT0", "CCO"),
    ("FAULT1", "c1ccccc1O"),
    ("FAULT2", "CC(=O)N"),
    ("FAULT3", "C1CC("),
    ("FAULT4", "CCN(CC)CC"),
    ("FAULT5", "C1CCCCC1"),
    ("FAULT6", "OC(=O)c1ccccc1"),
    ("FAULT7", "CC(C)O"),
]

#: (name, weight, GPUs per task, task seconds): unequal weights and
#: shapes.  t0-t5 ask for one or two GPUs of a six-GPU node; t6 asks for
#: half a node and t7 for a whole one, the shape of a campaign tenant's
#: ML1 and S2 tasks.
TENANTS = [
    ("t0", 4, 1, 60.0),
    ("t1", 3, 2, 45.0),
    ("t2", 2, 1, 90.0),
    ("t3", 2, 2, 30.0),
    ("t4", 1, 2, 120.0),
    ("t5", 1, 1, 75.0),
    ("t6", 2, 3, 60.0),
    ("t7", 1, 6, 90.0),
]
#: the wide-shape tenants.  The scheduler starves them today (see
#: CHANGES.md): each one whose share of node-seconds falls short of its
#: weight's share by more than the tolerance counts all of its tasks as
#: failed operations, and the fair-share check runs over the others.
WIDE = ("t6", "t7")
SERVICE_NODES = 4
SERVICE_TASKS = 1000
#: fair-share tolerance on achieved-vs-target share (absolute), the
#: scheduler's own acceptance figure
SHARE_TOLERANCE = 0.05
#: probes per bracket around a service round
SERVICE_PROBES = 3
#: a probe during which the process's other threads used more CPU than
#: this share of the probe's time measured them as well as the host
BACKGROUND_SHARE = 0.1


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, default=repr).encode()).hexdigest()[:16]


def _dock_key(r) -> list:
    return [
        r.compound_id, repr(r.score), r.n_evals, [repr(v) for v in r.pose_translation],
        [repr(v) for v in r.pose_quaternion], r.conformer,
        [repr(v) for v in r.torsion_angles],
    ]


class Workload:
    """Rounds, checks, and an optional untimed step after each round."""

    def after_round(self) -> int:
        """Untimed work after a round; returns operations that failed."""
        return 0


class Round:
    """What one round hands back: timed wall, operation counts, outputs."""

    def __init__(self, meter, items, attempted, failed, digest, output):
        self.wall = meter.wall
        self.raw_wall = meter.raw
        self.cpu = meter.cpu
        self.busy_probes = meter.busy_probes
        self.items = items
        self.attempted = attempted
        self.failed = failed
        self.digest = digest
        self.output = output


class Meter:
    """Times work in pieces, each rescaled to the reference host speed.

    The host's speed swings up to twofold within a second and stays slow
    for tens of seconds (see README), so a raw wall time mostly measures
    the neighbours.  A probe runs before the first piece and after every
    piece, outside the timed pieces; each piece's wall time is multiplied
    by ``PROBE_REF_S`` over the mean of the probes on either side of it.
    ``wall`` is the rescaled sum, ``raw`` the plain one; ``cpu`` is
    process CPU time in the pieces; ``pieces`` holds each piece's
    rescaled time.

    A probe measures the host only while no other thread of the process
    works: ``busy_probes`` counts the probes during which other threads
    used more than ``BACKGROUND_SHARE`` of the probe's time in CPU.

    With a tracer the pieces run under a root ``round`` span, and each
    piece that ends with a labelled :meth:`mark` becomes a span of that
    name.
    """

    def __init__(self, tracer=None, probes: int = 1) -> None:
        self.tracer = tracer
        self.probes = probes
        self.wall = self.raw = self.cpu = 0.0
        self.pieces: list[float] = []
        self.busy_probes = 0
        self._span = None

    def _probe(self) -> float:
        c0, own0 = time.process_time(), time.thread_time()
        p = probe(self.probes)
        others = (time.process_time() - c0) - (time.thread_time() - own0)
        if others > BACKGROUND_SHARE * p:
            self.busy_probes += 1
        return p

    def start(self, t0: float | None = None, probe_before: float | None = None) -> None:
        """Start the first piece, or resume one begun at ``t0``.

        Set-up resumes the piece its parent began just before it started
        this process, bracketed by the probe the parent ran then; that
        piece's CPU time is the process's own from its start.
        """
        if t0 is None:
            self._last = self._probe()
            if self.tracer is not None:
                self._span = self.tracer.open("round", "round")
            self._t0, self._c0 = time.perf_counter(), time.process_time()
        else:
            self._last, self._t0, self._c0 = probe_before, t0, 0.0

    def mark(self, label: str | None = None) -> None:
        """End the current piece (and probe) and start the next."""
        t1, c1 = time.perf_counter(), time.process_time()
        if label is not None and self.tracer is not None:
            self.tracer.add_span(label, self._t0, t1, self._span[0])
        p = self._probe()
        self.raw += t1 - self._t0
        self.cpu += c1 - self._c0
        self.pieces.append(rescale(t1 - self._t0, self._last, p))
        self.wall += self.pieces[-1]
        self._last = p
        self._t0, self._c0 = time.perf_counter(), time.process_time()

    def stop(self) -> None:
        self.mark()
        if self._span is not None:
            self.tracer.close(self._span)


# ---------------------------------------------------------------- campaign
class CampaignWorkload(Workload):
    def __init__(self, seed: int, work: Path, mark) -> None:
        self.seed = seed
        self.config = CampaignConfig(seed=seed, **CAMPAIGN)
        self.library = generate_library(
            self.config.library_size, seed=seed, name="OZD"
        )
        mark()

    def round(self, tracer=None) -> Round:
        meter = Meter(tracer)
        meter.start()
        campaign = ImpeccableCampaign(self.config, library=self.library)
        for unit in campaign.iter_units():
            unit.complete()
            meter.mark()
        meter.stop()
        result = campaign.result
        items = self.config.seed_train_size + sum(
            s.n_ligands for it in result.iterations for s in it.metrics.stages.values()
        )
        dropped = result.failure_summary.n_dropped
        return Round(meter, items, items, dropped,
                     campaign_result_digest(result), result)

    def check(self, result) -> list[str]:
        cfg = self.config
        errors = []
        engine = DockingEngine(
            make_receptor(cfg.target, cfg.pdb_id, seed=cfg.receptor_seed),
            seed=cfg.seed, config=cfg.docking,
        )
        for it in result.iterations:
            for dock in it.docked:
                again = engine.dock_smiles(dock.smiles, dock.compound_id)
                if _dock_key(again) != _dock_key(dock):
                    errors.append(f"it{it.iteration} S1 {dock.compound_id}: re-dock differs")
            for label, runs, replicas in (
                ("S3-CG", it.cg_results, cfg.cg.replicas),
                ("S3-FG", it.fg_results, cfg.fg.replicas),
            ):
                for r in runs:
                    if len(r.replica_dgs) != replicas:
                        errors.append(f"{label} {r.compound_id}: {len(r.replica_dgs)} replicas")
                    if not math.isfinite(r.binding_free_energy) or not r.sem >= 0:
                        errors.append(f"{label} {r.compound_id}: dG {r.binding_free_energy} sem {r.sem}")
            stages = it.metrics.stages
            selections = sum(len(s.selections) for s in it.s2_by_structure.values())
            n_fg = stages["S3-FG"].n_ligands if "S3-FG" in stages else 0
            if not (n_fg == selections == len(it.fg_results)):
                errors.append(f"it{it.iteration}: S3-FG {n_fg} != S2 selections {selections}")
            if stages["S1"].n_ligands != len(it.docked):
                errors.append(f"it{it.iteration}: S1 count does not match docked")
            if stages["S3-CG"].n_ligands != len(it.cg_results):
                errors.append(f"it{it.iteration}: S3-CG count does not match results")
        return errors


# ------------------------------------------------------------------ screen
class ScreenWorkload(Workload):
    def __init__(self, seed: int, work: Path, mark) -> None:
        self.seed = seed
        self.work = work
        self.receptor = make_receptor("PLPro", "6W9C", seed=2021)
        library = generate_library(SCREEN_TRAIN + SCREEN_RECORDS, seed=seed, name="SCR")
        mark()
        train = library.entries[:SCREEN_TRAIN]
        trainer = DockingEngine(self.receptor, seed=seed, config=LGA)
        scores = [trainer.dock_smiles(e.smiles, e.compound_id).score for e in train]
        mark()
        self.surrogate = train_surrogate(
            [e.smiles for e in train], np.array(scores),
            TrainConfig(epochs=4, batch_size=16, width=6), seed=seed,
        )
        mark()
        records = [(e.compound_id, e.smiles) for e in library.entries[SCREEN_TRAIN:]]
        self.shards = []
        for k, start in enumerate(range(0, len(records), SCREEN_SHARD)):
            path = shard_path(work / "shards", "lib", k)
            write_shard(path, records[start : start + SCREEN_SHARD])
            self.shards.append(path)
        self.fault_shard = shard_path(work / "fault", "fault", 0)
        write_shard(self.fault_shard, FAULT_RECORDS)
        self._round = 0

    def _engine(self) -> DockingEngine:
        return DockingEngine(self.receptor, seed=self.seed, config=LGA)

    def round(self, tracer=None) -> Round:
        ckpt = self.work / f"ckpt-{self._round}"
        shutil.rmtree(self.work / f"ckpt-{self._round - 1}", ignore_errors=True)
        self._round += 1
        engine = self._engine()
        meter = Meter(tracer)
        meter.start()
        # each shard ends a piece; its span is named after the stream stage
        result = run_streamed_screen(
            engine, self.surrogate, self.shards, keep_top=SCREEN_TOP,
            checkpoint_dir=ckpt, dock_shard_size=SCREEN_DOCK_SHARD,
            batch_size=SCREEN_BATCH,
            on_shard=lambda stage, _shard: meter.mark(STREAM_STAGE[stage]),
        )
        meter.stop()
        digest = _sha(
            [[s.compound_id, repr(s.score)] for s in result.selected]
            + [_dock_key(d) for d in result.docked]
        )
        return Round(meter, result.records_streamed,
                     SCREEN_RECORDS + len(FAULT_RECORDS), 0, digest,
                     (result, ckpt))

    def after_round(self) -> int:
        """Stream the known-bad shard; returns how many records failed.

        Today one malformed SMILES aborts the whole screen, so every
        record of the shard fails.  Once bad records are quarantined,
        only the records the screen did not stream count.
        """
        ckpt = self.work / "fault-ckpt"
        shutil.rmtree(ckpt, ignore_errors=True)
        try:
            result = run_streamed_screen(
                self._engine(), self.surrogate, [self.fault_shard], keep_top=2,
                checkpoint_dir=ckpt, dock_shard_size=SCREEN_DOCK_SHARD,
                batch_size=SCREEN_BATCH,
            )
        except SmilesError:
            return len(FAULT_RECORDS)
        return len(FAULT_RECORDS) - result.records_streamed

    def check(self, output) -> list[str]:
        result, ckpt = output
        errors = []
        if result.records_streamed != SCREEN_RECORDS:
            errors.append(f"streamed {result.records_streamed} of {SCREEN_RECORDS}")
        if len(result.selected) != SCREEN_TOP or len(result.docked) != SCREEN_TOP:
            errors.append(f"selected {len(result.selected)}, docked {len(result.docked)}")
        # every ML1 score, read back from the per-shard artifacts
        scored = []
        for path in self.shards:
            rows = load_artifact(ckpt / "ml1" / f"{path.name}.scores.jsonl.gz")
            if [(r["id"], r["smiles"]) for r in rows] != [tuple(r) for r in read_shard(path)]:
                errors.append(f"score artifact of {path.name} does not match its shard")
            scored.extend(rows)
        ranked = sorted(scored, key=lambda r: r["score"], reverse=True)[:SCREEN_TOP]
        if [(r["id"], r["score"]) for r in ranked] != [
            (s.compound_id, s.score) for s in result.selected
        ]:
            errors.append("top-K is not the stable descending sort of the ML1 scores")
        if [d.compound_id for d in result.docked] != [s.compound_id for s in result.selected]:
            errors.append("docked compounds are not the selected ones")
        eager = InferenceEngine(self.surrogate, batch_size=SCREEN_BATCH, engine="eager")
        again = eager.score_smiles(
            [s.smiles for s in result.selected], ids=[s.compound_id for s in result.selected]
        )
        if [a.score for a in again] != [s.score for s in result.selected]:
            errors.append("graph-engine scores differ from the eager interpreter")
        rng = np.random.default_rng(self.seed)
        engine = self._engine()
        for i in sorted(rng.choice(len(result.docked), SCREEN_POSE_SAMPLES, replace=False)):
            dock = result.docked[int(i)]
            if _dock_key(engine.dock_smiles(dock.smiles, dock.compound_id)) != _dock_key(dock):
                errors.append(f"fused pose of {dock.compound_id} differs from dock_smiles")
        return errors


# ----------------------------------------------------------------- service
class ServiceWorkload(Workload):
    def __init__(self, seed: int, work: Path, mark) -> None:
        self.seed = seed

    def _work(self, i: int) -> SyntheticWork:
        _name, _weight, gpus, seconds = TENANTS[i]
        return SyntheticWork(
            n_units=1, tasks_per_unit=SERVICE_TASKS, duration=seconds,
            gpus=gpus, cpus=gpus, seed=self.seed * 1000 + i,
        )

    @staticmethod
    def _manager() -> CampaignManager:
        executor = create_executor("sim", launch_overhead=0.5)
        allocation = Cluster(SERVICE_NODES, spec=SUMMIT_NODE).allocate(SERVICE_NODES, now=0.0)
        return CampaignManager(Pilot(allocation, executor, failure_policy="drop_and_continue"))

    def round(self, tracer=None) -> Round:
        # a round is one piece, so each bracket takes a median of probes
        meter = Meter(tracer, probes=SERVICE_PROBES)
        meter.start()
        manager = self._manager()
        sids = [
            manager.submit(Tenant(name=name, weight=weight), "job", self._work(i))
            for i, (name, weight, _g, _s) in enumerate(TENANTS)
        ]
        manager.run_until_idle()
        meter.stop()
        attempts = len(manager.pilot.records)
        digests = [manager.result_digest(sid) for sid in sids]
        digest = _sha(digests + [manager.pilot.log.digest()])
        shares = self._shares(manager, TENANTS)
        weights = sum(w for _n, w, _g, _s in TENANTS)
        starved = sum(
            SERVICE_TASKS for name, weight, _g, _s in TENANTS
            if name in WIDE and shares[name] < weight / weights - SHARE_TOLERANCE
        )
        return Round(meter, 2 * attempts, attempts, starved, digest, (manager, digests))

    @staticmethod
    def _shares(manager: CampaignManager, tenants) -> dict[str, float]:
        """Each tenant's share of the node-seconds ``tenants`` used while
        every tenant still had queued work: up to the first moment some
        tenant starts its last task."""
        spec = manager.pilot.spec
        records = manager.pilot.records
        last_start: dict[str, float] = {}
        for r in records:
            last_start[r.spec.tenant] = max(last_start.get(r.spec.tenant, 0.0), r.start_time)
        cut = min(last_start.values())
        used = {name: 0.0 for name, *_ in tenants}
        for r in records:
            span = min(r.end_time, cut) - r.start_time
            if span > 0 and r.spec.tenant in used:
                used[r.spec.tenant] += span * max(r.spec.gpus / spec.gpus, r.spec.cpus / spec.cpus)
        total = sum(used.values())
        return {name: u / total for name, u in used.items()}

    def check(self, output) -> list[str]:
        manager, digests = output
        errors = []
        records = manager.pilot.records
        expected = SERVICE_TASKS * len(TENANTS)
        uids = {r.spec.uid for r in records}
        if len(records) != expected or len(uids) != expected:
            errors.append(f"{len(records)} attempts of {len(uids)} tasks, expected {expected} once each")
        if any(r.state is not TaskState.DONE or r.attempt for r in records):
            errors.append("some task did not finish on its first attempt")
        if manager.pilot.failures.n_dropped:
            errors.append(f"{manager.pilot.failures.n_dropped} tasks dropped")
        # GPU slots per node, swept over every start and end
        spec = manager.pilot.spec
        events = []
        for r in records:
            for node in r.node_ids:
                events.append((r.start_time, 1, node, r.spec.gpus))
                events.append((r.end_time, 0, node, -r.spec.gpus))
        in_use: dict[int, int] = {}
        for _t, _order, node, delta in sorted(events):
            in_use[node] = in_use.get(node, 0) + delta
            if in_use[node] > spec.gpus:
                errors.append(f"node {node} over-committed: {in_use[node]} GPUs")
                break
        # fair share among the tenants the scheduler serves today
        narrow = [t for t in TENANTS if t[0] not in WIDE]
        shares = self._shares(manager, narrow)
        weights = sum(w for _n, w, _g, _s in narrow)
        for name, weight, _g, _s in narrow:
            if abs(shares[name] - weight / weights) > SHARE_TOLERANCE:
                errors.append(f"tenant {name}: share {shares[name]:.3f}, weight share {weight / weights:.3f}")
        for i, (name, weight, _g, _s) in enumerate(TENANTS):
            solo = self._manager()
            sid = solo.submit(Tenant(name=name, weight=weight), "job", self._work(i))
            solo.run_until_idle()
            if solo.result_digest(sid) != digests[i]:
                errors.append(f"tenant {name}: shared digest differs from its solo run")
        return errors


WORKLOADS = {
    "campaign": CampaignWorkload,
    "screen": ScreenWorkload,
    "service": ServiceWorkload,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="perf_counter() of the parent just before it started this process")
    parser.add_argument("--probe-before", type=float, required=True,
                        help="the parent's probe time just before it started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv)

    setup = Meter(probes=SETUP_PROBES)
    setup.start(args.spawned_at, args.probe_before)
    setup.mark()  # interpreter start and imports
    workload = WORKLOADS[args.workload](args.seed, args.work_dir, setup.mark)
    setup.stop()
    t_first = time.perf_counter()
    report = {
        "setup_s": setup.wall,
        "raw_setup_s": setup.raw,
        "setup_pieces_s": setup.pieces,
        "busy_probes": setup.busy_probes,
    }
    if args.setup_only:
        print(json.dumps(report))
        return 0

    tracer = spans.Tracer() if args.trace else None
    rounds: list[Round] = []
    traced: list[Round] = []
    last: Round | None = None
    while True:
        if last is not None:
            # only the newest round's outputs are checked; dropping the
            # older ones keeps peak memory independent of the round count
            last.output = None
        gc.collect()
        # a traced run alternates untraced and traced rounds, so that the
        # tracing overhead is the difference of their medians
        if tracer is not None and len(rounds) > len(traced):
            saved = spans.install(tracer)
            try:
                last = workload.round(tracer)
            finally:
                spans.uninstall(saved)
            traced.append(last)
        else:
            last = workload.round()
            rounds.append(last)
        last.failed += workload.after_round()
        elapsed = time.perf_counter() - t_first
        if elapsed >= args.seconds and (tracer is None or traced):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    everything = rounds + traced
    errors = []
    busy_probes = setup.busy_probes + sum(r.busy_probes for r in everything)
    if busy_probes:
        errors.append(f"{busy_probes} host-speed probes ran while another thread worked")
    digests = {r.digest for r in everything}
    if len(digests) != 1:
        errors.append(f"rounds disagree on the result digest: {sorted(digests)}")
    errors += workload.check(last.output)
    report.update(
        rounds=len(everything),
        walls=[r.wall for r in rounds],
        raw_walls=[r.raw_wall for r in rounds],
        cpus=[r.cpu for r in rounds],
        items=rounds[0].items,
        attempted=sum(r.attempted for r in everything),
        failed=sum(r.failed for r in everything),
        digest=last.digest,
        peak_rss_mb=peak_rss_mb,
        errors=errors,
    )
    if tracer is not None:
        report["traced_walls"] = [r.wall for r in traced]
        overhead = float(np.median(report["traced_walls"]) - np.median(report["walls"]))
        report["per_layer"] = spans.per_layer(
            tracer, len(traced),
            {"process.cpu_s": float(np.median(report["cpus"])), "trace.overhead_s": overhead},
        )
        if args.trace_out is not None:
            tracer.dump(args.trace_out)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
