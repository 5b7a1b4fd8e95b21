"""The workload zoo's declarative scenario registry.

A :class:`ZooScenario` is everything the harness needs to run one modern
I/O scenario as a first-class sweep point: the registered workload
generator, a default cluster shape, full-scale and smoke-scale parameter
sets, the documented parameter space, and the expected I/O signature
(which class of op — read, write, or metadata — should dominate a traced
run).  ``scenario.spec(...)`` lowers all of that onto the existing
:class:`~repro.harness.parallel.RunSpec` contract, so a zoo scenario
composes with everything built on ``run_sweep``: process-pool fan-out,
the run cache, ``--store`` archiving, fault schedules, telemetry, and
``obs diagnose`` over the archived bundles — none of it zoo-specific.

The four built-ins cover the taxonomy's missing modern shapes:
checkpoint/restart through a burst-buffer tier, an ML-training epoch of
shuffled random reads over a sharded dataset, a log-structured
append-heavy service with compaction, and a create/stat/unlink metadata
storm (the no-payload regime where per-event tracing cost dominates —
the paper's §4.1 small-transfer cliff, taken to its limit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import InvalidArgument
from repro.harness.parallel import RunSpec, WORKLOADS
from repro.harness.testbed import TestbedConfig
from repro.store.segments import DEFAULT_CODEC
from repro.units import KiB

__all__ = [
    "ZooScenario",
    "SCENARIOS",
    "ZOO_NPROCS",
    "get",
    "names",
    "register",
    "zoo_testbed",
]

#: Ranks per zoo point.  Matches the chaos harness's shape so zoo rows
#: slot into fault matrices unchanged.
ZOO_NPROCS = 4


def zoo_testbed(seed: int = 0, nprocs: int = ZOO_NPROCS) -> TestbedConfig:
    """The calibrated machine zoo scenarios run on by default."""
    from repro.harness.figures import paper_testbed

    return paper_testbed(seed=seed, nprocs=nprocs)


def _kv(mapping: Mapping[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    return tuple(sorted(mapping.items()))


@dataclass(frozen=True)
class ZooScenario:
    """One registered scenario: workload + shape + parameters + signature.

    ``base_args`` is the full-scale parameter set, ``smoke_args`` the
    overrides applied on top of it for CI-speed runs.  ``param_space``
    documents the tunable knobs (name → one-line description) for
    ``repro zoo describe``.  ``signature`` states the expected I/O
    signature of a faithful run — currently the dominant op class
    (``read``/``write``/``metadata``) plus whether the scenario moves
    payload bytes at all; the matrix checks it against the archived
    trace's actual profile.
    """

    name: str
    title: str
    description: str
    workload: str
    base_args: Tuple[Tuple[str, Any], ...] = ()
    smoke_args: Tuple[Tuple[str, Any], ...] = ()
    param_space: Tuple[Tuple[str, str], ...] = ()
    signature: Tuple[Tuple[str, Any], ...] = ()
    nprocs: int = ZOO_NPROCS
    framework: str = "lanl-trace"

    def args(self, smoke: bool = False, overrides: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
        """The effective workload arguments at the requested scale."""
        merged = dict(self.base_args)
        if smoke:
            merged.update(dict(self.smoke_args))
        if overrides:
            merged.update(overrides)
        return merged

    def signature_dict(self) -> Dict[str, Any]:
        """The declared I/O signature as a plain dict."""
        return dict(self.signature)

    def spec(
        self,
        seed: int = 0,
        smoke: bool = False,
        framework: Optional[str] = None,
        overrides: Optional[Mapping[str, Any]] = None,
        config: Optional[TestbedConfig] = None,
        telemetry: bool = False,
        faults: Optional[Any] = None,
        sim_timeout: Optional[float] = None,
        retries: int = 0,
        store: Optional[str] = None,
        store_codec: str = DEFAULT_CODEC,
    ) -> RunSpec:
        """Lower this scenario to a pickle-safe harness :class:`RunSpec`."""
        return RunSpec.create(
            framework or self.framework,
            self.workload,
            self.args(smoke=smoke, overrides=overrides),
            config=config if config is not None else zoo_testbed(seed, self.nprocs),
            nprocs=self.nprocs,
            seed=seed,
            telemetry=telemetry,
            faults=faults,
            sim_timeout=sim_timeout,
            retries=retries,
            store=store,
            store_codec=store_codec,
        )

    def describe(self) -> Dict[str, Any]:
        """Plain-JSON description for ``repro zoo describe`` and reports."""
        return {
            "name": self.name,
            "title": self.title,
            "description": self.description,
            "workload": self.workload,
            "framework": self.framework,
            "nprocs": self.nprocs,
            "base_args": dict(self.base_args),
            "smoke_args": dict(self.smoke_args),
            "param_space": {k: v for k, v in self.param_space},
            "signature": self.signature_dict(),
        }


#: scenario name -> spec, in registration order.
SCENARIOS: Dict[str, ZooScenario] = {}


def register(scenario: ZooScenario) -> ZooScenario:
    """Add a scenario to the registry; the name must be new and resolvable."""
    if scenario.name in SCENARIOS:
        raise InvalidArgument("zoo scenario %r already registered" % scenario.name)
    if scenario.workload not in WORKLOADS:
        raise InvalidArgument(
            "zoo scenario %r names unregistered workload %r (known: %s)"
            % (scenario.name, scenario.workload, ", ".join(sorted(WORKLOADS)))
        )
    SCENARIOS[scenario.name] = scenario
    return scenario


def get(name: str) -> ZooScenario:
    """Look up a scenario by name; unknown names list the registry."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise InvalidArgument(
            "unknown zoo scenario %r (known: %s)"
            % (name, ", ".join(names()) or "none")
        ) from None


def names() -> List[str]:
    """Registered scenario names, in registration order."""
    return list(SCENARIOS)


# -- built-in scenarios ------------------------------------------------------

register(
    ZooScenario(
        name="ckpt-tiered",
        title="Checkpoint/restart through a burst-buffer tier",
        description=(
            "Each rank writes per-phase checkpoints to node-local scratch, "
            "fsyncs, drains them to the PFS, frees the buffer, and re-reads "
            "the final checkpoint (restart).  Write-dominant, bursty, "
            "barrier-synchronized — the classic HPC defensive-I/O shape."
        ),
        workload="zoo_checkpoint_tiered",
        base_args=_kv({
            "phases": 3,
            "blocks_per_phase": 8,
            "block_size": 128 * KiB,
            "compute_time": 0.02,
            "restart": True,
        }),
        smoke_args=_kv({
            "phases": 2,
            "blocks_per_phase": 2,
            "block_size": 32 * KiB,
            "compute_time": 0.005,
        }),
        param_space=(
            ("phases", "checkpoint epochs (compute + absorb + drain)"),
            ("blocks_per_phase", "pwrite blocks per checkpoint"),
            ("block_size", "bytes per block"),
            ("compute_time", "simulated compute seconds per phase"),
            ("restart", "re-read the last PFS checkpoint at the end"),
        ),
        signature=_kv({"dominant": "write", "payload": True}),
    )
)

register(
    ZooScenario(
        name="ml-epoch",
        title="ML-training epoch: shuffled reads over a sharded dataset",
        description=(
            "Ranks shard a dataset onto the PFS, then issue shuffled "
            "random preads across *all* ranks' shards — the cross-rank "
            "random-read storm a shuffling data loader produces.  "
            "Read-dominant, small random transfers."
        ),
        workload="zoo_ml_epoch",
        base_args=_kv({
            "shards_per_rank": 2,
            "shard_blocks": 8,
            "block_size": 128 * KiB,
            "samples_per_rank": 96,
            "sample_size": 32 * KiB,
            "shuffle_seed": 0,
        }),
        smoke_args=_kv({
            "shards_per_rank": 1,
            "shard_blocks": 2,
            "block_size": 32 * KiB,
            "samples_per_rank": 8,
            "sample_size": 16 * KiB,
        }),
        param_space=(
            ("shards_per_rank", "dataset shards each rank writes"),
            ("shard_blocks", "sequential blocks per shard"),
            ("block_size", "bytes per shard block"),
            ("samples_per_rank", "shuffled preads per rank per epoch"),
            ("sample_size", "bytes per sample read"),
            ("shuffle_seed", "per-epoch shuffle seed (deterministic)"),
        ),
        signature=_kv({"dominant": "read", "payload": True}),
    )
)

register(
    ZooScenario(
        name="log-append",
        title="Log-structured append-heavy service with compaction",
        description=(
            "Per-rank segment logs filled with O_APPEND record writes and "
            "periodic fsync commit points; closed segments are read back, "
            "rewritten compacted, and unlinked.  Append-dominant with a "
            "read-modify-write compaction tail."
        ),
        workload="zoo_log_append",
        base_args=_kv({
            "segments": 6,
            "appends_per_segment": 16,
            "record_size": 32 * KiB,
            "fsync_every": 4,
            "compact_every": 2,
        }),
        smoke_args=_kv({
            "segments": 2,
            "appends_per_segment": 4,
            "record_size": 8 * KiB,
            "fsync_every": 2,
        }),
        param_space=(
            ("segments", "log segments appended per rank"),
            ("appends_per_segment", "O_APPEND records per segment"),
            ("record_size", "bytes per record"),
            ("fsync_every", "records between fsync commit points"),
            ("compact_every", "closed segments per compaction pass"),
        ),
        signature=_kv({"dominant": "write", "payload": True}),
    )
)

register(
    ZooScenario(
        name="md-storm",
        title="Metadata storm: create/stat/unlink over a directory tree",
        description=(
            "Zero-byte create+close, stat, unlink over per-rank subdirs — "
            "no payload at all, so per-event tracing cost is the whole "
            "overhead.  The §4.1 small-transfer cliff taken to its limit."
        ),
        workload="zoo_metadata_storm",
        base_args=_kv({
            "n_files": 64,
            "subdirs": 4,
            "keep_every": 4,
        }),
        smoke_args=_kv({
            "n_files": 8,
            "subdirs": 2,
        }),
        param_space=(
            ("n_files", "files created per rank"),
            ("subdirs", "per-rank subdirectories the files spread over"),
            ("keep_every", "every Nth file survives (the rest are unlinked)"),
        ),
        signature=_kv({"dominant": "metadata", "payload": False}),
    )
)
