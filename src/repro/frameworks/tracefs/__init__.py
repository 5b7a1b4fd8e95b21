"""Tracefs (paper §2.2, §4.2; reference [1]).

A stackable tracing file system: mounts over a lower file system (ext3,
NFS, ...) and records VFS operations — the layer that also sees what
ptrace-style tracers miss (memory-mapped I/O).  Features reproduced:

* declarative granularity specs (:mod:`.granularity`) — Table 2's
  "5 (V. Advanced)" control;
* binary output with buffering, compression, checksums
  (:mod:`repro.trace.binary_format`);
* CBC field anonymization (:class:`repro.trace.anonymize.FieldSelectiveAnonymizer`)
  — Table 2's "4 (Advanced)";
* aggregation via event counters (:mod:`.counters`);
* kernel-module ergonomics: root required, and *no* out-of-the-box
  parallel file system support (mounting over the PFS raises
  :class:`~repro.errors.NotTraceable` unless forced).
"""

from repro.frameworks.tracefs.framework import Tracefs, TracefsConfig, TracefsLayer
from repro.frameworks.tracefs.granularity import GranularitySpec
from repro.frameworks.tracefs.counters import EventCounters

__all__ = [
    "Tracefs",
    "TracefsConfig",
    "TracefsLayer",
    "GranularitySpec",
    "EventCounters",
]
