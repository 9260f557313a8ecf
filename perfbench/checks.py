"""Output checks applied to every benchmark run.

A run counts as a failed operation, not as a number, when any check
fails: its fingerprint differs from the one pinned for the workload and
seed (or, for an unpinned seed, from the other runs of the same process),
its admission ledger does not conserve requests, or -- on a run with a
trace sink -- the span-derived lifecycle view does not reconcile with the
summary ledger.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from operator import attrgetter
from pathlib import Path
from typing import Optional

from repro.cluster import ClusterResult
from repro.metrics.cluster import ClusterSummary
from repro.metrics.records import FrameRecord
from repro.telemetry import ListTraceSink, analyze_trace

__all__ = [
    "DEFAULT_SEED",
    "HELD_OUT_SEED",
    "PINS_PATH",
    "fingerprint",
    "frame_records",
    "ledger_errors",
    "load_pins",
]

DEFAULT_SEED = 0
HELD_OUT_SEED = 271828

#: Fingerprints pinned per workload for the default seed and one held-out
#: seed nobody tunes against.  ``pin.py`` regenerates them.
PINS_PATH = Path(__file__).with_name("fingerprints.json")

_RECORD_FIELDS = attrgetter(*(f.name for f in dataclasses.fields(FrameRecord)))


def frame_records(result: ClusterResult) -> list[FrameRecord]:
    """Every frame record of the run, server by server, session by session."""
    return [
        record
        for server in result.records_by_server
        for records in server.values()
        for record in records
    ]


def fingerprint(summary: ClusterSummary, result: ClusterResult) -> str:
    """SHA-256 over the summary ledger and every session's frame records."""
    digest = hashlib.sha256(
        json.dumps(summary.to_dict(), sort_keys=True).encode()
    )
    for index, server in enumerate(result.records_by_server):
        for session_id, records in server.items():
            digest.update(f"{index}/{session_id}:".encode())
            digest.update(repr([_RECORD_FIELDS(r) for r in records]).encode())
    return digest.hexdigest()


def ledger_errors(
    summary: ClusterSummary, sink: Optional[ListTraceSink] = None
) -> list[str]:
    """Conservation and (with a sink) trace reconciliation failures."""
    errors = []
    accounted = summary.admitted + summary.rejected + summary.dropped + summary.abandoned
    if summary.arrivals != accounted:
        errors.append(
            f"ledger: arrivals {summary.arrivals} != admitted + rejected + "
            f"dropped + abandoned {accounted}"
        )
    if sink is not None:
        errors.extend(analyze_trace(sink).reconcile(summary))
    return errors


def load_pins() -> dict[str, dict[str, str]]:
    """``{workload: {seed: fingerprint}}``."""
    return json.loads(PINS_PATH.read_text())
