"""Golden learner pins: MAMUT's learning reproduces the recorded bytes.

Both stepping engines drive the same :class:`~repro.core.agent.QLearningAgent`
code, so the scalar==batch equivalence tests cannot see a change in the
learner itself (Eq. 3, the phase test, action selection, the Q update or
Algorithm 1).  These SHA-256 digests can.  They were recorded before the
activation path moved onto dense state indices and pin:

* the full agent snapshots (Q-values, counters and transition counts, in
  the order the snapshot lists them, which for each (state, action) pair's
  next states is their insertion order) that
  :func:`~repro.manager.pretrain.pretrain_mamut` learns for each resolution
  class at two seeds;
* every controller's activation history (frame, agent, state, action index,
  phase, reward) on a scalar run of a pretrained 4-server cluster that walks
  all three learning phases;
* that run's :class:`~repro.metrics.cluster.ClusterSummary`.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.phases import Phase
from repro.manager.pretrain import pretrain_mamut
from repro.video.sequence import ResolutionClass

#: (resolution class, seed) -> sha256 of the 2000-frame pretrain snapshot.
SNAPSHOT_GOLDEN = {
    (ResolutionClass.HR, 0): (
        "52009d27ab987f662caa14da0290cc7f7e6ea6f6c0f52c232ed3cd8f56af7070"
    ),
    (ResolutionClass.LR, 0): (
        "b720e81d6786aa782beccef1afe0acbaaa06e78def2c46347e45cab0887e268c"
    ),
    (ResolutionClass.HR, 271828): (
        "03caf1252309496d603b5cce1f31c8b9e8b0040884e318423f09bf58172193f1"
    ),
    (ResolutionClass.LR, 271828): (
        "7d6b647e38075ee995c9862c3c3118d6a8bf0c23166ecddbd7c070825caf6ba9"
    ),
}

#: sha256 of every controller's activation history on the pretrained fleet.
HISTORY_GOLDEN = "dc3ea55cef71f799d1428babd1866e97a70b6d747754d7dbc448707b3eb3e898"
#: sha256 of that run's ClusterSummary.to_dict().
SUMMARY_GOLDEN = "696980b3ce77e1606f4dc1dc305986d2cd0ddee17c7fd41679e856cb3dc5b762"


def digest(payload) -> str:
    # No sort_keys: dict insertion order is part of the pinned behaviour
    # (Algorithm 1 sums transition probabilities in that order).
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def histories(cluster):
    return [
        [
            session.session_id,
            [
                [
                    a.frame_index,
                    a.agent,
                    list(a.state.as_tuple()),
                    a.action_index,
                    a.phase.value,
                    a.reward,
                ]
                for a in session.controller.history
            ],
        ]
        for orch in cluster.orchestrators
        for session in orch.sessions
    ]


@pytest.mark.parametrize(
    "resolution, seed", list(SNAPSHOT_GOLDEN), ids=lambda v: getattr(v, "name", v)
)
def test_pretrain_snapshot_golden(resolution, seed):
    snapshot = pretrain_mamut(resolution, frames=2000, seed=seed)
    assert digest(snapshot) == SNAPSHOT_GOLDEN[(resolution, seed)]


def test_pretrained_knowledge_fixture_matches_golden(pretrained_knowledge):
    for resolution, snapshot in pretrained_knowledge.items():
        assert digest(snapshot) == SNAPSHOT_GOLDEN[(resolution, 0)]


def test_pretrained_fleet_history_and_summary_golden(run_pretrained_fleet):
    cluster, result, algorithm1_calls = run_pretrained_fleet("scalar")
    recorded = histories(cluster)
    phases = {a[4] for _, history in recorded for a in history}
    # The pins must cover the greedy and the Algorithm 1 paths, not just
    # exploration.
    assert phases == {phase.value for phase in Phase}
    assert algorithm1_calls > 0
    assert digest(recorded) == HISTORY_GOLDEN
    assert digest(result.summary().to_dict()) == SUMMARY_GOLDEN

