"""Q-learning agent: one design-space subset, one Q-table.

A :class:`QLearningAgent` owns an action subset (QP values, thread counts, or
frequencies), its Q-table, its empirical transition model, per-action and
per-(state, action) visit counters, and the learning-rate function of Eq. 3.
The multi-agent coordination (who acts when, chained exploitation, reward
distribution) lives in :mod:`repro.core.mamut`; the agent itself only knows
how to pick actions for a given phase and how to apply the Q update.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.constants import DEFAULT_GAMMA
from repro.core.actions import ActionSet
from repro.core.learning_rate import LearningRateFunction, LearningRateParameters
from repro.core.phases import Phase
from repro.core.qtable import QTable, Row
from repro.core.states import StateSpace, SystemState
from repro.core.transitions import TransitionModel
from repro.errors import LearningError

__all__ = ["QLearningAgent"]


class QLearningAgent:
    """A single tabular Q-learning agent over one action subset.

    Parameters
    ----------
    name:
        Agent name (``"qp"``, ``"threads"``, ``"dvfs"``, or anything else for
        custom agents); used in schedules and diagnostics.
    actions:
        The agent's action subset.
    gamma:
        Discount factor of the Q update (paper: 0.6).
    learning_rate_params:
        Constants of Eq. 3 and the phase thresholds.
    seed:
        Seed of the agent's private random generator (exploration order).
    exploration_epsilon:
        Once every action of a state has been tried at least once, the
        exploration phase keeps picking the least-tried action only with this
        probability and otherwise acts greedily while continuing to update
        counts and Q-values.  This keeps exploration converging (the counts
        that drive Eq. 3 still grow) without the controller behaving as a
        uniform-random policy for hundreds of frames, which would contradict
        the run-time traces the paper reports (Fig. 5).  Set to 1.0 for pure
        least-tried exploration.
    state_space:
        When given, the agent's Q-table uses the dense array mode addressed
        by the space's integer state encoding (see
        :class:`~repro.core.qtable.QTable`); every state handed to the agent
        must then belong to the space.  Values are identical either way —
        the array mode just makes lookups and fleet-batched updates O(1).
    """

    def __init__(
        self,
        name: str,
        actions: ActionSet,
        gamma: float = DEFAULT_GAMMA,
        learning_rate_params: LearningRateParameters | None = None,
        seed: int = 0,
        exploration_epsilon: float = 0.25,
        state_space: StateSpace | None = None,
    ) -> None:
        if not 0.0 <= gamma < 1.0:
            raise LearningError(f"gamma must be in [0, 1), got {gamma}")
        if not 0.0 <= exploration_epsilon <= 1.0:
            raise LearningError(
                f"exploration_epsilon must be in [0, 1], got {exploration_epsilon}"
            )
        self.name = name
        self.actions = actions
        self.gamma = float(gamma)
        self.exploration_epsilon = float(exploration_epsilon)
        self.learning_rate = LearningRateFunction(learning_rate_params)
        self.q_table = QTable(num_actions=len(actions), state_space=state_space)
        self.transitions = TransitionModel(num_actions=len(actions))
        self._rng = np.random.default_rng(seed)

        #: Num(s, a): how often each (state, action) pair has been taken.
        self._state_action_counts: Dict[Tuple[SystemState, int], int] = defaultdict(int)
        #: Num(a): how often each action has been taken overall (any state).
        self._action_counts: Dict[int, int] = {a: 0 for a in actions.indices()}
        # Caches over the counters, so the per-activation hot path (Eq. 3 and
        # the phase test, which only need extremes of the counters) is O(1)
        # instead of O(actions) / O(peers * actions).  ``None`` marks the
        # running min as stale (recomputed lazily on the next read).
        self._min_action_count: int | None = 0
        #: max_a Num(s, a) per state — the visit count whose Eq. 3 learning
        #: rate is the *smallest* over the state's actions.
        self._state_max_counts: Dict[SystemState, int] = {}

    # -- counters ------------------------------------------------------------------

    def state_action_count(self, state: SystemState, action: int) -> int:
        """``Num(s, a)`` for this agent."""
        return self._state_action_counts.get((state, action), 0)

    def action_count(self, action: int) -> int:
        """``Num(a)``: total times this agent has taken the given action."""
        return self._action_counts[action]

    def min_action_count(self) -> int:
        """``min_a Num(a)`` — the least-tried action count of this agent.

        This is the quantity peers plug into the second term of Eq. 3.  The
        running minimum is cached and only recomputed after an update bumped
        a least-tried action (peers read it on every one of their
        activations, so the naive O(actions) min was a per-frame cost).
        """
        if self._min_action_count is None:
            self._min_action_count = min(self._action_counts.values())
        return self._min_action_count

    def max_state_count(self, state: SystemState) -> int:
        """``max_a Num(s, a)`` — the most-tried action count in ``state``."""
        return self._state_max_counts.get(state, 0)

    def known_states(self) -> set[SystemState]:
        """States in which this agent has taken at least one action."""
        return {state for state, _ in self._state_action_counts}

    # -- learning rate / phase --------------------------------------------------------

    def alpha(self, state: SystemState, action: int, peer_min_counts: Sequence[int]) -> float:
        """Learning rate (Eq. 3) of a (state, action) pair."""
        return self.learning_rate.alpha(
            self.state_action_count(state, action), peer_min_counts
        )

    def phase(self, state: SystemState, peer_min_counts: Sequence[int]) -> Phase:
        """Learning phase of this agent for ``state``.

        A state leaves pure exploration once the learning rate of a
        state-action pair in it drops below ``alpha_th1``, and enters
        exploitation once a pair drops below ``alpha_th2`` (Sec. IV-A/IV-C).
        Both conditions also require the peers' action coverage through the
        second term of Eq. 3: as long as another agent still has untried
        actions, the learning rate cannot fall below the thresholds.  A state
        never seen before is in EXPLORATION by construction; phases are
        re-evaluated on every activation, so a state can fall back to
        exploration when the peer statistics change.

        The smallest per-action learning rate is evaluated directly at the
        state's most-tried action count instead of recomputing Eq. 3 for
        every action: the own-visit term is non-increasing in ``Num(s, a)``
        and the peer term is the same for all actions, and IEEE addition,
        division and the ``min(1, .)`` clamp are monotone, so the alpha of
        the max-count action is bitwise the minimum of the per-action alphas
        (``tests/test_core_agent.py`` pins this against the brute force).
        """
        return self.phase_from_total(
            state, self.learning_rate.peer_total(peer_min_counts)
        )

    def phase_from_total(self, state: SystemState, peer_total: int) -> Phase:
        """:meth:`phase` with the peers' counts already summed.

        ``peer_total`` is the sum of the peers' ``min_action_count()``
        (:meth:`LearningRateFunction.peer_total
        <repro.core.learning_rate.LearningRateFunction.peer_total>`).
        """
        learning_rate = self.learning_rate
        best = learning_rate.alpha_from_total(self.max_state_count(state), peer_total)
        if learning_rate.below_exploitation_threshold(best):
            return Phase.EXPLOITATION
        if learning_rate.below_exploration_threshold(best):
            return Phase.EXPLORATION_EXPLOITATION
        return Phase.EXPLORATION

    # -- action selection ---------------------------------------------------------------

    def select_exploration_action(
        self,
        state: SystemState,
        current: int | None = None,
        *,
        row: Row | None = None,
    ) -> int:
        """Exploration action for ``state``.

        With probability ``exploration_epsilon`` a random action is drawn,
        biased towards the least-tried actions of the state so that coverage
        keeps improving; otherwise the agent acts greedily on what it has
        learned so far (preferring the currently applied action on ties).
        Because unvisited Q-values default to 0 while constraint-violating
        states earn negative rewards, the greedy branch itself keeps probing
        alternative actions whenever the current operating point is poor, so
        the full subset still gets covered without the controller behaving as
        a uniform-random policy for long stretches (which would contradict
        the run-time traces of the paper's Fig. 5).

        ``row`` is ``state``'s Q-table row key (:meth:`QTable.row
        <repro.core.qtable.QTable.row>`) when the caller already has it.
        """
        if self._rng.random() < self.exploration_epsilon:
            pair_counts = self._state_action_counts
            counts = [pair_counts.get((state, a), 0) for a in self.actions.indices()]
            min_count = min(counts)
            candidates = [a for a, c in enumerate(counts) if c == min_count]
            return self._draw(candidates)
        return self.select_greedy_action(state, current=current, row=row)

    def select_greedy_action(
        self,
        state: SystemState,
        current: int | None = None,
        *,
        row: Row | None = None,
    ) -> int:
        """Greedy action with respect to this agent's own Q-table.

        Ties are resolved in favour of ``current`` (the action already
        applied) when it belongs to the argmax set — the controller should
        not jump to an arbitrary operating point when several actions look
        equally good, which is common before a state has been learned —
        and uniformly at random otherwise.  ``row`` is as in
        :meth:`select_exploration_action`.
        """
        table = self.q_table
        values = table.action_values_at(table.row(state) if row is None else row)
        best_value = max(values)
        candidates = [a for a, v in enumerate(values) if v == best_value]
        if current is not None and current in candidates:
            return current
        return self._draw(candidates)

    def _draw(self, candidates: list[int]) -> int:
        """One uniform pick from ``candidates`` with the agent's generator.

        The same pick as ``rng.choice(candidates)``, leaving the generator
        in the same state, without converting the list to an array
        (``tests/test_core_agent.py`` pins the identity).
        """
        return candidates[int(self._rng.integers(len(candidates)))]

    def select_action(self, state: SystemState, phase: Phase) -> int:
        """Select an action according to the given phase.

        EXPLOITATION selection normally goes through the chained expected-Q
        policy implemented by the coordinator (Algorithm 1); calling this
        method in that phase falls back to the agent's own greedy policy,
        which is also the paper's fallback when peers are not ready yet.
        """
        if phase is Phase.EXPLORATION:
            return self.select_exploration_action(state)
        return self.select_greedy_action(state)

    # -- learning ---------------------------------------------------------------------------

    def update(
        self,
        state: SystemState,
        action: int,
        reward: float,
        next_state: SystemState,
        peer_min_counts: Sequence[int],
    ) -> float:
        """Apply one Q-learning update and record the transition.

        Returns the learning rate used, which callers can log or test
        against.  The counters are incremented *before* computing the
        learning rate, so the very first update of a pair uses
        ``beta / 1 + ...`` exactly as Eq. 3 prescribes.
        """
        table = self.q_table
        return self.update_at(
            state,
            table.row(state),
            action,
            reward,
            next_state,
            table.row(next_state),
            self.learning_rate.peer_total(peer_min_counts),
        )

    def update_at(
        self,
        state: SystemState,
        row: Row,
        action: int,
        reward: float,
        next_state: SystemState,
        next_row: Row,
        peer_total: int,
    ) -> float:
        """:meth:`update` with the Q rows resolved and the peer counts summed.

        ``row`` and ``next_row`` are the Q-table row keys
        (:meth:`QTable.row <repro.core.qtable.QTable.row>`) of ``state``
        and ``next_state``; ``peer_total`` is as in :meth:`phase_from_total`.
        The counters and the transition model stay keyed by the states.
        """
        action = int(action)
        if not 0 <= action < len(self.actions):
            raise LearningError(
                f"action index {action} out of range [0, {len(self.actions)})"
            )

        pair = (state, action)
        pair_count = self._state_action_counts[pair] + 1
        self._state_action_counts[pair] = pair_count
        if pair_count > self._state_max_counts.get(state, 0):
            self._state_max_counts[state] = pair_count
        previous = self._action_counts[action]
        self._action_counts[action] = previous + 1
        if self._min_action_count is not None and previous == self._min_action_count:
            # A least-tried action was bumped; the min may have risen.
            self._min_action_count = None
        self.transitions.record(state, action, next_state)

        alpha = self.learning_rate.alpha_from_total(pair_count, peer_total)
        table = self.q_table
        target = reward + self.gamma * table.max_value_at(next_row)
        table.update_towards_at(row, action, target, alpha)
        return alpha

    def rebuild_count_caches(self) -> None:
        """Recompute the counter caches from the raw counter dicts.

        Callers that write ``_action_counts`` / ``_state_action_counts``
        directly (persistence restore, tests poking internals) must call
        this afterwards, or :meth:`min_action_count` and :meth:`phase` would
        read stale cached extremes.
        """
        self._min_action_count = None
        self._state_max_counts = {}
        for (state, _), count in self._state_action_counts.items():
            if count > self._state_max_counts.get(state, 0):
                self._state_max_counts[state] = count

    # -- diagnostics ------------------------------------------------------------------------

    def summary(self) -> dict[str, float | int | str]:
        """Small diagnostic snapshot used by examples and reports."""
        return {
            "name": self.name,
            "actions": len(self.actions),
            "visited_states": len(self.known_states()),
            "q_entries": len(self.q_table),
            "min_action_count": self.min_action_count(),
        }
