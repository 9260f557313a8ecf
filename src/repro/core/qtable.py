"""Tabular Q-value storage.

States are :class:`~repro.core.states.SystemState` instances and actions are
integer indices into the owning agent's
:class:`~repro.core.actions.ActionSet`.  Unvisited entries default to zero.

Two storage modes share the same API:

* **dict mode** (default) — a sparse ``{(state, action): value}`` mapping,
  fine for a handful of sessions and for exotic states outside any space;
* **array mode** — constructed with a ``state_space``, values live in a
  lazily grown ``(num_states, num_actions)`` float64 ndarray addressed by
  :meth:`~repro.core.states.StateSpace.state_index`.  Lookups and the
  Q-learning inner step become O(1) array reads/writes, callers holding a
  state's dense index address its row directly (the ``*_at`` methods,
  keyed by :meth:`QTable.row`), and the batched
  entry points (:meth:`QTable.max_value_batch`,
  :meth:`QTable.update_towards_batch`) let fleet-level tooling touch many
  states per call.  The persistence format is unchanged: :meth:`items`,
  :meth:`to_dict` and :meth:`load` speak (state, action) pairs in both
  modes, and only explicitly stored entries are exported.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Iterator, Optional, Tuple, Union

import numpy as np

from repro.core.states import SystemState
from repro.errors import LearningError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.core.states import StateSpace

__all__ = ["QTable", "Row"]

#: Key of one Q-table row (see :meth:`QTable.row`): a dense state index in
#: array mode, the state itself in dict mode.
Row = Union[int, SystemState]


class QTable:
    """A table of Q-values indexed by (state, action-index).

    Parameters
    ----------
    num_actions:
        Size of the owning agent's action set; action indices must fall in
        ``[0, num_actions)``.
    initial_value:
        Q-value reported for unvisited (state, action) pairs.
    state_space:
        When given, values are stored in a dense ndarray addressed through
        the space's :meth:`~repro.core.states.StateSpace.state_index`
        encoding (array mode); states must then belong to the space.  When
        omitted the table is a sparse dict (the historical behaviour).
    """

    def __init__(
        self,
        num_actions: int,
        initial_value: float = 0.0,
        state_space: Optional["StateSpace"] = None,
    ) -> None:
        if num_actions < 1:
            raise LearningError(f"num_actions must be >= 1, got {num_actions}")
        self.num_actions = int(num_actions)
        self.initial_value = float(initial_value)
        self.state_space = state_space
        if state_space is not None:
            self._num_states = state_space.size
            self._array = np.empty((0, self.num_actions))
            self._stored = np.empty((0, self.num_actions), dtype=bool)
            self._values = None
        else:
            self._num_states = 0
            self._array = None
            self._stored = None
            self._values: Optional[Dict[Tuple[SystemState, int], float]] = {}

    @property
    def dense(self) -> bool:
        """True when this table stores values in the dense array mode."""
        return self._array is not None

    # -- array-mode internals --------------------------------------------------------

    def _ensure_rows(self, index: int) -> None:
        """Grow the dense array to cover ``index`` (geometric, capped)."""
        rows = self._array.shape[0]
        if index < rows:
            return
        new_rows = min(self._num_states, max(index + 1, 2 * rows, 16))
        if index >= new_rows:
            raise LearningError(
                f"state index {index} out of range [0, {self._num_states})"
            )
        grown = np.full((new_rows, self.num_actions), self.initial_value)
        grown[:rows] = self._array
        stored = np.zeros((new_rows, self.num_actions), dtype=bool)
        stored[:rows] = self._stored
        self._array = grown
        self._stored = stored

    # -- access --------------------------------------------------------------------

    def row(self, state: SystemState) -> Row:
        """The key that addresses ``state``'s row in the ``*_at`` methods.

        In array mode it is the dense index
        :meth:`~repro.core.states.StateSpace.state_index` (which checks the
        bins are in range); in dict mode it is the state itself.  Callers
        that already hold a state's dense index (the batch MAMUT driver
        computes them fleet-wide) pass it to the ``*_at`` methods directly;
        every :class:`SystemState` method here resolves the row once and
        delegates to its ``*_at`` twin.
        """
        if self._array is not None:
            return self.state_space.state_index(state)
        return state

    def get(self, state: SystemState, action: int) -> float:
        """Q-value of a (state, action) pair (``initial_value`` if unvisited)."""
        return self.get_at(self.row(state), action)

    def get_at(self, row: Row, action: int) -> float:
        """:meth:`get` addressed by :meth:`row` key."""
        self._check_action(action)
        if self._array is not None:
            if row < self._array.shape[0]:
                return float(self._array[row, action])
            return self.initial_value
        return self._values.get((row, action), self.initial_value)

    def set(self, state: SystemState, action: int, value: float) -> None:
        """Overwrite the Q-value of a (state, action) pair."""
        self.set_at(self.row(state), action, value)

    def set_at(self, row: Row, action: int, value: float) -> None:
        """:meth:`set` addressed by :meth:`row` key."""
        self._check_action(action)
        if self._array is not None:
            self._ensure_rows(row)
            self._array[row, action] = float(value)
            self._stored[row, action] = True
        else:
            self._values[(row, action)] = float(value)

    def update_towards(
        self, state: SystemState, action: int, target: float, alpha: float
    ) -> float:
        """Move ``Q(state, action)`` towards ``target`` by step ``alpha``.

        Returns the new value.  This is the inner step of the Q-learning
        update ``Q += alpha * (target - Q)``.
        """
        return self.update_towards_at(self.row(state), action, target, alpha)

    def update_towards_at(
        self, row: Row, action: int, target: float, alpha: float
    ) -> float:
        """:meth:`update_towards` addressed by :meth:`row` key."""
        if not 0.0 <= alpha <= 1.0:
            raise LearningError(f"alpha must be in [0, 1], got {alpha}")
        if self._array is not None:
            # Fast path: one action check and one row growth for the read
            # and the write.
            self._check_action(action)
            self._ensure_rows(row)
            current = float(self._array[row, action])
            new_value = current + alpha * (target - current)
            self._array[row, action] = new_value
            self._stored[row, action] = True
            return new_value
        current = self.get_at(row, action)
        new_value = current + alpha * (target - current)
        self.set_at(row, action, new_value)
        return new_value

    # -- aggregates ------------------------------------------------------------------

    def max_value(self, state: SystemState) -> float:
        """Highest Q-value over all actions in ``state``."""
        return self.max_value_at(self.row(state))

    def max_value_at(self, row: Row) -> float:
        """:meth:`max_value` addressed by :meth:`row` key."""
        return max(self.action_values_at(row))

    def best_action(self, state: SystemState) -> int:
        """Index of the greedy action in ``state`` (ties resolved to lowest index)."""
        values = self.action_values(state)
        return values.index(max(values))

    def action_values(self, state: SystemState) -> list[float]:
        """Q-values of every action in ``state``, in action-index order."""
        return self.action_values_at(self.row(state))

    def action_values_at(self, row: Row) -> list[float]:
        """:meth:`action_values` addressed by :meth:`row` key (one row read)."""
        if self._array is not None:
            if row < self._array.shape[0]:
                return self._array[row].tolist()
            return [self.initial_value] * self.num_actions
        return [
            self._values.get((row, a), self.initial_value)
            for a in range(self.num_actions)
        ]

    def visited_states(self) -> set[SystemState]:
        """States with at least one explicitly stored entry."""
        if self.dense:
            rows = np.nonzero(self._stored.any(axis=1))[0]
            return {self.state_space.index_to_state(int(r)) for r in rows}
        return {state for state, _ in self._values}

    def __len__(self) -> int:
        """Number of explicitly stored (state, action) entries."""
        if self.dense:
            return int(self._stored.sum())
        return len(self._values)

    def items(self) -> Iterator[tuple[tuple[SystemState, int], float]]:
        """Iterate over explicitly stored ((state, action), value) pairs."""
        if self.dense:
            return (
                (
                    (self.state_space.index_to_state(int(r)), int(a)),
                    float(self._array[r, a]),
                )
                for r, a in zip(*np.nonzero(self._stored))
            )
        return iter(self._values.items())

    # -- batched entry points ----------------------------------------------------------

    def max_value_batch(self, state_indices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`max_value` over an array of dense state indices.

        Array mode only.  Rows beyond the lazily grown storage report
        ``initial_value`` (they are all-default by construction).
        """
        self._require_dense()
        state_indices = np.asarray(state_indices, dtype=np.int64)
        if state_indices.size and int(state_indices.max()) >= self._array.shape[0]:
            self._ensure_rows(int(state_indices.max()))
        return self._array[state_indices].max(axis=1)

    def update_towards_batch(
        self,
        state_indices: np.ndarray,
        actions: np.ndarray,
        targets: np.ndarray,
        alphas: np.ndarray,
    ) -> np.ndarray:
        """Vectorized :meth:`update_towards` over parallel arrays.

        Array mode only.  ``state_indices`` must not contain duplicates
        within one call (later writes would read stale values); callers
        batching many sessions against one shared table must pre-merge.
        Returns the new values.
        """
        self._require_dense()
        state_indices = np.asarray(state_indices, dtype=np.int64)
        actions = np.asarray(actions, dtype=np.int64)
        alphas = np.asarray(alphas)
        if alphas.size and (alphas.min() < 0.0 or alphas.max() > 1.0):
            raise LearningError("alpha must be in [0, 1]")
        if actions.size and (
            actions.min() < 0 or actions.max() >= self.num_actions
        ):
            raise LearningError(
                f"action index out of range [0, {self.num_actions})"
            )
        if state_indices.size:
            self._ensure_rows(int(state_indices.max()))
        current = self._array[state_indices, actions]
        new_values = current + alphas * (np.asarray(targets) - current)
        self._array[state_indices, actions] = new_values
        self._stored[state_indices, actions] = True
        return new_values

    def _require_dense(self) -> None:
        if not self.dense:
            raise LearningError(
                "batched Q-table access needs the array mode "
                "(construct the QTable with a state_space)"
            )

    # -- persistence helpers -----------------------------------------------------------

    def to_dict(self) -> dict[tuple[tuple[int, int, int, int], int], float]:
        """Plain-dict snapshot keyed by (state tuple, action index)."""
        return {
            (state.as_tuple(), action): value
            for (state, action), value in self.items()
        }

    def load(self, entries: Iterable[tuple[tuple[SystemState, int], float]]) -> None:
        """Bulk-load entries (used by tests and checkpointing)."""
        for (state, action), value in entries:
            self.set(state, action, value)

    def _check_action(self, action: int) -> None:
        if not 0 <= action < self.num_actions:
            raise LearningError(
                f"action index {action} out of range [0, {self.num_actions})"
            )
