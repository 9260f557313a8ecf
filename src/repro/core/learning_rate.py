"""Learning-rate function of Eq. 3 (paper Sec. IV-B).

Each agent uses a per-(state, action) learning rate::

    alpha_i(s, a) = beta_i / Num(s, a)
                    + beta'_i / (1 + sum_{j != i} min_{a in A_j} Num_j(a))

The first term is the conventional visit-count decay; the second keeps the
learning rate high until *every other agent* has tried all of its actions at
least a few times, preventing one agent from declaring its exploration
finished while its peers' behaviour is still unpredictable.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.constants import (
    DEFAULT_ALPHA_TH1,
    DEFAULT_ALPHA_TH2,
    DEFAULT_BETA,
    DEFAULT_BETA_PRIME,
)
from repro.errors import ConfigurationError

__all__ = ["LearningRateParameters", "LearningRateFunction"]


@dataclasses.dataclass(frozen=True)
class LearningRateParameters:
    """Constants of the learning-rate function and phase thresholds.

    Attributes
    ----------
    beta:
        Weight of the own visit-count term (paper: 0.3).
    beta_prime:
        Weight of the peer-coverage term (paper: 0.2).
    alpha_th1:
        Threshold below which a state leaves pure exploration and enters the
        exploration-exploitation phase (paper: 0.1).
    alpha_th2:
        Threshold below which a state enters the exploitation phase
        (paper: 0.05).
    """

    beta: float = DEFAULT_BETA
    beta_prime: float = DEFAULT_BETA_PRIME
    alpha_th1: float = DEFAULT_ALPHA_TH1
    alpha_th2: float = DEFAULT_ALPHA_TH2

    def __post_init__(self) -> None:
        if self.beta <= 0 or self.beta_prime < 0:
            raise ConfigurationError("beta must be > 0 and beta_prime >= 0")
        if not 0 < self.alpha_th2 <= self.alpha_th1:
            raise ConfigurationError(
                "thresholds must satisfy 0 < alpha_th2 <= alpha_th1"
            )


class LearningRateFunction:
    """Evaluates Eq. 3 for one agent."""

    def __init__(self, params: LearningRateParameters | None = None) -> None:
        self.params = params if params is not None else LearningRateParameters()

    def alpha(self, own_visits: int, peer_min_action_counts: Sequence[int]) -> float:
        """Learning rate for a (state, action) pair.

        Parameters
        ----------
        own_visits:
            ``Num(s, a)`` — how many times this agent has taken this action in
            this state.  0 means the pair has never been tried; the own term
            is then ``beta`` — evaluated as if there had been one visit, not
            clamped to a full update — so with the default constants
            ``alpha(0, [])`` is 0.5.  :meth:`QLearningAgent.phase
            <repro.core.agent.QLearningAgent.phase>` relies on this for
            states it has never seen.
        peer_min_action_counts:
            For every *other* agent ``j``, the value
            ``min_{a in A_j} Num_j(a)`` — the least-tried action count of that
            agent.  An empty sequence models a mono-agent setting: the sum
            is 0, so the second term of Eq. 3 is ``beta'`` itself (set
            ``beta_prime=0`` to drop it).
        """
        return self.alpha_from_total(own_visits, self.peer_total(peer_min_action_counts))

    def alpha_from_total(self, own_visits: int, peer_total: int) -> float:
        """:meth:`alpha` with the peers' counts already summed.

        ``peer_total`` is ``sum_{j != i} min_{a in A_j} Num_j(a)`` (see
        :meth:`peer_total`).  Per-activation callers sum it once and reuse
        it for the update and the phase test; the result is bitwise that of
        :meth:`alpha` on the unsummed counts (integer sums are exact).
        """
        if own_visits < 0:
            raise ConfigurationError(f"own_visits must be >= 0, got {own_visits}")
        if peer_total < 0:
            raise ConfigurationError("peer action counts must be >= 0")
        p = self.params
        own_term = p.beta if own_visits == 0 else p.beta / own_visits
        return min(1.0, own_term + p.beta_prime / (1.0 + peer_total))

    @staticmethod
    def peer_total(peer_min_action_counts: Sequence[int]) -> int:
        """Sum of the peers' least-tried action counts, each checked >= 0."""
        if any(c < 0 for c in peer_min_action_counts):
            raise ConfigurationError("peer action counts must be >= 0")
        return sum(peer_min_action_counts)

    # -- phase thresholds --------------------------------------------------------

    def below_exploration_threshold(self, alpha: float) -> bool:
        """True when a pair may leave pure exploration (alpha < alpha_th1)."""
        return alpha < self.params.alpha_th1

    def below_exploitation_threshold(self, alpha: float) -> bool:
        """True when a pair may enter exploitation (alpha < alpha_th2)."""
        return alpha < self.params.alpha_th2
