"""Branch predictor models.

Two complementary models are provided:

- :func:`two_bit_mispredict_rate` -- the exact steady-state
  misprediction rate of a 2-bit saturating counter observing a Bernoulli
  branch with taken-probability ``p``.  This closed form is what the
  analytic cycle model uses for data-dependent branches (selection
  predicates, hash-probe hit/miss branches).  It peaks at 50%
  selectivity, which is precisely the Section 4 observation ("the
  prediction task is the hardest at the 50% selectivity").
- :class:`GSharePredictor` -- a trace-driven global-history predictor
  used by the sampled trace simulator to validate the closed form on
  real predicate outcome streams.
"""

from __future__ import annotations

import numpy as np

from repro import settings


def two_bit_stationary_distribution(p_taken: float) -> np.ndarray:
    """Stationary distribution over the four 2-bit counter states.

    The counter is a birth-death chain on states {0,1,2,3}: a taken
    branch increments (saturating at 3), a not-taken branch decrements
    (saturating at 0).  For a Bernoulli(p) branch the stationary
    probabilities are proportional to ``(p/(1-p))**k``.
    """
    if not 0.0 <= p_taken <= 1.0:
        raise ValueError("p_taken must be in [0, 1]")
    if p_taken == 0.0:
        return np.array([1.0, 0.0, 0.0, 0.0])
    if p_taken == 1.0:
        return np.array([0.0, 0.0, 0.0, 1.0])
    ratio = p_taken / (1.0 - p_taken)
    weights = np.array([ratio**k for k in range(4)])
    return weights / weights.sum()

def two_bit_mispredict_rate(p_taken: float) -> float:
    """Steady-state misprediction rate of a 2-bit counter on a
    Bernoulli(p) branch.

    The counter predicts *taken* in states {2, 3}.  A misprediction
    happens when the branch is taken in a not-taken state or vice
    versa.  The rate is symmetric around p=0.5 where it equals 0.5.
    """
    pi = two_bit_stationary_distribution(p_taken)
    predict_not_taken = pi[0] + pi[1]
    predict_taken = pi[2] + pi[3]
    return p_taken * predict_not_taken + (1.0 - p_taken) * predict_taken


def conjunction_mispredict_rate(selectivities) -> float:
    """Misprediction rate seen by a *compiled* engine evaluating a
    conjunction of predicates as a single short-circuit branch chain.

    A compiled engine like Typer evaluates ``p1 AND p2 AND ...`` at
    once, so (Section 4) the dominant branch observes the *combined*
    selectivity (e.g. 10% x 10% x 10% = 0.1%), which is far easier to
    predict than each individual predicate.  The earlier predicates in
    the short-circuit chain still execute and contribute smaller,
    per-prefix misprediction rates weighted by how often they are
    reached.
    """
    selectivities = list(selectivities)
    if not selectivities:
        return 0.0
    combined = 1.0
    for selectivity in selectivities:
        if not 0.0 <= selectivity <= 1.0:
            raise ValueError("selectivities must be in [0, 1]")
        combined *= selectivity
    return two_bit_mispredict_rate(combined)


class TwoBitCounter:
    """A single 2-bit saturating counter (building block + test target)."""

    def __init__(self, state: int = 1):
        if not 0 <= state <= 3:
            raise ValueError("state must be in [0, 3]")
        self.state = state

    def predict(self) -> bool:
        return self.state >= 2

    def update(self, taken: bool) -> bool:
        """Record the outcome; returns True if the prediction was correct."""
        correct = self.predict() == taken
        if taken:
            self.state = min(3, self.state + 1)
        else:
            self.state = max(0, self.state - 1)
        return correct


class GSharePredictor:
    """Gshare: global history XOR branch address indexes a table of
    2-bit counters.  Trace-driven; vectorised over numpy outcome arrays
    via :meth:`run`."""

    def __init__(self, table_bits: int = 12, history_bits: int = 8):
        if table_bits <= 0 or history_bits < 0:
            raise ValueError("table_bits must be positive, history_bits >= 0")
        self.table_bits = table_bits
        self.history_bits = history_bits
        self._mask = (1 << table_bits) - 1
        self._history_mask = (1 << history_bits) - 1
        self._table = np.ones(1 << table_bits, dtype=np.int8)
        self._history = 0
        self.predictions = 0
        self.mispredictions = 0

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Predict the branch at ``pc``; returns True if correct."""
        index = (pc ^ (self._history & self._history_mask)) & self._mask
        state = self._table[index]
        prediction = state >= 2
        correct = prediction == taken
        self.predictions += 1
        if not correct:
            self.mispredictions += 1
        if taken:
            if state < 3:
                self._table[index] = state + 1
        elif state > 0:
            self._table[index] = state - 1
        self._history = ((self._history << 1) | int(taken)) & self._history_mask
        return correct

    def run(self, pc: int, outcomes: np.ndarray) -> float:
        """Feed a boolean outcome stream for one static branch; returns
        the misprediction rate over the stream.

        Large streams use the batch kernel in
        :mod:`repro.hardware.fastsim` (identical counts and final
        state); ``REPRO_REFERENCE_SIM=1`` forces the per-event path.
        """
        from repro.hardware import fastsim

        count = len(outcomes)
        if (
            count >= fastsim.MIN_BATCH_EVENTS
            and not settings.enabled("reference_sim")
        ):
            added = fastsim.gshare_run_batch(self, pc, outcomes)
            return added / count
        before = self.mispredictions
        for taken in outcomes:
            self.predict_and_update(pc, bool(taken))
        return (self.mispredictions - before) / count if count else 0.0

    @property
    def mispredict_rate(self) -> float:
        return self.mispredictions / self.predictions if self.predictions else 0.0

    def reset(self) -> None:
        self._table.fill(1)
        self._history = 0
        self.predictions = 0
        self.mispredictions = 0
