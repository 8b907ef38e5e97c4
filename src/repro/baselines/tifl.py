"""TiFL baseline (Chai et al., HPDC 2020).

TiFL mitigates stragglers at the *selection* level: clients are grouped
into tiers of similar speed by an offline profiling pass, and in every
round the federator picks one tier and selects clients only from it, so
the clients of a round finish at roughly the same time.  A credit system
bounds how often each tier can be picked so that slow tiers (and their
possibly unique data) still contribute.

Reproduction notes
------------------
* The offline profiling pass is simulated: each client's per-batch time is
  estimated from the cost model, and the profiling duration (every client
  training ``profiling_batches`` batches in parallel) is charged to the
  experiment's setup time, matching the paper's definition of the overall
  training time ("we add the time required for any pre-training
  requirements such as offline profiling").
* Tier selection follows TiFL's adaptive credit scheme in its simplest
  form: tiers receive equal credits and are drawn with a probability that
  favours faster tiers, skipping tiers whose credits are exhausted.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.fl.config import ExperimentConfig
from repro.fl.federator import BaseFederator
from repro.fl.selection import select_random
from repro.registry import register_federator
from repro.nn.model import SplitCNN
from repro.simulation.cluster import SimulatedCluster


@register_federator("tifl")
class TiFLFederator(BaseFederator):
    """Tier-based client selection."""

    algorithm_name = "tifl"

    #: Number of batches each client runs during the offline profiling pass.
    offline_profiling_batches = 20

    def __init__(
        self,
        cluster: SimulatedCluster,
        config: ExperimentConfig,
        global_model: SplitCNN,
        x_test: np.ndarray,
        y_test: np.ndarray,
        client_batch_seconds: Optional[Dict[int, float]] = None,
        client_ids: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__(cluster, config, global_model, x_test, y_test, client_ids=client_ids)
        if client_batch_seconds is None:
            # Fall back to the cluster's resource profiles (equivalent to a
            # noiseless offline profiling pass on a unit workload).
            client_batch_seconds = {
                client_id: 1.0 / cluster.profile(client_id).speed_fraction
                for client_id in self.client_ids
            }
        self.client_batch_seconds = dict(client_batch_seconds)
        self.num_tiers = max(1, min(config.tifl_num_tiers, len(self.client_ids)))
        self.tiers = self._build_tiers()
        self._tier_credits = [max(1, config.rounds // self.num_tiers + 1)] * self.num_tiers

        # Offline profiling happens before round 1 and is charged to the
        # total training time: all clients profile in parallel, so the cost
        # is the slowest client's profiling duration.
        slowest = max(self.client_batch_seconds[cid] for cid in self.client_ids)
        self.setup_time = slowest * self.offline_profiling_batches

    # ------------------------------------------------------------------ tiers
    def _build_tiers(self) -> List[List[int]]:
        """Group clients into ``num_tiers`` tiers of similar speed."""
        ordered = sorted(self.client_ids, key=lambda cid: self.client_batch_seconds[cid])
        tiers = [list(chunk) for chunk in np.array_split(ordered, self.num_tiers) if len(chunk)]
        return [[int(c) for c in tier] for tier in tiers]

    def tier_of(self, client_id: int) -> int:
        """Index of the tier a client belongs to (0 = fastest)."""
        for index, tier in enumerate(self.tiers):
            if client_id in tier:
                return index
        raise KeyError(f"client {client_id} is not in any tier")

    def _pick_tier(self) -> int:
        available = [i for i, credits in enumerate(self._tier_credits) if credits > 0]
        if not available:
            # All credits exhausted: reset them, as TiFL does between epochs.
            self._tier_credits = [1] * self.num_tiers
            available = list(range(self.num_tiers))
        # Favour faster tiers (smaller index) with geometrically decreasing
        # probabilities, which mirrors TiFL's bias towards fast tiers while
        # keeping slow tiers reachable.
        weights = np.array([2.0 ** -(i) for i in available])
        probabilities = weights / weights.sum()
        tier = int(self._rng.choice(available, p=probabilities))
        self._tier_credits[tier] -= 1
        return tier

    # ------------------------------------------------------ checkpoint seams
    def _capture_extra_state(self) -> dict:
        # Tiers and setup time are recomputed deterministically by the
        # constructor; only the credit ledger mutates across rounds.
        return {"tier_credits": list(self._tier_credits)}

    def _restore_extra_state(self, extra: dict) -> None:
        self._tier_credits = list(extra["tier_credits"])

    # -------------------------------------------------------------- selection
    def select_clients(self, round_number: int) -> List[int]:
        tier_index = self._pick_tier()
        tier = [
            cid
            for cid in self.tiers[tier_index]
            if self.cluster.is_online(cid) and self.client_has_data(cid)
        ]
        if not tier:
            # The whole tier is offline (churn): fall back to whoever is up.
            tier = self.selectable_clients()
        per_round = min(self.config.effective_clients_per_round, len(tier))
        if per_round >= len(tier):
            return sorted(tier)
        return select_random(tier, per_round, rng=self._rng)
