"""The Aergia federator: freeze/offload orchestration (§3 and §4 of the paper).

Aergia keeps FedAvg's client selection and aggregation but adds, inside
every round:

1. **Online profiling** — selected clients measure their four training
   phases over the first ``P`` batches and report the timings.
2. **Centralized scheduling** — once all reports are in, the federator runs
   Algorithm 1 (with Algorithm 2 as the pair-wise cost estimator) to match
   stragglers with strong clients, refining the matching with the dataset
   similarities of that round's cohort, which the SGX enclave computes from
   the class distributions the clients sealed for it before training
   started.  (The paper's enclave releases the whole population's matrix
   once; asking per round for the cohort's block releases a subset of it
   and keeps set-up linear in the population — see
   :mod:`repro.core.enclave`.)
3. **Model freezing and offloading** — stragglers freeze their feature
   layers, ship their model to the matched strong client and keep training
   only their classifier; strong clients train the offloaded feature layers
   on their own data after finishing their own updates.
4. **Recombination** — at aggregation time the federator reassembles each
   offloaded model from the strong client's feature layers and the weak
   client's classifier layers, then applies the usual FedAvg average.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.enclave import SGXEnclave
from repro.core.freezing import recombine_offloaded_model
from repro.core.offloading import OffloadPlan
from repro.core.scheduler import ClientPerformance, schedule_offloading
from repro.core.similarity import ClientSimilarity
from repro.fl.config import ExperimentConfig
from repro.fl.federator import BaseFederator, RoundState
from repro.fl.messages import MessageKind, ProfileReport
from repro.fl.training import run_jobs
from repro.nn.model import SplitCNN
from repro.registry import register_federator
from repro.simulation.cluster import FEDERATOR_ID, SimulatedCluster

Weights = Dict[str, np.ndarray]


@register_federator("aergia")
class AergiaFederator(BaseFederator):
    """Federator implementing the Aergia middleware."""

    algorithm_name = "aergia"

    def __init__(
        self,
        cluster: SimulatedCluster,
        config: ExperimentConfig,
        global_model: SplitCNN,
        x_test: np.ndarray,
        y_test: np.ndarray,
        enclave: Optional[SGXEnclave] = None,
        similarity: Optional[ClientSimilarity] = None,
        client_ids: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__(cluster, config, global_model, x_test, y_test, client_ids=client_ids)
        self.similarity_factor = config.aergia_similarity_factor
        #: The similarities of a cohort, from an injected matrix or else from
        #: the enclave, which releases only pair-wise distances: the raw
        #: client class distributions never reach this (untrusted) federator
        #: code.  Asked per round, so no population-sized matrix is held and
        #: a client that submits to the enclave later is seen.
        self._similarity_for: Optional[Callable[[Sequence[int]], ClientSimilarity]] = None
        if similarity is not None:
            self._similarity_for = similarity.submatrix
        elif enclave is not None:
            self._similarity_for = enclave.similarity_for
        #: Offloading plans per round, kept for analysis and tests.
        self.plans: Dict[int, OffloadPlan] = {}

    # ----------------------------------------------------------------- hooks
    def wants_profile_reports(self) -> bool:
        return True

    def on_profile_report(self, state: RoundState, report: ProfileReport) -> None:
        """Compute and distribute the offloading schedule once all reports arrived."""
        self._maybe_schedule_plan(state)

    def on_client_dropped(self, state: RoundState, client_id: int) -> None:
        # A dropout can complete the report set of the remaining clients.
        self._maybe_schedule_plan(state)

    def _maybe_schedule_plan(self, state: RoundState) -> None:
        if state.round_number in self.plans:
            return  # schedule already computed for this round (even if it
            # contained zero offloads: scheduling happens once per round)
        # Under churn, dropped clients will never report: the schedule is
        # computed from the clients still expected to contribute.
        if not set(state.expected_clients) <= set(state.profile_reports):
            return
        plan = self._compute_plan(state)
        self.plans[state.round_number] = plan
        state.num_offloads = plan.num_offloads
        self._send_plan(state, plan)

    def _compute_plan(self, state: RoundState) -> OffloadPlan:
        performances: List[ClientPerformance] = []
        for client_id in state.selected_clients:
            if client_id in state.dropped_clients or client_id not in state.profile_reports:
                continue  # dropped, or dropped before reporting
            report = state.profile_reports[client_id]
            performances.append(
                ClientPerformance(
                    client_id=client_id,
                    head_seconds=report.head_seconds,
                    tail_seconds=report.tail_seconds,
                    feature_training_seconds=report.feature_training_seconds,
                    remaining_batches=report.remaining_batches,
                )
            )
        similarity_matrix = None
        similarity_ids: Optional[List[int]] = None
        if self._similarity_for is not None and self.similarity_factor > 0:
            restricted = self._similarity_for([p.client_id for p in performances])
            similarity_matrix = restricted.matrix
            similarity_ids = list(restricted.client_ids)
        decision = schedule_offloading(
            performances,
            similarity=similarity_matrix,
            similarity_client_ids=similarity_ids,
            similarity_factor=self.similarity_factor,
            round_number=state.round_number,
        )
        return decision.plan

    def _send_plan(self, state: RoundState, plan: OffloadPlan) -> None:
        """Send freeze/offload instructions to weak clients and notices to strong ones.

        The paper signs these messages and tags them with the round number so
        stale instructions are ignored; the reproduction relies on the round
        number (authenticity is trivially satisfied inside the simulator).
        """
        for assignment in plan:
            self.transport.send(
                FEDERATOR_ID,
                assignment.weak_client,
                MessageKind.OFFLOAD_INSTRUCTION,
                payload={
                    "target": assignment.strong_client,
                    "offload_batches": assignment.offload_batches,
                },
                round_number=state.round_number,
            )
            self.transport.send(
                FEDERATOR_ID,
                assignment.strong_client,
                MessageKind.OFFLOAD_EXPECT,
                payload={
                    "source": assignment.weak_client,
                    "offload_batches": assignment.offload_batches,
                },
                round_number=state.round_number,
            )

    # ------------------------------------------------------------ aggregation
    def collect_contributions(self, state: RoundState) -> List[Tuple[Weights, int, int]]:
        results = [
            state.results[client_id]
            for client_id in sorted(state.results)
            if client_id not in state.dropped_clients
        ]
        offloads = {
            result.client_id: state.offload_results[result.client_id]
            for result in results
            if result.offloaded_to is not None and result.client_id in state.offload_results
        }
        # The round's own jobs, then the offloaded models they froze: one call.
        run_jobs([result.job for result in results] + [offload.job for offload in offloads.values()])
        contributions: List[Tuple[Weights, int, int]] = []
        for result in results:
            weights = result.weights
            offload = offloads.get(result.client_id)
            if offload is not None:
                weights = recombine_offloaded_model(result.weights, offload.feature_weights)
            contributions.append((weights, result.num_samples, result.num_steps))
        return contributions

    # ------------------------------------------------------------- diagnostics
    def total_offloads(self) -> int:
        """Total number of freeze/offload pairs scheduled so far."""
        return sum(plan.num_offloads for plan in self.plans.values())
