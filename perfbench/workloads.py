"""The benchmark's workloads and the deployment each one samples.

Every workload samples the synthetic vehicles catalogue (generated from the
run's seed) through a top-k form with ``k = 100`` ranked by
:class:`~repro.database.ranking.StaticScoreRanking`.  A *round* is one fresh
:class:`~repro.service.SamplingService` bound to the deployment's backend,
with ``jobs`` jobs driven to completion by one ``run_all`` scheduler thread.
Round ``r`` of a run uses job seeds derived from the run seed and the slot
``r mod cycle``, so one cycle of rounds is a fixed, seed-determined amount of
work: the counted metrics are taken over exactly one cycle and repeat
exactly for a seed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import HDSamplerConfig, SamplerAlgorithm, SamplingService
from repro.backends.stack import BackendStack, engine_stack
from repro.core.tradeoff import TradeoffSlider
from repro.database.interface import CountMode
from repro.database.ranking import RankingFunction
from repro.database.schema import Schema
from repro.database.table import Table
from repro.datasets.vehicles import VehiclesConfig, default_vehicles_ranking, generate_vehicles_table
from repro.web.httpd import HiddenDatabaseHTTPServer

#: The form's top-k display limit in every workload.
TOP_K = 100


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: data size, access path and job mix."""

    name: str
    why: str
    rows: int
    jobs: int
    samples_per_job: int
    #: Rounds with distinct job seeds; the counted metrics cover one cycle.
    cycle: int
    algorithm: SamplerAlgorithm
    count_mode: CountMode
    remote: bool
    #: Whether a missed uniformity gate fails the run (else it is reported
    #: as degraded, as the scenario harness does with soft gates).
    uniformity_hard: bool = True

    def job_config(self, seed: int, slot: int, job: int) -> HDSamplerConfig:
        """The spec of job ``job`` in round slot ``slot`` of a run seeded ``seed``."""
        return HDSamplerConfig(
            n_samples=self.samples_per_job,
            tradeoff=TradeoffSlider(0.5),
            algorithm=self.algorithm,
            seed=seed * 10_000 + slot * 100 + job,
        )


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="walk_engine_200k",
            why=(
                "random walks on a 200k-row in-process engine, no counts: the engine "
                "(intersect, rank, tuple build) is most of the job time"
            ),
            rows=200_000,
            jobs=2,
            samples_per_job=20,
            cycle=10,
            algorithm=SamplerAlgorithm.RANDOM_WALK,
            count_mode=CountMode.NONE,
            remote=False,
            # At slider 0.5 the walk trades skew for speed by design, and on
            # this deep 200k-row tree its residual bias is itself 0.1-0.27
            # chi2/n (the condition marginal), at the gate's 0.25 — a gate
            # calibrated on slider-0 runs.  A miss is reported, not failed.
            uniformity_hard=False,
        ),
        Workload(
            name="count_history_10k",
            why=(
                "count-aided drill-downs on 10k rows, 4 jobs: broad overflowing queries, "
                "per-job and shared history and inference are hot"
            ),
            rows=10_000,
            jobs=4,
            samples_per_job=25,
            cycle=6,
            algorithm=SamplerAlgorithm.COUNT_AIDED,
            count_mode=CountMode.EXACT,
            remote=False,
        ),
        Workload(
            name="walk_remote_5k",
            why=(
                "random walks over loopback HTTP to a 5k-row server, one pooled keep-alive "
                "connection: transport, codec and handler dominate, the engine does not"
            ),
            rows=5_000,
            jobs=2,
            samples_per_job=25,
            cycle=8,
            algorithm=SamplerAlgorithm.RANDOM_WALK,
            count_mode=CountMode.NONE,
            remote=True,
        ),
    )
}


def generate_rows(workload: Workload, seed: int) -> tuple[Schema, list[dict]]:
    """The workload's raw catalogue rows (not timed as set-up)."""
    table = generate_vehicles_table(VehiclesConfig(n_rows=workload.rows, seed=seed))
    return table.schema, [dict(row) for row in table.rows]


class Deployment:
    """Everything one workload's rounds run against, built by :func:`deploy`.

    ``engine`` is the in-process engine stack (served over HTTP on the
    remote workload); ``backend`` is what each round's service is bound to —
    the engine stack itself, or the client ``remote_stack`` that
    ``SamplingService(url)`` resolved.
    """

    def __init__(
        self,
        table: Table,
        ranking: RankingFunction,
        engine: BackendStack,
        backend: BackendStack,
        server: HiddenDatabaseHTTPServer | None,
    ) -> None:
        self.table = table
        self.ranking = ranking
        self.engine = engine
        self.backend = backend
        self.server = server

    def new_service(self) -> SamplingService:
        """A fresh service (fresh shared history) over the deployed backend."""
        return SamplingService(self.backend)

    def close(self) -> None:
        """Stop the server and close the client's pooled connections."""
        if self.server is not None:
            self.backend.raw.close()
            self.server.stop()
            self.server = None


def deploy(workload: Workload, schema: Schema, rows: list[dict]) -> Deployment:
    """Build the table (validation and index), the rank cache, the stack,
    the service and, on the remote workload, the server.  This is what
    ``setup_s`` times."""
    table = Table(schema, rows, name="vehicles")
    ranking = default_vehicles_ranking()
    table.index.rank_cache(ranking)
    engine = engine_stack(
        table,
        TOP_K,
        ranking=ranking,
        count_mode=workload.count_mode,
        # The HTTP clients own the accounting on the served path.
        statistics=not workload.remote,
    )
    server = None
    if workload.remote:
        server = HiddenDatabaseHTTPServer(engine).start()
        service = SamplingService(server.url)
    else:
        service = SamplingService(engine)
    backend = service.backend()
    if not isinstance(backend, BackendStack):
        raise TypeError(f"expected the service to resolve a BackendStack, got {type(backend).__name__}")
    return Deployment(table, ranking, engine, backend, server)
