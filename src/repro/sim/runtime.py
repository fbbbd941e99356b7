"""The ``"sim"`` backend: GPMR on a modeled GPU cluster.

"Each GPU is controlled by a separate process and each process executes
the MapReduce pipeline."  :class:`GPMRRuntime` is the executor that
models that launcher.  It is an ordinary
:class:`~repro.core.executor.Executor`: the shared driver resolves the
chunks, opens the :class:`~repro.core.scheduler.ChunkService` every
backend pulls from and closes the job; the sim's one step,
:meth:`GPMRRuntime._run_ranks`, instantiates the nodes, the network
fabric and the MPI communicator (one rank per GPU, packed onto nodes
fill-first like the paper's launcher), runs every
:class:`~repro.sim.worker.Worker` — the real backends' dataflow,
priced in modeled time — to completion on the discrete-event engine,
and reports the modeled clock as the run's elapsed time.

:func:`~repro.core.executor.make_executor` imports this module the
first time a ``"sim"`` executor is asked for, so the real backends never
load the modeled cluster.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .engine import Environment
from .worker import Worker
from ..core.executor import Executor, register_backend
from ..core.faults import FaultPlan
from ..core.job import MapReduceJob
from ..core.kvset import KeyValueSet
from ..core.scheduler import ChunkService
from ..core.stats import WorkerStats
from ..hw.node import build_nodes
from ..hw.specs import ACCELERATOR, ClusterSpec
from ..net.fabric import Fabric
from ..net.mpi import Communicator
from ..net.topology import FatTreeTopology, StarTopology
from ..obs import Observability

__all__ = ["GPMRRuntime"]


class GPMRRuntime(Executor):
    """The discrete-event simulation backend.

    Time is modeled: ``JobStats.clock`` is ``"simulated"`` and
    ``elapsed`` is the engine's clock when the last rank finishes.
    Observed runs stamp their spans and events on that clock too.
    """

    name = "sim"

    def __init__(
        self,
        n_gpus: int,
        cluster: ClusterSpec = ACCELERATOR,
        initial_distribution: str = "round_robin",
        network: str = "star",
        oversubscription: float = 1.0,
        fat_tree_radix: int = 2,
        fault_plan: Optional[FaultPlan] = None,
        obs: Optional[Observability] = None,
        trace_path: Optional[str] = None,
        fused: Optional[bool] = None,
    ) -> None:
        super().__init__(
            n_gpus,
            initial_distribution=initial_distribution,
            fault_plan=fault_plan,
            obs=obs,
            trace_path=trace_path,
            fused=fused,
        )
        if n_gpus > cluster.total_gpus:
            raise ValueError(
                f"cluster {cluster.name!r} has {cluster.total_gpus} GPUs, "
                f"requested {n_gpus}"
            )
        if network not in ("star", "fat-tree"):
            raise ValueError("network must be 'star' or 'fat-tree'")
        self.cluster = cluster
        self.network = network
        self.oversubscription = float(oversubscription)
        self.fat_tree_radix = int(fat_tree_radix)

    # -- assembly ----------------------------------------------------------
    def _build(self):
        env = Environment()
        n_gpus = self.n_workers
        n_nodes = self.cluster.nodes_used(n_gpus)
        nodes = build_nodes(env, self.cluster, n_nodes)
        if self.network == "star":
            topo = StarTopology(n_nodes, self.cluster.node.nic)
        else:
            topo = FatTreeTopology(
                n_nodes,
                self.cluster.node.nic,
                radix=self.fat_tree_radix,
                oversubscription=self.oversubscription,
            )
        fabric = Fabric(env, topo, self.cluster.node.cpu)
        placement = self.cluster.placement(n_gpus)
        rank_to_node = [node_i for node_i, _ in placement]
        comm = Communicator(
            env, fabric, rank_to_node,
            message_overhead=self.cluster.node.nic.message_overhead,
        )
        gpus = [nodes[n_i].gpus[g_i] for n_i, g_i in placement]
        return env, nodes, comm, gpus, rank_to_node

    # -- execution -----------------------------------------------------------
    def _run_ranks(
        self,
        job: MapReduceJob,
        service: ChunkService,
        obs: Optional[Observability],
    ) -> Tuple[List[Optional[KeyValueSet]], List[WorkerStats], float]:
        """Run every rank's :class:`~repro.sim.worker.Worker` on a
        freshly built modeled cluster; the engine's clock at the end is
        the run's elapsed time.  A traced run's spans and events are
        stamped with that modeled clock, not this process's wall clock."""
        env, nodes, comm, gpus, rank_to_node = self._build()
        if obs is not None:
            obs.tracer.clock = lambda: env.now
        workers = [
            Worker(
                env=env,
                rank=r,
                gpu=gpus[r],
                node=nodes[rank_to_node[r]],
                comm=comm,
                job=job,
                scheduler=service,
                fault=self.fault_plan,
                obs=obs,
            )
            for r in range(self.n_workers)
        ]
        procs = [env.process(w.run(), name=f"worker{w.rank}") for w in workers]
        env.run(until=env.all_of(procs))
        return [w.result for w in workers], [w.stats for w in workers], env.now


register_backend(GPMRRuntime.name, GPMRRuntime)
