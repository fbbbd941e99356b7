"""repro — a full reproduction of GPMR (Stuart & Owens, IPDPS 2011).

"Multi-GPU MapReduce on GPU Clusters" on a simulated GPU-cluster
substrate: a discrete-event engine with the ``"sim"`` backend's worker,
binner and runtime on top (:mod:`repro.sim`), calibrated
GPU/PCI-e/network hardware models (:mod:`repro.hw`, :mod:`repro.net`),
CUDPP-style primitives (:mod:`repro.primitives`), the GPMR pipeline
itself (:mod:`repro.core`), the paper's five benchmarks
(:mod:`repro.apps`), the Phoenix and Mars baselines
(:mod:`repro.baselines`), and a harness regenerating every table and
figure (:mod:`repro.harness`).

Execution is pluggable (:mod:`repro.core.executor`): the same job runs
on the simulated cluster (``"sim"``), on real ``multiprocessing``
workers (``"local"``, :mod:`repro.exec`), or serially in-process
(``"serial"``), with bit-identical results.

Quickstart::

    from repro.core import make_executor
    from repro.apps import wo_job, wo_dataset

    ds = wo_dataset(n_chars=1 << 20)
    job = wo_job(n_gpus=4)
    result = make_executor("sim", 4).run(job, ds)      # modeled cluster
    result = make_executor("local", 4).run(job, ds)    # real processes
    print(result.stats.describe())
"""

from .core import (
    JobResult,
    KeyValueSet,
    MapReduceJob,
    PipelineConfig,
    make_executor,
)
from .obs import Observability

__version__ = "1.1.0"

__all__ = [
    "__version__",
    "JobResult",
    "KeyValueSet",
    "MapReduceJob",
    "PipelineConfig",
    "Observability",
    "make_executor",
]
