"""The cluster fabric: a real TCP shuffle + control plane for GPMR.

Where the sim *models* the paper's MPI interconnect, this package is an
actual wire, the one both process backends (``local`` on loopback,
``cluster`` on any host) run over:

* :mod:`repro.fabric.wire` — length-prefixed, version-checked framed
  messaging (the protocol both planes speak): pickled frames for the
  control plane, raw-bytes frames for the data plane;
* :mod:`repro.fabric.stream` — the data plane's batch encoding: binary
  KVSet codec manifests plus chunked ``BATCH_DATA`` streaming (batches
  larger than ``max_frame_bytes`` stream instead of failing);
* :mod:`repro.fabric.coordinator` — the driver side: rank registration,
  job broadcast, barrier, runtime chunk service
  (``CHUNK_REQ``/``CHUNK_GRANT`` — pull-based dynamic work stealing),
  result collection, failure detection;
* :mod:`repro.fabric.endpoint` — the rank side, including the
  one-batch-per-(src, dst) all-to-all shuffle over peer TCP sockets;
* :mod:`repro.fabric.launch` — ``python -m repro.fabric.launch`` for
  joining a fabric from another host.

:class:`repro.exec.cluster.ClusterExecutor` (``make_executor("cluster",
n)``) runs the shared :mod:`repro.exec` dataflow over this fabric.
"""

from .coordinator import ClusterTimeout, Coordinator, RankFailure
from .endpoint import RankEndpoint, run_rank
from .stream import recv_batch, send_batch
from .wire import (
    DEFAULT_MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FabricError,
    FrameTooLarge,
    PeerDisconnected,
    ProtocolError,
    ProtocolVersionError,
    TruncatedFrame,
    parse_address,
    recv_frame,
    recv_raw_frame,
    send_frame,
    send_raw_frame,
)

__all__ = [
    "Coordinator",
    "RankEndpoint",
    "run_rank",
    "ClusterTimeout",
    "RankFailure",
    "FabricError",
    "ProtocolError",
    "ProtocolVersionError",
    "FrameTooLarge",
    "TruncatedFrame",
    "PeerDisconnected",
    "PROTOCOL_VERSION",
    "DEFAULT_MAX_FRAME_BYTES",
    "send_frame",
    "recv_frame",
    "send_raw_frame",
    "recv_raw_frame",
    "send_batch",
    "recv_batch",
    "parse_address",
]
