"""The cluster fabric: a real TCP shuffle + control plane for GPMR.

Where the sim *models* the paper's MPI interconnect, this package is an
actual wire, the one both process backends (``local`` on loopback,
``cluster`` on any host) run over:

* :mod:`repro.fabric.wire` — length-prefixed, version-checked framed
  messaging (the protocol both planes speak): pickled frames for the
  control plane, raw-bytes frames for the data plane;
* :mod:`repro.fabric.stream` — the data plane's batch encoding: one
  ``BATCH`` frame (binary KVSet codec manifest) followed by the raw
  key/value bytes, outside the frame bound, for the shuffle and for
  each rank's output behind its ``RESULT`` frame;
* :mod:`repro.fabric.coordinator` — the driver side: one admission
  routine for rank registration and mid-run replacement, the ASSIGN
  reply, runtime chunk service (``CHUNK_REQ``/``CHUNK_GRANT`` —
  pull-based dynamic work stealing), result collection, failure
  detection;
* :mod:`repro.fabric.endpoint` — the rank side (``HELLO`` once, then
  ``ASSIGN`` -> pull -> ``RESULT`` per run until the coordinator hangs
  up), including the one-batch-per-(src, dst) all-to-all shuffle over
  peer TCP sockets;
* :mod:`repro.fabric.launch` — ``python -m repro.fabric.launch`` for
  joining a fabric from another host.

:class:`repro.exec.cluster.ClusterExecutor` (``make_executor("cluster",
n)``) runs the shared :mod:`repro.exec` dataflow over this fabric.
"""

from .coordinator import ClusterTimeout, Coordinator, RankFailure
from .endpoint import RankEndpoint, run_rank
from .stream import recv_batch, send_batch
from .wire import (
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
    "send_frame",
    "recv_frame",
    "send_raw_frame",
    "recv_raw_frame",
    "send_batch",
    "recv_batch",
    "parse_address",
]
