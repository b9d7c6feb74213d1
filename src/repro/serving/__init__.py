"""Multi-client serving gateway over the dynamic clusterer (DESIGN.md §14).

Layers, bottom up:

* :mod:`repro.serving.epoch` — immutable published label snapshots
  (:class:`LabelEpoch`): the snapshot-isolation mechanism;
* :mod:`repro.serving.requests` — the request/response vocabulary and
  the four terminal statuses (ok/shed/expired/rejected);
* :mod:`repro.serving.gateway` — :class:`ServingGateway`: write
  coalescing, commit-time validation, admission accounting, and the
  committed-batch log the equivalence gate replays;
* :mod:`repro.serving.drivers` — the deterministic simulated-clock
  driver and the real-thread driver;
* :mod:`repro.serving.workload` — seeded mixed read/write workload
  generation (open/closed-loop arrivals).

Wall-clock serving latency under open-loop load is measured by the
``serve-open`` workload of ``perfbench/`` (see perfbench/README.md).
"""

from repro.serving.drivers import DriverResult, SimulatedDriver, ThreadedDriver
from repro.serving.epoch import LabelEpoch, label_digest
from repro.serving.gateway import GatewayPolicy, ServingGateway, replay_digests
from repro.serving.requests import Request, Response
from repro.serving.workload import WorkloadSpec

__all__ = [
    "DriverResult",
    "GatewayPolicy",
    "LabelEpoch",
    "Request",
    "Response",
    "ServingGateway",
    "SimulatedDriver",
    "ThreadedDriver",
    "WorkloadSpec",
    "label_digest",
    "replay_digests",
]
