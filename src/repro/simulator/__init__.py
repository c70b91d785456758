"""Packet-level discrete-event network simulator (ns-2 substitute).

Event engine, DropTail/RED queues, a bottleneck link, TCP and TFRC
senders, Poisson/CBR probes, the Claim 2 audio source, and the dumbbell
topology (:class:`DumbbellConfig`, :func:`run_dumbbell`) that every
packet-level experiment runs on.  The paper's ns-2, lab and Internet
setups are the scenario families of :mod:`repro.api.scenarios`, which
build their :class:`DumbbellConfig`.
"""

from .engine import Event, Simulator
from .flowstats import FlowStats
from .link import BottleneckLink
from .packets import DEFAULT_PACKET_SIZE, Ack, Packet
from .queues import DropTailQueue, QueueDiscipline, RedQueue
from .scenarios import (
    INTERNET_PATHS,
    DumbbellConfig,
    DumbbellResult,
    run_dumbbell,
)
from .sink import Receiver
from .sources import AudioSource, CbrSource, PoissonSource
from .tcp import TcpSender
from .tfrc import TfrcSender

__all__ = [
    "Event",
    "Simulator",
    "Packet",
    "Ack",
    "DEFAULT_PACKET_SIZE",
    "QueueDiscipline",
    "DropTailQueue",
    "RedQueue",
    "BottleneckLink",
    "Receiver",
    "FlowStats",
    "TcpSender",
    "TfrcSender",
    "PoissonSource",
    "CbrSource",
    "AudioSource",
    "DumbbellConfig",
    "DumbbellResult",
    "run_dumbbell",
    "INTERNET_PATHS",
]
