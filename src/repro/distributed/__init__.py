"""Distributed self-diagnosis (the paper's further-research direction).

The protocol actually runs here: :class:`~repro.distributed.engine.\
ProtocolEngine` floods invitations and convergecasts reports as real messages
over a channel with per-link latency, loss and duplicate-delivery models,
supports several concurrent known-healthy roots, and records replayable
traces.  :mod:`repro.distributed.simulator` keeps the original analytical
model (:func:`derived_run_stats`) the engine is property-tested against.
"""

from .engine import GossipOutcome, ProtocolEngine, SetBuilderOutcome, spread_roots
from .events import ChannelConfig, EventLog, Message, replay_stats
from .simulator import (
    DistributedRunStats,
    derived_run_stats,
    extended_star_gossip_cost,
)

__all__ = [
    "ChannelConfig",
    "DistributedRunStats",
    "EventLog",
    "GossipOutcome",
    "Message",
    "ProtocolEngine",
    "SetBuilderOutcome",
    "derived_run_stats",
    "extended_star_gossip_cost",
    "replay_stats",
    "spread_roots",
]
