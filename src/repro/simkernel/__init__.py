"""A minimal, deterministic discrete-event simulation kernel.

This package is the timing substrate of the reproduction: every
performance experiment runs on a simulated clock so results are exact and
hardware-independent.  The API intentionally mirrors simpy (which is not
available offline): processes are generators yielding events.
"""

from repro.simkernel.env import Environment, Process
from repro.simkernel.events import AllOf, AnyOf, Event, Now, Race, Timeout
from repro.simkernel.network import Network, NetworkSpec
from repro.simkernel.resources import Resource

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Network",
    "NetworkSpec",
    "Now",
    "Process",
    "Race",
    "Resource",
    "Timeout",
]
