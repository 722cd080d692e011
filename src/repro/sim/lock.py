"""Binary-semaphore locks for the simulator.

The paper's generic lock macros (§4.1) are set/clear operations on a
shared variable: *any* process may unlock, which both the barrier
algorithm and the Produce/Consume two-lock protocol depend on.  A
:class:`SimLock` therefore has no owner, only a locked flag and a FIFO
waiter queue.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import count

from repro.trace.events import lock_kind

_lock_ids = count(1)


@dataclass
class SimLock:
    """One lock variable as seen by the scheduler."""

    name: str = ""
    locked: bool = False
    waiters: deque = field(default_factory=deque)
    #: Statistics: how many acquisitions ever, and contended ones.
    acquisitions: int = 0
    contended: int = 0

    def __post_init__(self) -> None:
        self.lock_id = next(_lock_ids)
        if not self.name:
            self.name = f"lock{self.lock_id}"
        # The scheduler's trace records, (kind, name, op, text), built
        # once per lock rather than once per lock operation.
        kind, name = lock_kind(self.name), self.name
        self.acquired = (kind, name, "acquire", f"acquired {name}")
        self.waiting = (kind, name, "wait", f"waiting on {name}")
        self.granted = (kind, name, "grant", f"granted {name}")
        self.released = (kind, name, "release", f"released {name}")

    def __hash__(self) -> int:
        return self.lock_id

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "locked" if self.locked else "unlocked"
        return f"<SimLock {self.name} {state} {len(self.waiters)} waiting>"
