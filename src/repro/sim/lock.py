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
        # The scheduler's trace texts, formatted once per lock rather
        # than once per lock operation.
        self.acquired_text = f"acquired {self.name}"
        self.waiting_text = f"waiting on {self.name}"
        self.granted_text = f"granted {self.name}"
        self.released_text = f"released {self.name}"

    def __hash__(self) -> int:
        return self.lock_id

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "locked" if self.locked else "unlocked"
        return f"<SimLock {self.name} {state} {len(self.waiters)} waiting>"
