"""Call tracer that wraps library functions from outside the library.

Each wrapped name records its call count, busy time (wall time inside the
call) and self time (busy time minus the busy time of the wrapped calls made
inside it).  Several patch sites may share one name, so ``sw_greedy`` called
from ``crowdmarket.simulation`` and from ``crowdmarket.mechanism`` lands in one
``allocation.sw_greedy`` record.

A wrapper may carry a hook that runs after the call returns, to count work or
check an invariant on the result.  Hook time is excluded from every span and
is reported on its own as ``hooks_s``, so the self times plus ``hooks_s``
still partition the traced interval.
"""

from __future__ import annotations

import time


class Tracer:
    def __init__(self) -> None:
        self.records: dict[str, list] = {}  # name -> [calls, busy_s, self_s]
        self.hooks_s = 0.0
        self._stack: list[float] = []  # busy time of wrapped children, per open span
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, hook=None):
        rec = self.records.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                elapsed = t1 - t0
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                hook(result, args, kwargs)
                spent = clock() - t1
                self.hooks_s += spent
                if stack:
                    stack[-1] += spent
            return result

        return traced

    def patch(self, owner, attr: str, name: str, hook=None) -> None:
        """Replace ``owner.attr`` (a module global or a class method) by a wrapper."""
        original = vars(owner)[attr]
        setattr(owner, attr, self.wrap(name, original, hook))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        """Zero every record in place; wrappers keep writing to the same lists."""
        for rec in self.records.values():
            rec[:] = [0, 0.0, 0.0]
        self.hooks_s = 0.0

    def calls(self, name: str) -> int:
        return self.records.get(name, [0])[0]

    def busy_s(self, name: str) -> float:
        return self.records.get(name, [0, 0.0])[1]

    def self_s(self, name: str) -> float:
        return self.records.get(name, [0, 0.0, 0.0])[2]

    def total_self_s(self) -> float:
        return sum(rec[2] for rec in self.records.values())

    def total_calls(self) -> int:
        return sum(rec[0] for rec in self.records.values())


def wrapper_cost_ns(calls: int = 100_000, repeats: int = 5) -> float:
    """Per-call cost of a wrapper around a no-op, best of ``repeats``."""

    def noop():
        return None

    wrapped = Tracer().wrap("noop", noop)
    clock = time.perf_counter
    best = float("inf")
    for _ in range(repeats):
        t0 = clock()
        for _ in range(calls):
            noop()
        t1 = clock()
        for _ in range(calls):
            wrapped()
        t2 = clock()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return best * 1e9
