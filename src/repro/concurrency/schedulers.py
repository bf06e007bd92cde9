"""Schedulers for the cooperative kernel.

A scheduler's only job is to choose, at each scheduling step, which runnable
simulated thread executes next.  All schedulers are deterministic functions
of their construction parameters, so a (scheduler, program) pair always
produces the same interleaving -- the property that makes every bug found by
the harness reproducible.

Available policies:

* :class:`RoundRobinScheduler` -- cycles through runnable threads; useful in
  unit tests that need a predictable interleaving.
* :class:`RandomScheduler` -- uniform random choice from a seeded PRNG; the
  workhorse for the paper's randomized test harness (section 7.1).
* :class:`PCTScheduler` -- the probabilistic concurrency testing discipline
  (priorities plus ``depth - 1`` random priority-change points), which finds
  bugs of small "depth" with provable probability.
* :class:`ReplayScheduler` -- follows an explicit decision vector; the engine
  behind :mod:`repro.concurrency.explore`'s exhaustive enumeration.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence


class Scheduler:
    """Interface: pick the next thread among ``runnable`` (never empty).

    ``runnable`` is the kernel's tuple of READY threads in tid order.  The
    kernel reuses it until a thread's status changes, so a scheduler must
    neither keep it nor rely on it being a fresh object.
    """

    def pick(self, runnable: Sequence, step: int):
        raise NotImplementedError

    def initial_priority(self, thread) -> int:
        """Priority assigned at spawn time (only priority schedulers care)."""
        return 0


class RoundRobinScheduler(Scheduler):
    """Cycle deterministically through runnable threads by thread id."""

    def __init__(self):
        self._last_tid = -1

    def pick(self, runnable: Sequence, step: int):
        for thread in runnable:
            if thread.tid > self._last_tid:
                self._last_tid = thread.tid
                return thread
        chosen = runnable[0]
        self._last_tid = chosen.tid
        return chosen


#: ``n.bit_length()`` for every runnable-tuple length ``n`` below 1024.
_BIT_LENGTH = tuple(n.bit_length() for n in range(1024))


class RandomScheduler(Scheduler):
    """Uniform random scheduling from a seeded PRNG.

    Every syscall is a potential preemption point, so this explores
    fine-grained interleavings; distinct seeds give distinct schedules.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = random.Random(seed)
        self._getrandbits = self._rng.getrandbits  # bound once, not per pick

    def pick(self, runnable: Sequence, step: int):
        # ``Random.choice``'s own draw (rejection sampling on
        # ``getrandbits(n.bit_length())``) without its two Python frames:
        # the same PRNG stream, so the same schedule for every seed
        getrandbits = self._getrandbits
        n = len(runnable)
        try:
            k = _BIT_LENGTH[n]
        except IndexError:  # more runnable threads than the table covers
            k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return runnable[r]


class PCTScheduler(Scheduler):
    """Probabilistic Concurrency Testing (Burckhardt et al.) style scheduler.

    Threads get distinct random priorities; the highest-priority runnable
    thread always runs, except at ``depth - 1`` pre-drawn step indices where
    the running thread's priority is demoted below every other.  With ``d``
    the bug depth, a single run finds the bug with probability
    ``>= 1/(n * k^(d-1))``.

    Parameters
    ----------
    seed: PRNG seed.
    depth: bug depth budget (number of priority change points + 1).
    expected_steps: horizon from which change points are drawn.
    """

    DAEMON_FLOOR = -(10 ** 9)

    def __init__(self, seed: int = 0, depth: int = 3, expected_steps: int = 10_000):
        self.seed = seed
        self.depth = depth
        self._rng = random.Random(seed)
        self._change_points = set(
            self._rng.randrange(expected_steps) for _ in range(max(0, depth - 1))
        )
        self._next_low_priority = -1

    def initial_priority(self, thread) -> int:
        if thread.daemon:
            # Daemons (compression/flush loops) never terminate; under a
            # strict-priority discipline they would starve the application.
            # They run only when every application thread is blocked.
            return self.DAEMON_FLOOR - thread.tid
        return self._rng.randrange(1_000_000)

    def pick(self, runnable: Sequence, step: int):
        chosen = max(runnable, key=lambda t: (t.priority, -t.tid))
        if step in self._change_points:
            chosen.priority = self._next_low_priority
            self._next_low_priority -= 1
            chosen = max(runnable, key=lambda t: (t.priority, -t.tid))
        return chosen


class ReplayScheduler(Scheduler):
    """Follow a recorded decision vector, then fall back to a default policy.

    At step ``i`` the scheduler picks ``runnable[decisions[i]]`` (indices into
    the runnable tuple, which is in tid order).  Once the vector is exhausted it
    delegates to ``fallback`` (round-robin by default).  Every decision made
    -- scripted or fallback -- is appended to :attr:`trace` together with the
    number of alternatives, which is what the exhaustive explorer consumes.
    """

    def __init__(self, decisions: Sequence[int] = (), fallback: Optional[Scheduler] = None):
        self.decisions = list(decisions)
        self.fallback = fallback or RoundRobinScheduler()
        self.trace: List[tuple] = []  # (chosen_index, num_choices)
        self._cursor = 0

    def pick(self, runnable: Sequence, step: int):
        if self._cursor < len(self.decisions):
            index = self.decisions[self._cursor]
            if index >= len(runnable):
                index = len(runnable) - 1
            self._cursor += 1
            chosen = runnable[index]
        else:
            chosen = self.fallback.pick(runnable, step)
            index = runnable.index(chosen)
        self.trace.append((index, len(runnable)))
        return chosen
