"""A host-speed probe interleaved with the measured work.

The benchmark runs on shared virtual machines where the same pure-Python
loop can take twice as long from one minute to the next, because other
tenants compete for the core, the shared cache and memory bandwidth.  Raw
wall and CPU times then differ between runs of identical code by far more
than any bound a regression check could use.

:class:`SpeedProbe` measures that drift while the program runs.  Between
scheduler rounds (the ``on_round`` hook of ``SamplingService.run_all``, so
never during a candidate attempt) it runs a fixed slice of interpreter work
— dict updates plus random reads from a buffer larger than a core's private
caches — at most once per ``PROBE_INTERVAL_S``.  The time a round spent probing is
taken out of the round's times, and the round's times are divided by the
round's *speed factor*: the median probe duration over
``REFERENCE_PROBE_S``.  Timing metrics are therefore in reference seconds:
seconds on a host where the probe takes ``REFERENCE_PROBE_S``.
"""

from __future__ import annotations

import random
import time

from stats import median

#: Probe duration that defines one reference second: about the probe's
#: median between scheduler rounds on a 2-vCPU Xeon virtual machine in a
#: quiet phase, so reference seconds read close to wall seconds there.
REFERENCE_PROBE_S = 0.002
#: Minimum wall time between two probes.
PROBE_INTERVAL_S = 0.1
#: Size of the buffer the probe reads from at random offsets.
BUFFER_BYTES = 32 * 1024 * 1024
#: Random reads and dict updates per probe.
READS = 8000
UPDATES = 2000


class SpeedProbe:
    """Times a fixed probe now and then; tracks how much time probing took."""

    def __init__(self) -> None:
        self._buffer = bytearray(range(256)) * (BUFFER_BYTES // 256)
        generator = random.Random(0)
        self._offsets = [generator.randrange(BUFFER_BYTES) for _ in range(READS)]
        self._last = -float("inf")
        #: Wall and CPU seconds spent probing since construction.
        self.spent_s = 0.0
        self.spent_cpu_s = 0.0
        self.durations: list[float] = []

    def run(self) -> None:
        """Run the probe once and record its duration."""
        start_cpu = time.process_time()
        start = time.perf_counter()
        total = 0
        buffer = self._buffer
        for offset in self._offsets:
            total += buffer[offset]
        counts: dict[int, int] = {}
        for index in range(UPDATES):
            key = (index * 7919 + total) & 63
            counts[key] = counts.get(key, 0) + 1
        end = time.perf_counter()
        self.durations.append(end - start)
        self.spent_s += end - start
        self.spent_cpu_s += time.process_time() - start_cpu
        self._last = end

    def maybe_run(self) -> None:
        """Run the probe if ``PROBE_INTERVAL_S`` passed since the last one."""
        if time.perf_counter() - self._last >= PROBE_INTERVAL_S:
            self.run()

    def now(self) -> float:
        """The clock with all probing time taken out."""
        return time.perf_counter() - self.spent_s

    def factor(self, since: int = 0) -> float:
        """Speed factor of the probes from index ``since`` on (1.0 = reference)."""
        return median(self.durations[since:]) / REFERENCE_PROBE_S
