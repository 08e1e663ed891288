"""Reference-speed timing.

The host's speed drifts: the same pure-Python loop takes anywhere between one
and two times its fastest time, in phases from a fraction of a second to a
few seconds long. Every time the benchmark reports is therefore a
reference-speed time: wall time multiplied by REF_NOMINAL_S over the time the
benchmark's own ``reference_loop`` took around the same moments.
"""

import bisect
import hashlib
import resource
import signal
import statistics
import time
from time import perf_counter

REF_ITERATIONS = 100
REF_NOMINAL_S = 0.00015  # the reference loop's time at nominal speed
REF_PERIOD_S = 0.01  # one reference sample per this much wall time
REF_WINDOW_S = 0.02  # samples this close to a call correct its time


def reference_loop() -> int:
    """Fixed pure-Python work, blake2b and dict updates; calls no triplehop code."""
    table: dict[bytes, int] = {}
    digest = b"reference"
    for i in range(REF_ITERATIONS):
        digest = hashlib.blake2b(digest, digest_size=16).digest()
        table[digest[:1]] = table.get(digest[:1], 0) + i
    return len(table)


class RefClock:
    """Times calls and converts them to reference speed.

    Between ``start`` and ``stop`` a SIGALRM interval timer fires every
    REF_PERIOD_S and its handler times one ``reference_loop``. The handler
    runs on the main thread between bytecodes, so the process stays single
    threaded, and it samples the host's speed during a call as well as around
    it. ``flush`` turns each call into a raw time (wall time less the handler
    time inside the call) and a corrected time (raw time multiplied by
    REF_NOMINAL_S over the median sample taken within REF_WINDOW_S of the
    call).
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self.wall: dict[object, list[float]] = {}
        self.raw: dict[object, list[float]] = {}
        self.corrected: dict[object, list[float]] = {}
        self._calls: list[tuple[object, float, float]] = []
        self._previous_handler = None

    def _tick(self, signum, frame) -> None:
        begin = perf_counter()
        reference_loop()
        self.samples.append((begin, perf_counter() - begin))

    def start(self) -> None:
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)

    def stop(self) -> None:
        self.flush()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def time(self, key, fn, *args):
        begin = perf_counter()
        out = fn(*args)
        self._calls.append((key, begin, perf_counter()))
        return out

    def flush(self) -> None:
        """Convert the calls timed so far, once samples after the last exist."""
        if not self._calls:
            return
        time.sleep(REF_WINDOW_S)
        samples = list(self.samples)
        starts = [begin for begin, _ in samples]
        for key, begin, end in self._calls:
            lo = bisect.bisect_left(starts, begin - REF_WINDOW_S)
            hi = bisect.bisect_right(starts, end + REF_WINDOW_S)
            # a call inside one long C call may have no sample near it: use
            # the samples either side
            near = [took for _, took in samples[lo:hi] or samples[max(0, lo - 1) : lo + 1]]
            inside = sum(
                took
                for _, took in samples[
                    bisect.bisect_left(starts, begin) : bisect.bisect_right(starts, end)
                ]
            )
            raw = end - begin - inside
            self.wall.setdefault(key, []).append(end - begin)
            self.raw.setdefault(key, []).append(raw)
            self.corrected.setdefault(key, []).append(raw * REF_NOMINAL_S / statistics.median(near))
        self._calls.clear()

    def sample_times(self) -> list[float]:
        return [took for _, took in self.samples]


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
