"""Starts the program's processes for run.py, from a process that stays small,
and measures the speed of the CPU they run on while they run.

On Linux a child's peak RSS (``ru_maxrss``) starts at the peak of the
process that started it, and run.py grows large parsing JSON reports.  So
run.py starts this process once, while it is still small, and has it start
every program process instead.

    python spawn.py SOCKET_FD CPU

This process and every program process it starts are pinned to CPU.  A
speed probe thread wakes every PROBE_EVERY_S seconds on that CPU and times a
fixed loop of pure Python (about 0.8 ms on the reference machine); the
median probe time while a program process ran says how fast the CPU was
then.  On a shared virtual machine that speed drifts by a third within
minutes, and the program's times drift with it (correlation 0.95 per
command), so run.py scales its times by the probe.

Each request on the SOCK_SEQPACKET socket is a JSON object ``{"argv",
"timeout"}`` with the child's stdout and stderr descriptors attached; the
child runs under this process's interpreter, environment and directory and
is killed after ``timeout`` seconds.  Each reply is ``{"code", "wall",
"cpu", "rss_kb", "probe"}`` or ``{"error"}``.  An empty message ends the
process.
"""

import json
import os
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import deque

PROBE_EVERY_S = 0.05
PROBE_LOOP = 20_000
PROBE_LEAD_S = 0.2  # probes this long before a child starts also count for it


class SpeedProbe:
    """Times PROBE_LOOP additions every PROBE_EVERY_S seconds, in a thread."""

    def __init__(self):
        self.samples = deque(maxlen=1 << 16)  # (start, seconds)
        self.lock = threading.Lock()
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self._loop, daemon=True)
        self.thread.start()

    def _loop(self) -> None:
        while not self.stop.wait(PROBE_EVERY_S):
            start = time.perf_counter()
            total = 0
            for i in range(PROBE_LOOP):
                total += i
            seconds = time.perf_counter() - start
            with self.lock:
                self.samples.append((start, seconds))

    def median(self, since: float) -> float:
        """Median probe time since ``since``, or the latest one if none."""
        with self.lock:
            recent = [s for t, s in self.samples if t >= since] or [self.samples[-1][1]]
        return statistics.median(recent)

    def close(self) -> None:
        self.stop.set()
        self.thread.join()


def serve(sock: socket.socket, probe: SpeedProbe) -> None:
    while True:
        message, fds, _, _ = socket.recv_fds(sock, 1 << 16, 2)
        if not message:
            return
        request = json.loads(message)
        out, err = fds
        start = time.perf_counter()
        try:
            proc = subprocess.Popen([sys.executable] + request["argv"], stdout=out, stderr=err)
        except OSError as exc:
            reply = {"error": str(exc)}
            proc = None
        finally:
            os.close(out)
            os.close(err)
        if proc is not None:
            timer = threading.Timer(request["timeout"], proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            reply = {"code": proc.returncode, "wall": wall,
                     "cpu": usage.ru_utime + usage.ru_stime, "rss_kb": usage.ru_maxrss,
                     "probe": probe.median(start - PROBE_LEAD_S)}
        sock.send(json.dumps(reply).encode())


def main(argv) -> None:
    fd, cpu = int(argv[0]), int(argv[1])
    os.sched_setaffinity(0, {cpu})
    probe = SpeedProbe()
    # The first sample is taken before any child starts.
    while not probe.samples:
        time.sleep(PROBE_EVERY_S / 5)
    try:
        with socket.socket(fileno=fd) as channel:
            serve(channel, probe)
    finally:
        probe.close()


if __name__ == "__main__":
    main(sys.argv[1:])
