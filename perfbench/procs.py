"""Program processes started by the benchmark, and their memory."""

from __future__ import annotations

import os
import queue
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import TRACE_DIR_ENV

HERE = Path(__file__).resolve().parent
LAUNCHER = HERE / "launch.py"

#: Seconds a process may take to announce itself or to stop.
READY_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0


def program_env(trace_dir: Path | None = None) -> dict:
    """The environment for program processes: no ``REPRO_*`` knob from
    the caller leaks in; a trace directory turns tracing on."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.pop(TRACE_DIR_ENV, None)
    if trace_dir is not None:
        env[TRACE_DIR_ENV] = str(trace_dir)
    return env


class Child:
    """A launcher subprocess whose stdout lines arrive on a queue.

    Stderr is inherited.  :meth:`wait_line` waits for a line with a
    given prefix (the READY handshake); the reader thread keeps
    draining stdout afterwards, so a chatty child never blocks.
    """

    def __init__(self, args, env: dict) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-u", str(LAUNCHER), *map(str, args)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        self.lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def wait_line(self, prefix: str, timeout: float = READY_TIMEOUT) -> str:
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            try:
                line = self.lines.get(timeout=max(remaining, 0.01))
            except queue.Empty:
                self.stop()
                raise RuntimeError(
                    f"child {self.proc.args} did not print {prefix!r} "
                    f"within {timeout}s"
                ) from None
            if line is None:
                self.proc.wait()
                raise RuntimeError(
                    f"child {self.proc.args} exited with "
                    f"{self.proc.returncode} before printing {prefix!r}"
                )
            if line.startswith(prefix):
                return line

    def send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def wait(self, timeout: float) -> int:
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.stop()
            raise RuntimeError(
                f"child {self.proc.args} still running after {timeout}s"
            ) from None
        self._close()
        return code

    def stop(self, sig=signal.SIGTERM) -> None:
        """Signal the child and wait for it; kill it past the timeout."""
        if self.proc.poll() is None:
            self.proc.send_signal(sig)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._close()

    def _close(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
        self._reader.join(timeout=STOP_TIMEOUT)


def _children() -> dict[int, list[int]]:
    tree: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as f:
                stat = f.read()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after ')'.
        ppid = int(stat.rpartition(")")[2].split()[1])
        tree.setdefault(ppid, []).append(int(entry))
    return tree


def _peak_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mb(root: int) -> float:
    """Sum of the peak resident sets of ``root`` and its live
    descendants, in MiB (an upper bound on their joint peak)."""
    tree = _children()
    total, stack = 0, [root]
    while stack:
        pid = stack.pop()
        total += _peak_kb(pid)
        stack.extend(tree.get(pid, ()))
    return total / 1024
