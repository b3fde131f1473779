"""Deploying the program the way it is served, and taking it down.

Everything the benchmark writes lives under one work directory inside
the checkout (``.perfbench/<pid>``), removed at the end of the run.
Servers are started with ``python -m repro`` — or, in the traced run,
through ``perfbench/traced.py``, which installs the span wrappers and
then runs the same command — on ephemeral ports discovered through
``--port-file``. :meth:`Fleet.stop` sends SIGTERM, waits for every
server *and* its pool workers to exit, and kills what does not.

Memory is read from ``/proc``: the summed proportional set size of a
server and its descendants (mmap-shared snapshot pages count once
across them), or an in-process ``VmHWM``.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Seconds a server may take to come up before the run fails.
READY_TIMEOUT = 90.0


class SetupError(RuntimeError):
    """The deployment could not be brought up."""


def environment(work: "WorkDir") -> Dict[str, str]:
    """Child-process environment: the checkout's ``src`` first on the
    import path, temporary files inside the work directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                      else []))
    env["TMPDIR"] = str(work.path / "tmp")
    return env


class WorkDir:
    """A scratch directory under the checkout, removed on close."""

    def __init__(self) -> None:
        self.path = ROOT / ".perfbench" / str(os.getpid())
        shutil.rmtree(self.path, ignore_errors=True)
        (self.path / "tmp").mkdir(parents=True)
        self._serial = 0

    def fresh(self, name: str) -> Path:
        """A new, empty subdirectory path (not created)."""
        self._serial += 1
        return self.path / f"{name}-{self._serial}"

    def close(self) -> None:
        """Delete everything the run wrote."""
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass


def build(work: WorkDir, plan: dict) -> dict:
    """Run :mod:`build_snapshot` in a child process; returns its
    report (timings and published paths)."""
    plan = dict(plan, store=str(work.fresh("store")),
                shard_root=str(work.fresh("shards")))
    proc = subprocess.run(
        [sys.executable, str(HERE / "build_snapshot.py"),
         json.dumps(plan)],
        env=environment(work), cwd=ROOT, capture_output=True, text=True,
        timeout=600)
    if proc.returncode != 0:
        raise SetupError(f"snapshot build failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------
def pss_kib(pid: int) -> int:
    """Proportional set size of one process in KiB (0 once gone)."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid`` (children, grandchildren …)."""
    parents: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        parents.setdefault(int(fields[1]), []).append(int(entry))
    out: List[int] = []
    frontier = [pid]
    while frontier:
        kids = parents.get(frontier.pop(), [])
        out.extend(kids)
        frontier.extend(kids)
    return out


def own_peak_mb() -> float:
    """This process's peak resident set (``VmHWM``) in MiB."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class MemorySampler:
    """Peak of the summed PSS of a set of process trees, sampled by
    the load generator whenever it would otherwise sleep."""

    #: Seconds between samples.
    INTERVAL = 0.25

    def __init__(self, roots: Sequence[int]) -> None:
        self.roots = list(roots)
        self.peak_mb = 0.0
        self._last = 0.0

    def sample(self) -> None:
        """Take one sample now."""
        self._last = time.perf_counter()
        pids = list(self.roots)
        for root in self.roots:
            pids.extend(descendants(root))
        total = sum(pss_kib(pid) for pid in pids) / 1024.0
        self.peak_mb = max(self.peak_mb, total)

    def maybe(self, until: float) -> None:
        """Sample if one is due and there is slack before ``until``
        (a ``perf_counter`` deadline)."""
        now = time.perf_counter()
        if now - self._last >= self.INTERVAL and until - now > 0.02:
            self.sample()


# ----------------------------------------------------------------------
# servers
# ----------------------------------------------------------------------
class Server:
    """One ``python -m repro`` server process."""

    def __init__(self, work: WorkDir, name: str, cli: Sequence[str],
                 trace_role: Optional[str] = None) -> None:
        self.name = name
        self.port_file = work.path / f"{name}.port"
        self.log_path = work.path / f"{name}.log"
        self.spans_path = (work.path / f"{name}.spans.json"
                           if trace_role else None)
        if self.port_file.exists():
            self.port_file.unlink()
        if trace_role:
            argv = [sys.executable, str(HERE / "traced.py"), trace_role,
                    str(self.spans_path), "--"]
        else:
            argv = [sys.executable, "-m", "repro"]
        argv += list(cli) + ["--port", "0", "--port-file",
                             str(self.port_file)]
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            argv, env=environment(work), cwd=ROOT, stdout=self._log,
            stderr=subprocess.STDOUT, preexec_fn=_die_with_parent)
        self.url: Optional[str] = None

    def wait_ready(self, deadline: float) -> str:
        """Block until the port file appears and ``/healthz``
        answers; returns the base URL."""
        from repro.service.client import ServiceClient
        from repro.exceptions import ServiceError

        while True:
            if self.proc.poll() is not None:
                raise SetupError(f"{self.name} exited with "
                                 f"{self.proc.returncode}:\n"
                                 f"{self.log_tail()}")
            if time.perf_counter() > deadline:
                raise SetupError(f"{self.name} not ready in time:\n"
                                 f"{self.log_tail()}")
            text = (self.port_file.read_text()
                    if self.port_file.exists() else "")
            if text.endswith("\n"):
                host, port = text.split()
                url = f"http://{host}:{port}"
                with ServiceClient(url, timeout=5.0) as probe:
                    try:
                        probe.health()
                    except ServiceError:
                        time.sleep(0.01)
                        continue
                self.url = url
                return url
            time.sleep(0.01)

    def log_tail(self) -> str:
        """The last lines the server printed."""
        self._log.flush()
        try:
            return self.log_path.read_text()[-2000:]
        except OSError:
            return ""

    def stop(self) -> None:
        """SIGTERM, wait for the process and its descendants, kill
        leftovers."""
        family = descendants(self.proc.pid) if self.proc.poll() is None \
            else []
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        give_up = time.perf_counter() + 15.0
        for pid in family:
            while _alive(pid) and time.perf_counter() < give_up:
                time.sleep(0.02)
            if _alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        self._log.close()


def _die_with_parent() -> None:
    """In the child before exec: ask the kernel for SIGTERM when the
    benchmark process dies, so a killed run leaves no server behind."""
    import ctypes

    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGTERM)


def _alive(pid: int) -> bool:
    """Whether ``pid`` still exists (and is not a zombie)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


class Fleet:
    """The servers of one deployment, started and stopped together."""

    def __init__(self) -> None:
        self.servers: List[Server] = []

    def start(self, server: Server) -> Server:
        """Track a launched server."""
        self.servers.append(server)
        return server

    def wait_ready(self) -> None:
        """Wait for every tracked server."""
        deadline = time.perf_counter() + READY_TIMEOUT
        for server in self.servers:
            if server.url is None:
                server.wait_ready(deadline)

    @property
    def pids(self) -> List[int]:
        """Root pids of the deployment."""
        return [server.proc.pid for server in self.servers]

    def stop(self) -> None:
        """Stop everything, front end first."""
        for server in reversed(self.servers):
            server.stop()
        self.servers = []
