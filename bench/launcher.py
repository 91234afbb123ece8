"""Benchmark-owned server processes that cannot hang or leak.

The client side (`Launcher`) starts daemons and gateways as child processes
of their own — `python -m bench.launcher <role>` — on `tcp://127.0.0.1:0`, so
two runs never collide on a port and no server shares the client's GIL. Every
child is reaped on every exit path: `stop()` sends SIGTERM and escalates to
SIGKILL after `TERM_GRACE_S`; `atexit` and the SIGTERM/SIGINT handlers reap
whatever is left; a child whose parent vanished sees EOF on its stdin and
shuts itself down; a watchdog ends a run that outlives its limit.

`keep_awake()` additionally parks one SCHED_IDLE busy loop on every CPU, for a
workload whose processes need both CPUs. On a 2-vCPU VM a closed loop between
processes idles each vCPU thousands of times a second, and how fast a halted
vCPU wakes is the hypervisor's business: the same commit measured 0.4 ms and
4 ms per daemon step minutes apart. A core that never halts takes that out of
the measurement. The loops run only when nothing else wants the CPU, but they
do cost a workload that leaves a CPU free its hyperthread sibling (15-20 % on
the in-process workloads), so only `gateway_vec2` asks for them.

`hop_peer()` starts the process the hop speed reference (reference.py) talks
to.

The server side (`serve`) hosts the unmodified `repro` server, and on
shutdown writes a report — peak RSS, CPU, and its spans when traced — to the
path the client chose.
"""

import argparse
import atexit
import json
import os
import resource
import select
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path
from typing import List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
START_TIMEOUT_S = 60.0
TERM_GRACE_S = 10.0
ENV_ID = "llvm-v0"
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def process_cpu_s(pid: int) -> float:
    """User+system CPU seconds of a live process, read from /proc."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def _popen(arguments: Sequence[str], **kwargs) -> subprocess.Popen:
    """Start `python -m bench.launcher <arguments>` with our stdin pipe held open."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([inherited] if inherited else [])
    )
    return subprocess.Popen(
        [sys.executable, "-m", "bench.launcher", *arguments],
        cwd=ROOT, env=env, text=True, stdin=subprocess.PIPE, **kwargs,
    )


class ServerProcess:
    """One launched server: its process, its URL, and its shutdown report."""

    def __init__(self, role: str, name: str, report_path: Path, traced: bool,
                 daemon_urls: Sequence[str] = ()):
        self.role = role
        self.name = name
        self.report_path = report_path
        command = [role, "--name", name, "--report", str(report_path),
                   "--trace", str(int(traced))]
        for url in daemon_urls:
            command += ["--daemon-url", url]
        self.process = _popen(command, stdout=subprocess.PIPE)
        self._url: Optional[str] = None

    @property
    def url(self) -> str:
        """The URL the server listens on; waits for it to come up. Servers
        started back to back come up in parallel until their URL is asked for."""
        if self._url is None:
            ready, _, _ = select.select([self.process.stdout], [], [], START_TIMEOUT_S)
            line = self.process.stdout.readline().strip() if ready else ""
            if not line.startswith("tcp://"):
                raise RuntimeError(
                    f"{self.name} did not report a URL within {START_TIMEOUT_S:.0f}s "
                    f"(exit code {self.process.poll()}, said {line!r})"
                )
            self._url = line
        return self._url

    def cpu_s(self) -> float:
        return process_cpu_s(self.process.pid)

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self._close_pipes()

    def _close_pipes(self) -> None:
        for pipe in (self.process.stdin, self.process.stdout):
            try:
                pipe.close()
            except OSError:
                pass

    def stop(self) -> Optional[dict]:
        """SIGTERM, then SIGKILL after the grace period. Returns the server's
        shutdown report, or None when it died without writing one."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(TERM_GRACE_S)
            except subprocess.TimeoutExpired:
                pass
        self.kill()
        try:
            with open(self.report_path) as f:
                return json.load(f)
        except (OSError, ValueError):
            return None
        finally:
            self.report_path.unlink(missing_ok=True)


class Launcher:
    """Owns every server process of one benchmark run."""

    def __init__(self, out_dir: Path, run_limit_s: float):
        self.out_dir = out_dir
        self.servers: List[ServerProcess] = []
        self.spinners: List[subprocess.Popen] = []
        self._hop: Optional[subprocess.Popen] = None
        self._hop_peer: Optional[socket.socket] = None
        self._spawned = 0
        out_dir.mkdir(parents=True, exist_ok=True)
        atexit.register(self.close)
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, self._on_signal)
        self._watchdog = threading.Timer(run_limit_s, self._on_overrun, args=(run_limit_s,))
        self._watchdog.daemon = True
        self._watchdog.start()

    def spawn(self, role: str, name: str, traced: bool,
              daemon_urls: Sequence[str] = ()) -> ServerProcess:
        self._spawned += 1
        report = self.out_dir / f".report-{os.getpid()}-{self._spawned}.json"
        server = ServerProcess(role, name, report, traced, daemon_urls)
        self.servers.append(server)
        return server

    def stop(self, server: ServerProcess) -> Optional[dict]:
        self.servers.remove(server)
        return server.stop()

    def keep_awake(self) -> None:
        """One idle-priority busy loop per CPU, for the life of this launcher."""
        for cpu in sorted(os.sched_getaffinity(0)):
            self.spinners.append(_popen(["spin", "--cpu", str(cpu)]))

    def hop_peer(self) -> socket.socket:
        """A connection to a process running `reference.hop_server`, for the
        life of this launcher. The process inherits the caller's CPUs."""
        if self._hop_peer is None:
            self._hop = _popen(["hop"], stdout=subprocess.PIPE)
            ready, _, _ = select.select([self._hop.stdout], [], [], START_TIMEOUT_S)
            port = int(self._hop.stdout.readline()) if ready else 0
            self._hop_peer = socket.create_connection(("127.0.0.1", port), START_TIMEOUT_S)
            self._hop_peer.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return self._hop_peer

    def reap(self) -> None:
        """Kill the servers still running. Idempotent; safe on any exit path."""
        while self.servers:
            server = self.servers.pop()
            server.kill()
            server.report_path.unlink(missing_ok=True)

    def close(self) -> None:
        """Kill every child, the busy loops included, and disarm the watchdog."""
        self._watchdog.cancel()
        self.reap()
        while self.spinners:
            spinner = self.spinners.pop()
            spinner.kill()
            spinner.wait()
            spinner.stdin.close()
        if self._hop is not None:
            self._hop.kill()   # whoever reads from the peer socket sees its end
            self._hop.wait()
            self._hop.stdin.close()
            self._hop.stdout.close()
            self._hop = None
        if self._hop_peer is not None:
            self._hop_peer.close()
            self._hop_peer = None

    def _on_signal(self, signum, frame) -> None:
        del frame
        self.close()
        sys.exit(128 + signum)

    def _on_overrun(self, limit_s: float) -> None:
        print(f"bench: run exceeded {limit_s:.0f}s; killing servers and aborting",
              file=sys.stderr, flush=True)
        self.close()
        os._exit(3)


# -- server side -------------------------------------------------------------------


def _when_orphaned(action) -> None:
    """The parent holds our stdin open and never writes: EOF means it is gone."""
    def watch():
        try:
            sys.stdin.read()
        except (OSError, ValueError):
            pass
        action()

    threading.Thread(target=watch, daemon=True).start()


def spin(cpu: int) -> int:
    """Busy-loop on one CPU at idle priority until the parent goes away."""
    os.sched_setaffinity(0, {cpu})
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except (AttributeError, OSError):
        os.nice(19)
    _when_orphaned(lambda: os._exit(0))
    while True:
        pass


def hop() -> int:
    """Serve the hop speed reference to one client, until it or the parent goes away."""
    from bench.reference import hop_server

    listener = socket.create_server(("127.0.0.1", 0))
    _when_orphaned(lambda: os._exit(0))
    print(listener.getsockname()[1], flush=True)
    peer, _ = listener.accept()
    peer.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    hop_server(peer)
    return 0


def serve(role: str, name: str, report_path: str, traced: bool,
          daemon_urls: Sequence[str]) -> int:
    tracer = None
    if traced:
        from bench.trace import Tracer

        tracer = Tracer(process=name).install()
    if role == "daemon":
        from repro.core.service.runtime.server import make_env_server

        server = make_env_server(ENV_ID, host="127.0.0.1", port=0)
    else:
        from repro.core.service.gateway import ServiceGateway

        server = ServiceGateway(daemon_urls=list(daemon_urls), host="127.0.0.1", port=0)
    if tracer is not None:
        tracer.url = server.url

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: server.request_shutdown())
    _when_orphaned(server.request_shutdown)
    print(server.url, flush=True)
    try:
        server.serve_forever()
    finally:
        if tracer is not None:
            tracer.uninstall()  # shutdown is not part of any benchmark operation
        server.shutdown()

    usage = resource.getrusage(resource.RUSAGE_SELF)
    report = {
        "name": name,
        "role": role,
        "maxrss_kb": usage.ru_maxrss,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "trace": tracer.export() if tracer is not None else None,
    }
    partial = report_path + ".partial"
    with open(partial, "w") as f:
        json.dump(report, f)
    os.replace(partial, report_path)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Host one benchmark child process.")
    parser.add_argument("role", choices=["daemon", "gateway", "spin", "hop"])
    parser.add_argument("--name")
    parser.add_argument("--report")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--daemon-url", action="append", default=[])
    parser.add_argument("--cpu", type=int)
    args = parser.parse_args(argv)
    if args.role == "spin":
        return spin(args.cpu)
    if args.role == "hop":
        return hop()
    return serve(args.role, args.name, args.report, bool(args.trace), args.daemon_url)


if __name__ == "__main__":
    sys.exit(main())
