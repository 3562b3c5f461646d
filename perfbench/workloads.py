"""The three workloads: how each task or request is run, timed and judged.

cold-explore and cold-prove run every task in a fresh `task.exe` child,
one at a time (a closed loop), as one `cspc` call would.  serve-mixed
drives one `cspc serve --jobs 2` over two closed-loop connections that a
single client multiplexes with select.

Every timed operation becomes a Sample.  A pass runs each task kind of
the workload once, plus the interactive probes, in an order shuffled by
the workload seed, so a slow phase of the host hits every kind alike.
"""

import json
import os
import random
import re
import selectors
import socket
import subprocess
import time
from dataclasses import dataclass, field

import known

OUT = os.path.join("perfbench", "_out")
INPUTS = os.path.join(OUT, "inputs")
TASK = os.path.join("_build", "default", "perfbench", "task.exe")
CSPC = os.path.join("_build", "default", "bin", "cspc.exe")

TASK_TIMEOUT_S = 60.0
TRACE_SLICE_S = 2.0  # serve-mixed alternates untraced and traced slices
MIN_P99_SAMPLES = 1000
PROBE = "parse-protocol"

COLD = {
    "cold-explore": {
        "tasks": ["workers-10", "workers-12", "chain-7", "phil-5-lefty", "phil-5-sym", "commit-6", "ring-10"],
        "probes_per_pass": 250,
    },
    "cold-prove": {
        "tasks": [
            "prove-protocol",
            "check-multiplier",
            "prove-window",
            "refine-window-2-d12",
            "refine-window-3-d12",
            "refine-commit-6-d10",
            "family-leader-d16",
            "family-ring-d16",
            "family-workers-d6",
            "family-workers-d8",
            "check-copier-must-fail",
        ],
        "probes_per_pass": 120,
    },
}

INTERACTIVE = ["i.graph-phil-4", "i.graph-commit-4", "i.refine-window-2-d8", "i.refine-ring-10-d12", "i.parse-multiplier"]
BATCH = ["b.prove-protocol", "b.fuzz-60", "b.graph-workers-12", "b.refine-window-2-d12"]
WORKLOADS = ["cold-explore", "cold-prove", "serve-mixed"]


@dataclass
class Sample:
    kind: str
    ms: float  # time to verdict as the caller sees it
    outcome: str  # decided / undecided / failed
    interactive: bool
    traced: bool
    t_start: float = 0.0  # perf_counter at send/spawn
    detail: dict = field(default_factory=dict)
    error: str = ""


class BenchError(Exception):
    pass


def passes(workload, seed):
    """The task order of each pass of a cold workload, endlessly: every
    task kind once and the probes, shuffled by the seed.  run_cold runs
    exactly these."""
    rng = random.Random(seed)
    cfg = COLD[workload]
    while True:
        order = cfg["tasks"] + [PROBE] * cfg["probes_per_pass"]
        rng.shuffle(order)
        yield order


def cycles(seed, conn):
    """The request kinds one serve-mixed connection sends, endlessly: each
    cycle is every kind of the connection once, shuffled.  A connection
    has a generator of its own, seeded from the workload seed and its
    name, so its order does not depend on when the other one's answers
    arrive.  run_serve sends exactly these."""
    rng = random.Random(f"{seed}:{conn}")
    kinds = INTERACTIVE if conn == "interactive" else BATCH
    while True:
        cycle = list(kinds)
        rng.shuffle(cycle)
        yield from cycle


# ---- processes ------------------------------------------------------------


def spawn(argv, timeout=TASK_TIMEOUT_S):
    """Run argv to completion.  Returns (exit code, stdout, stderr,
    seconds from spawn to reaped, max RSS in KiB, wall clock at reap)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    sel = selectors.DefaultSelector()
    sel.register(p.stdout, selectors.EVENT_READ)
    sel.register(p.stderr, selectors.EVENT_READ)
    chunks = {p.stdout: [], p.stderr: []}
    deadline = t0 + timeout
    while sel.get_map():
        left = deadline - time.perf_counter()
        if left <= 0:
            p.kill()
            os.wait4(p.pid, 0)
            p.returncode = -9
            sel.close()
            p.stdout.close()
            p.stderr.close()
            return (-9, b"", b"timed out", time.perf_counter() - t0, 0, time.time())
        for key, _ in sel.select(timeout=left):
            data = os.read(key.fd, 1 << 16)
            if data:
                chunks[key.fileobj].append(data)
            else:
                sel.unregister(key.fileobj)
    sel.close()
    _, status, usage = os.wait4(p.pid, 0)
    t1 = time.perf_counter()
    wall1 = time.time()
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stdout.close()
    p.stderr.close()
    return (p.returncode, b"".join(chunks[p.stdout]), b"".join(chunks[p.stderr]), t1 - t0, usage.ru_maxrss, wall1)


def render():
    rc, _, err, _, _, _ = spawn([TASK, "render", INPUTS])
    if rc != 0:
        raise BenchError("rendering the inputs failed: " + err.decode(errors="replace"))


# ---- cold workloads ------------------------------------------------------


def run_child(kind, traced):
    argv = [TASK, "run", kind, "--inputs", INPUTS]
    spawn_s = time.time()
    if traced:
        argv += ["--trace", "--spawn-s", repr(spawn_s)]
    t_start = time.perf_counter()
    rc, out, err, secs, rss_kb, wall1 = spawn(argv)
    s = Sample(kind, secs * 1000.0, "failed", kind == PROBE, traced, t_start)
    s.detail = {"rss_kb": rss_kb, "spawn_s": spawn_s, "wall1": wall1}
    text = out.decode(errors="replace").strip().splitlines()
    if rc != 0 or not text:
        s.error = f"exit {rc}: {err.decode(errors='replace').strip()} {out.decode(errors='replace').strip()}"
        return s
    try:
        answer = json.loads(text[-1])
    except ValueError:
        s.error = "unreadable answer: " + text[-1][:500]
        return s
    s.detail["answer"] = answer
    s.outcome = known.classify(kind, answer["verdict"], answer["facts"])
    if s.outcome == "failed":
        s.error = f"verdict {answer['verdict']} {answer['facts']} contradicts {known.KNOWN[kind]}: " + " | ".join(
            answer.get("lines", [])
        )
    return s


def run_cold(workload, seed, seconds, trace, log):
    """Closed loop over whole passes until `seconds` have elapsed and the
    interactive probe has at least MIN_P99_SAMPLES untraced samples.  With
    `trace`, odd passes are traced and even ones are not."""
    samples = []
    probes = 0
    t0 = time.perf_counter()
    for n, order in enumerate(passes(workload, seed)):
        traced = trace and n % 2 == 1
        for kind in order:
            s = run_child(kind, traced)
            samples.append(s)
            if s.outcome == "failed":
                log(f"FAILED {kind}: {s.error}")
        if not traced:
            probes += COLD[workload]["probes_per_pass"]
        if time.perf_counter() - t0 >= seconds and probes >= MIN_P99_SAMPLES:
            break
    return {"samples": samples, "wall_s": time.perf_counter() - t0}


# ---- serve-mixed -----------------------------------------------------------


def _read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def serve_requests(seed):
    src = {name: _read(os.path.join(INPUTS, name)) for name in ["phil-4-lefty.csp", "commit-4.csp", "window-2.csp", "ring-10.csp", "workers-12.csp"]}
    protocol = _read(os.path.join("examples", "protocol.csp"))
    multiplier = _read(os.path.join("examples", "multiplier.csp"))

    def graph(name, nat):
        return {"op": "graph", "source": src[name], "process": "net", "nat": nat, "max_states": 20000}

    def refine(name, depth):
        return {"op": "refine", "source": src[name], "impl": "sys", "spec": "spec", "depth": depth, "nat": 3}

    return {
        "i.graph-phil-4": graph("phil-4-lefty.csp", 4),
        "i.graph-commit-4": graph("commit-4.csp", 3),
        "i.refine-window-2-d8": refine("window-2.csp", 8),
        "i.refine-ring-10-d12": refine("ring-10.csp", 12),
        "i.parse-multiplier": {"op": "parse", "source": multiplier},
        "b.prove-protocol": {"op": "prove", "source": protocol},
        "b.fuzz-60": {"op": "fuzz", "seed": seed, "count": 60},
        "b.graph-workers-12": graph("workers-12.csp", 3),
        "b.refine-window-2-d12": refine("window-2.csp", 12),
    }


GRAPH_LINE = re.compile(r"^(\d+) states, (\d+) transitions(.*); deterministic=\w+; deadlock states: (\d+)")
FUZZ_LINE = re.compile(r"(\d+) case\(s\) in .*; (\d+) counterexample\(s\)")
TESTED = re.compile(r"\((\d+) by testing\)")


def judge_response(kind, resp):
    """(verdict, facts) of one serve response, read from the text the
    one-shot CLI would print."""
    if not resp.get("ok"):
        return "error", {"error": resp.get("error")}
    op = resp.get("op")
    out = resp.get("output", "")
    if op == "graph":
        m = GRAPH_LINE.match(out)
        if not m:
            return "error", {}
        states, trans, extra, dead = int(m.group(1)), int(m.group(2)), m.group(3), int(m.group(4))
        facts = {"states": states, "transitions": trans, "deadlocks": dead}
        if dead > 0:
            return "deadlock", facts
        return ("undecided" if "truncated" in extra else "deadlock-free"), facts
    if op == "refine":
        if "trace-refines" in out:
            return "refines", {}
        return ("not-refines" if "NOT a refinement" in out else "error"), {}
    if op == "prove":
        lines = out.splitlines()
        proved = sum(1 for line in lines if line.startswith("PROVED"))
        failed = sum(1 for line in lines if line.startswith("FAILED"))
        tested = sum(int(m.group(1)) for m in map(TESTED.search, lines) if m)
        facts = {"proved": proved, "failed": failed, "tested_obligations": tested}
        return ("proved" if failed == 0 and proved > 0 else "undecided"), facts
    if op == "fuzz":
        m = FUZZ_LINE.search(out)
        if not m:
            return "error", {}
        return ("agrees" if int(m.group(2)) == 0 else "disagrees"), {"cases": int(m.group(1))}
    if op == "parse":
        return ("parsed" if resp.get("exit") == 0 and out.strip() else "error"), {}
    return "error", {}


class Conn:
    def __init__(self, path, name):
        self.name = name
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.buf = b""
        self.pending = None  # (kind, t_send, traced)
        self.kinds = None  # the kinds still to send, from cycles()
        self.next_id = 0

    def send(self, req):
        self.next_id += 1
        req = dict(req, id=self.next_id)
        self.sock.sendall(json.dumps(req).encode() + b"\n")

    def recv_line(self, timeout=TASK_TIMEOUT_S):
        deadline = time.perf_counter() + timeout
        while b"\n" not in self.buf:
            left = deadline - time.perf_counter()
            if left <= 0:
                raise BenchError(f"{self.name}: no answer within {timeout} s")
            self.sock.settimeout(left)
            data = self.sock.recv(1 << 20)
            if not data:
                raise BenchError(f"{self.name}: server closed the connection")
            self.buf += data
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def call(self, req, timeout=TASK_TIMEOUT_S):
        self.send(req)
        return self.recv_line(timeout)

    def close(self):
        self.sock.close()


class Server:
    """One `cspc serve --jobs 2` child."""

    def __init__(self, sock_path, warm=None):
        self.path = sock_path
        if os.path.exists(sock_path):
            os.unlink(sock_path)
        argv = [CSPC, "serve", "--socket", sock_path, "--jobs", "2"]
        if warm:
            argv += ["--warm", warm]
        self.proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        self.rss_kb = 0

    def connect(self, name, timeout=TASK_TIMEOUT_S):
        deadline = time.perf_counter() + timeout
        while True:
            try:
                c = Conn(self.path, name)
                if c.call({"op": "ping"}).get("ok"):
                    return c
                c.close()
            except (FileNotFoundError, ConnectionRefusedError):
                pass
            if self.proc.poll() is not None:
                raise BenchError(f"cspc serve exited with {self.proc.returncode} before answering")
            if time.perf_counter() > deadline:
                raise BenchError("cspc serve did not answer")
            time.sleep(0.002)

    def stop(self):
        """Shut down and reap; records the server's max RSS."""
        if self.proc.returncode is not None:
            return
        try:
            c = Conn(self.path, "shutdown")
            c.call({"op": "shutdown"}, timeout=10)
            c.close()
        except (OSError, BenchError):
            self.proc.kill()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.rss_kb = usage.ru_maxrss
        except ChildProcessError:
            pass


def serve_setup(seed):
    """Render and parse-check the inputs, fill a cold server with one
    request of every kind and save its snapshot, then warm-start the
    measured server from it and wait until it answers.  Returns the
    running server, the warm-start time and the server's counts right
    after the warm start."""
    render()
    snap = os.path.join(OUT, "serve.snapshot")
    reqs = serve_requests(seed)
    cold = Server(os.path.join(OUT, "cold.sock"))
    try:
        c = cold.connect("fill")
        for kind in INTERACTIVE + BATCH:
            resp = c.call(reqs[kind])
            if not resp.get("ok"):
                raise BenchError(f"filling the cold server: {kind}: {resp}")
        if not c.call({"op": "save", "path": snap}).get("ok"):
            raise BenchError("saving the snapshot failed")
        c.close()
    finally:
        cold.stop()
    t0 = time.perf_counter()
    warm = Server(os.path.join(OUT, "warm.sock"), warm=snap)
    try:
        c = warm.connect("probe")
        warm_ms = (time.perf_counter() - t0) * 1000.0
        counts = c.call({"op": "stats"})
        c.close()
    except BaseException:
        warm.stop()
        raise
    return warm, warm_ms, counts


def run_serve(server, seed, seconds, trace, log):
    """Two closed-loop connections until `seconds` have elapsed and every
    interactive kind has MIN_P99_SAMPLES untraced samples; each connection cycles
    through its kinds in a seeded shuffled order.  With `trace`,
    requests sent in odd TRACE_SLICE_S slices ask for per-request stats."""
    reqs = serve_requests(seed)
    conns = [Conn(server.path, "interactive"), Conn(server.path, "batch")]
    for c in conns:
        c.kinds = cycles(seed, c.name)
    sel = selectors.DefaultSelector()
    for c in conns:
        c.sock.setblocking(True)
        sel.register(c.sock, selectors.EVENT_READ, c)
    samples = []
    t0 = time.perf_counter()

    def send_next(c):
        kind = next(c.kinds)
        now = time.perf_counter()
        traced = trace and int((now - t0) / TRACE_SLICE_S) % 2 == 1
        req = dict(reqs[kind], stats=True) if traced else reqs[kind]
        c.pending = (kind, time.perf_counter(), traced)
        c.send(req)

    # untraced samples per interactive kind: the percentiles are taken
    # over these in both modes
    measured = {k: 0 for k in INTERACTIVE}

    for c in conns:
        send_next(c)
    open_conns = len(conns)
    last = t0
    while open_conns:
        events = sel.select(timeout=TASK_TIMEOUT_S)
        if not events:
            raise BenchError("serve: no answer within the task time limit")
        for key, _ in events:
            c = key.data
            data = c.sock.recv(1 << 20)
            if not data:
                raise BenchError(f"serve: {c.name} connection closed")
            c.buf += data
            while b"\n" in c.buf and c.pending:
                line, c.buf = c.buf.split(b"\n", 1)
                t1 = time.perf_counter()
                last = t1
                kind, ts, traced = c.pending
                c.pending = None
                resp = json.loads(line)
                verdict, facts = judge_response(kind, resp)
                s = Sample(kind, (t1 - ts) * 1000.0, "failed", c.name == "interactive", traced, ts)
                s.detail = {"elapsed_ms": resp.get("elapsed_ms", 0.0), "facts": facts, "stats": resp.get("stats", {}), "source_bytes": len(reqs[kind].get("source", ""))}
                s.outcome = known.classify(kind, verdict, facts) if verdict != "error" else "failed"
                if s.outcome == "failed":
                    s.error = f"verdict {verdict} {facts}: {json.dumps(resp)[:2000]}"
                    log(f"FAILED {kind}: {s.error}")
                samples.append(s)
                if s.interactive and not s.traced:
                    measured[kind] += 1
                if t1 - t0 < seconds or min(measured.values()) < MIN_P99_SAMPLES:
                    send_next(c)
                else:
                    sel.unregister(c.sock)
                    open_conns -= 1
    sel.close()
    stats = conns[0].call({"op": "stats"})
    for c in conns:
        c.close()
    return {"samples": samples, "t0": t0, "wall_s": last - t0, "server_stats": stats}
