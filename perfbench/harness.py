"""The measurement loop shared by all workloads.

A run is a sequence of *units* with one calibration-kernel run before
each and one after the last.  Route mode alternates an in-process cold
route with a batch of cache-hit requests to the daemon; serve mode sends
batches of requests.  Checks run between units, outside every timed
interval.  Every timing is converted to reference seconds with the
kernel runs adjacent to the units it came from.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import shutil
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import checks
import stats
from kernel import K_REF, run_kernel
from workloads import Workload, generate_boards, hit_picks, request_stream

#: Environment pinned for this process (re-exec) and every child.
PINNED_ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

#: Fresh-interpreter startups per run; ``setup_s`` is their median.
SETUP_PROBES = 5

HTTP_TIMEOUT_S = 120.0
SPAWN_TIMEOUT_S = 60.0


def child_env(root: str) -> Dict[str, str]:
    env = dict(os.environ, **PINNED_ENV)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def vm_hwm_mb(pid: Any = "self") -> float:
    """Peak resident set size of a process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


# -- the program's two surfaces ----------------------------------------------


def decode_board(board_json: str):
    """JSON decode of one board document: ``(dict, Board)``."""
    from repro.io import board_from_dict

    board_dict = json.loads(board_json)
    return board_dict, board_from_dict(board_dict)


def encode_result(result, board) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Result and routed-board encode, as the daemon answers a route."""
    from repro.io import board_to_dict, run_result_to_dict

    result_dict = run_result_to_dict(result)
    routed = board_to_dict(board)
    json.dumps({"result": result_dict, "routed_board": routed})
    return result_dict, routed


def route_in_process(board_json: str, cache) -> Dict[str, Any]:
    """One cold route the way the daemon answers a miss, without HTTP.

    ``route_s`` covers JSON decode, ``RoutingSession.run()`` with the
    ``default`` preset and the encode; ``miss_s`` adds the cache-key,
    cache probe and cache write around it.
    """
    import repro.cache as cache_mod
    from repro.api import RoutingSession, SessionConfig

    t0 = time.perf_counter()
    board_dict, board = decode_board(board_json)
    t1 = time.perf_counter()
    config = SessionConfig.preset("default")
    key = cache_mod.cache_key(board_dict, config.fingerprint())
    if cache.get(key) is not None:
        raise RuntimeError("a cold route found its board already cached")
    t2 = time.perf_counter()
    result = RoutingSession(board, config=config).run(capture_errors=True)
    result_dict, routed = encode_result(result, board)
    t3 = time.perf_counter()
    if result.status != "crashed":  # the daemon never caches a crash
        cache.put(key, {"result": result_dict, "routed_board": routed})
    t4 = time.perf_counter()
    return {
        "route_s": (t1 - t0) + (t3 - t2),
        "miss_s": t4 - t0,
        "original": board_dict,
        "result": result_dict,
        "routed": routed,
    }


class Daemon:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, root: str, cache_dir: str) -> None:
        self.cache_dir = cache_dir
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", cache_dir, "--quiet"],
            stdout=subprocess.PIPE,
            env=child_env(root),
            cwd=root,
            text=True,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], SPAWN_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else ""
            if "listening on http://" not in line:
                raise RuntimeError(f"repro serve did not announce its port: {line!r}")
            self.url = line.split("listening on ")[1].split()[0]
            self.client = Client(self.url)
            deadline = time.monotonic() + SPAWN_TIMEOUT_S
            while self.client.get("/healthz")[0] != 200:
                if time.monotonic() > deadline:
                    raise RuntimeError("repro serve never answered /healthz")
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise
        self.spawn_s = time.perf_counter() - started

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class InProcessServer:
    """The daemon hosted on a thread of this process (traced runs), so
    the wrappers see its layers."""

    def __init__(self, cache_dir: str) -> None:
        from repro.server import make_http_server

        self.server = make_http_server(cache_dir, port=0, quiet=True).start_background()
        self.client = Client(self.server.url)

    def stop(self) -> None:
        self.server.shutdown(drain_timeout=10.0)


class Client:
    """Closed-loop HTTP client: one request at a time."""

    def __init__(self, url: str) -> None:
        host, port = url.split("//", 1)[1].rstrip("/").split(":")
        self.host = host
        self.port = int(port)

    def _call(self, method: str, path: str, body: Optional[bytes]) -> Tuple[int, bytes, float]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=HTTP_TIMEOUT_S)
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            started = time.perf_counter()
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            data = response.read()
            return response.status, data, time.perf_counter() - started
        finally:
            conn.close()

    def get(self, path: str) -> Tuple[int, bytes, float]:
        try:
            return self._call("GET", path, None)
        except OSError:
            return 0, b"", 0.0

    def post_route(self, body: bytes) -> Tuple[int, bytes, float]:
        return self._call("POST", "/route", body)


# -- one run -----------------------------------------------------------------


class Run:
    """State and samples of one measured pass."""

    def __init__(self, workload: Workload, seed: int, boards: List[str]) -> None:
        self.workload = workload
        self.seed = seed
        self.boards = boards
        self.kernels: List[float] = []
        #: ``(kernel count, median kernel)``, refreshed when kernels grow.
        self._kernel_p50: Tuple[int, float] = (0, 0.0)
        #: One dict per operation: kind, raw seconds, unit index, ...
        self.ops: List[Dict[str, Any]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: ``[attempted, failed]`` per check kind.
        self.checks: Dict[str, List[int]] = {kind: [0, 0] for kind in checks.KINDS}
        self.members = 0
        self.outside = 0
        self.matched = 0
        self.routed_sha: List[Dict[str, Any]] = []
        #: Canonical ``result`` of every routed board, by board index.
        self.results: Dict[int, str] = {}
        self.recorder = None

    @property
    def unit(self) -> int:
        return len(self.kernels) - 1

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def begin_op(self) -> None:
        self.attempted += 1
        if self.recorder is not None:
            self.recorder.op = len(self.ops)
            self.recorder.active = True

    def end_op(self, **op: Any) -> None:
        if self.recorder is not None:
            self.recorder.active = False
        op["unit"] = self.unit
        self.ops.append(op)

    def tally(self, label: str, outcomes: Dict[str, List[str]]) -> None:
        """Count every check kind in ``outcomes`` for the last op.  An op
        with any failed kind fails once.  An op whose answer is malformed or
        differs from the first answer is left out of every timing: its time
        is not the time of the operation it was meant to be."""
        problems = []
        for kind, found in outcomes.items():
            self.checks[kind][0] += 1
            if found:
                self.checks[kind][1] += 1
                problems.extend(f"{kind}: {p}" for p in found)
        if problems:
            self.fail(f"{label}: " + "; ".join(problems[:3]))
        if outcomes.get("answer") or outcomes.get("hit_match"):
            self.ops[-1]["timed"] = False

    def record_routed(self, label: str, index: int, original, routed, result) -> None:
        outcomes, st = checks.check_routed(original, routed, result)
        self.tally(label, outcomes)
        self.members += st["members"]
        self.outside += st["outside"]
        self.matched += st["matched"]
        self.routed_sha.append({"board": index, "status": result.get("status"), "sha256": st["sha256"]})
        self.results[index] = checks.canonical(result)

    # -- operations ----------------------------------------------------------

    def route_unit(self, index: int, cache) -> None:
        self.begin_op()
        try:
            out = route_in_process(self.boards[index], cache)
        except Exception as exc:  # a crash of the program is a failed op
            self.end_op(kind="route", raw=None, board=index)
            self.tally(f"board {index}", {"answer": [f"{type(exc).__name__}: {exc}"]})
            return
        self.end_op(kind="route", raw=out["route_s"], miss=out["miss_s"], board=index)
        self.record_routed(f"board {index}", index, out["original"], out["routed"], out["result"])

    def request(self, client: Client, index: int, first: bool) -> None:
        text = self.boards[index]
        tail = ',"return_board":true}' if first else "}"
        body = ('{"board":' + text + tail).encode("utf-8")
        kind = "miss" if first else "hit"
        label = f"{kind} board {index}"
        self.begin_op()
        try:
            status, data, latency = client.post_route(body)
        except (OSError, http.client.HTTPException) as exc:
            self.end_op(kind=kind, raw=None, board=index)
            self.tally(label, {"answer": [f"transport {type(exc).__name__}: {exc}"]})
            return
        self.end_op(kind=kind, raw=latency, board=index)
        try:
            envelope = json.loads(data)
        except ValueError:
            self.tally(label, {"answer": [f"HTTP {status}, body is not JSON"]})
            return
        expected_http = {"ok": 200, "failed": 422}.get(envelope.get("status"))
        if status != expected_http:
            self.tally(label, {"answer": [f"HTTP {status} for status {envelope.get('status')!r}"]})
            return
        if envelope.get("cache") != kind:
            self.tally(label, {"answer": [f"expected a cache {kind}, got {envelope.get('cache')!r}"]})
            return
        if first:
            self.record_routed(label, index, json.loads(text), envelope.get("routed_board"), envelope["result"])
            return
        differs = checks.canonical(envelope["result"]) != self.results.get(index)
        self.tally(label, {"answer": [], "hit_match": ["result differs from its miss response"] if differs else []})

    # -- loops ---------------------------------------------------------------

    def measure(self, groups, seconds: Optional[float], max_groups: Optional[int] = None) -> int:
        """Run groups of units, a kernel before each unit and after the
        last, until ``seconds`` of wall time have passed or ``max_groups``
        ran.  A group (a cold route and its hits) is never cut short.
        Returns the number of groups run."""
        self.kernels.append(run_kernel())
        started = time.perf_counter()
        count = 0
        for group in groups:
            if max_groups is not None and count >= max_groups:
                break
            if seconds is not None and time.perf_counter() - started >= seconds:
                break
            for unit in group:
                unit()
                self.kernels.append(run_kernel())
            count += 1
        return count

    def _batches(self, client: Client, requests):
        size = self.workload.batch
        return tuple(
            lambda batch=requests[i:i + size]: [self.request(client, b, first) for b, first in batch]
            for i in range(0, len(requests), size)
        )

    def route_units(self, cache, client: Client):
        picks = hit_picks(self.workload, self.seed, len(self.boards))
        for index in range(len(self.boards)):
            route = lambda index=index: self.route_unit(index, cache)  # noqa: E731
            yield (route,) + self._batches(client, [(b, False) for b in picks[index]])

    def serve_units(self, client: Client):
        stream = request_stream(self.workload, self.seed, len(self.boards))
        size = self.workload.batch
        for start in range(0, len(stream), size):
            yield self._batches(client, stream[start:start + size])

    def units(self, cache, client: Client):
        if self.workload.mode == "route":
            return self.route_units(cache, client)
        return self.serve_units(client)

    # -- calibrated summaries ------------------------------------------------

    def op_factor(self, index: int) -> float:
        """``K_REF / K_adjacent`` of op ``index``.

        For a request, K_adjacent is the kernel run right after its batch:
        a batch lasts about as long as a kernel run, so the two see the
        same machine speed.  An in-process cold route lasts seconds, over
        which the speed swings more than a 50 ms kernel at its edge can
        see; its K_adjacent is the median kernel of the whole run."""
        op = self.ops[index]
        if op["kind"] == "route":
            if self._kernel_p50[0] != len(self.kernels):
                self._kernel_p50 = (len(self.kernels), stats.percentile(self.kernels, 50.0))
            return K_REF / self._kernel_p50[1]
        return K_REF / self.kernels[op["unit"] + 1]

    def timed_ops(self, *kinds: str, field: str = "raw") -> List[int]:
        """Indices of the ops of the given kinds that count in timings:
        not those that crashed or hit a transport error (no time), nor
        those :meth:`tally` left out.  A routed board that fails a
        geometry check still counts: its route ran."""
        return [
            i for i, op in enumerate(self.ops)
            if op["kind"] in kinds and op.get(field) is not None and op.get("timed", True)
        ]

    def calibrated(self, *kinds: str, field: str = "raw") -> List[float]:
        """Reference seconds of the timed ops of the given kinds."""
        return [self.ops[i][field] * self.op_factor(i) for i in self.timed_ops(*kinds, field=field)]

    def samples(self, *kinds: str, field: str = "raw") -> List[float]:
        """Raw seconds of the timed ops of the given kinds."""
        return [self.ops[i][field] for i in self.timed_ops(*kinds, field=field)]

    def route_samples(self) -> List[float]:
        """Per-board cold route reference seconds: in-process routes, or
        daemon misses."""
        return self.calibrated("route" if self.workload.mode == "route" else "miss")


def fresh_dir(parent: str, name: str) -> str:
    path = os.path.join(parent, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def measure_setup(root: str, workdir: str, workload: Workload, seed: int, smoke: bool):
    """``SETUP_PROBES`` fresh startups: each a new interpreter that
    imports ``repro``, generates and encodes the run's inputs, plus a
    daemon spawned until ``/healthz`` answers.  Returns the last daemon
    (left running, with a fresh cache directory), the raw samples and
    each startup's kernel time.

    The kernel runs at the end of the probe, in the probe's own process:
    a kernel run in this process tracks this process's speed, not the
    child's (README.md, "Machine-speed calibration").  Its time is taken
    out of the probe's wall time."""
    probe = os.path.join(root, "perfbench", "setup_probe.py")
    argv = [sys.executable, probe, workload.name, str(seed)] + (["--smoke"] if smoke else [])
    kernels: List[float] = []
    samples: List[float] = []
    daemon: Optional[Daemon] = None
    try:
        for i in range(1 if smoke else SETUP_PROBES):
            started = time.perf_counter()
            out = subprocess.run(
                argv, env=child_env(root), cwd=root, check=True, stdout=subprocess.PIPE, text=True
            ).stdout
            kernel_s = json.loads(out.strip().splitlines()[-1])["kernel_s"]
            probe_s = time.perf_counter() - started - kernel_s
            if daemon is not None:
                daemon.stop()
                daemon = None
            daemon = Daemon(root, fresh_dir(workdir, f"cache-setup{i}"))
            samples.append(probe_s + daemon.spawn_s)
            kernels.append(kernel_s)
    except BaseException:
        if daemon is not None:
            daemon.stop()
        raise
    return daemon, samples, kernels


def end_to_end(root: str, workdir: str, workload: Workload, seed: int, seconds: float, smoke: bool):
    """The untraced run: every end-to-end metric plus diagnostics."""
    from repro.cache import ResultCache

    daemon, setup_raw, setup_kernels = measure_setup(root, workdir, workload, seed, smoke)
    try:
        boards = generate_boards(workload, seed)
        run = Run(workload, seed, boards)
        cache = ResultCache(daemon.cache_dir)
        run.measure(run.units(cache, daemon.client), seconds)
        rss = daemon.peak_rss_mb() if workload.mode == "serve" else vm_hwm_mb()
    finally:
        daemon.stop()

    setup = [stats.calibrate(t, k, K_REF) for t, k in zip(setup_raw, setup_kernels)]
    route = run.route_samples()
    miss = run.calibrated("route", field="miss") if workload.mode == "route" else route
    hits = run.calibrated("hit")
    requests = run.calibrated("hit", "miss")
    route_busy = sum(run.calibrated("route", "miss"))
    busy_s = route_busy + sum(hits)
    hit_sum = stats.summary(hits)

    metrics = {
        "setup_s": (stats.percentile(setup, 50), "s"),
        "route_s.p50": (stats.percentile(route, 50), "s"),
        "members_per_s": (stats.ratio(run.members, busy_s), "1/s"),
        "matched_ratio": (stats.ratio(run.matched, run.outside), "ratio"),
        "ok_ratio": (stats.check_ratio(run.checks), "ratio"),
        "peak_rss_mb": (rss, "MB"),
        "hit_ms.p50": (hit_sum["p50"] * 1e3, "ms"),
        "miss_ms.p50": (stats.percentile(miss, 50) * 1e3, "ms"),
        "requests_per_s": (stats.ratio(len(requests), sum(requests)), "1/s"),
    }
    raw_route = run.samples("route" if workload.mode == "route" else "miss")
    raw_miss = run.samples("route", field="miss") if workload.mode == "route" else raw_route
    diagnostics = {
        "raw": {
            "setup_s": {"samples": setup_raw, "k_probe": setup_kernels},
            "route_s": {**stats.summary(raw_route), "samples": raw_route},
            "miss_ms": stats.summary([t * 1e3 for t in raw_miss]),
            "hit_ms": stats.summary([t * 1e3 for t in run.samples("hit")]),
            "busy_s": sum(run.samples("route", "hit", "miss")),
            "requests_s": sum(run.samples("hit", "miss")),
            "members": run.members,
            "members_outside_tolerance": run.outside,
            "members_matched": run.matched,
        },
        # Reported, not gated: over ten runs its spread exceeded any bound
        # the benchmark format allows (see README.md).
        "hit_ms.p99": hit_sum.get("tail", 0.0) * 1e3,
        "hit_ms.p99_percentile": hit_sum.get("tail_q"),
        "samples": {"routes": len(route), "hits": len(hits), "requests": len(requests)},
        # Share of the calibrated busy time spent on cold routes (misses)
        # and on hits: the measured result of the workload's mix rule.
        "time_share": {
            "routes": stats.ratio(route_busy, busy_s),
            "hits": stats.ratio(sum(hits), busy_s),
        },
        "checks": {kind: {"attempted": a, "failed": f} for kind, (a, f) in run.checks.items()},
        "k_ref": K_REF,
        "kernels": run.kernels,
        "routed_boards": run.routed_sha,
        "failures": run.failures,
    }
    return run, metrics, diagnostics
