"""Load generator for ``repro serve`` — the ``BENCH_serve.json`` benchmark.

Spins up a server (as a subprocess, exactly the way an operator would),
hosts N concurrent long-running churn experiments on it, then replays a
high-rate client workload from a pool of spawned **worker processes**, so
the load comes from genuinely independent processes rather than threads
sharing the client's GIL.  The workers' code needs only numpy and the
standard library; they re-import this file, hence the ``__main__`` guard.

The workload mixes the protocol's endpoints the way a device fleet would:

* ``checkin`` — the dominant traffic: batched JSONL device-availability
  events (``batch`` lines per request), targeting the hosted runs'
  scenario dynamics.  Every line counts as one event.
* ``status`` / ``list`` — dashboard-style polls of one run / all runs.
* ``stream``  — short live round-stream reads (``?from=0&max=K``).
* ``submit``  — duplicate submissions of hosted specs, exercising the
  dedupe path (one request, one event).

Latency is measured per request at the client (connect/reuse + request +
full response read) on a keep-alive connection; throughput is events over
the whole mixed-load window.  Per-endpoint rates therefore describe the
endpoint's share of a concurrent mix — not an isolated ceiling — which is
the number an operator actually gets.

Results land in ``BENCH_serve.json``::

    {"meta": {...}, "endpoints": {<name>: {"requests", "events", "errors",
     "latency_ms": {"mean", "p50", "p95", "p99", "max"},
     "events_per_s"}}, "totals": {...}}

Usage::

    python benchmarks/loadgen.py                  # full: 100k events
    python benchmarks/loadgen.py --events 2000    # quick CI pass
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlsplit

import numpy as np

from conftest import SRC_ROOT

ENDPOINTS = ("checkin", "status", "list", "stream", "submit")
#: Seed of the first hosted run; run ``i`` gets ``SEED + i``.
SEED = 42
#: Rounds one stream read asks for (it waits until they exist).
STREAM_MAX = 3


# --------------------------------------------------------------- client side
def _connect(host: str, port: int) -> http.client.HTTPConnection:
    """A keep-alive connection with Nagle off (matches the server side)."""
    conn = http.client.HTTPConnection(host, port, timeout=60)
    conn.connect()
    conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return conn


def _request(
    conn: http.client.HTTPConnection,
    method: str,
    path: str,
    body: Optional[bytes] = None,
) -> Tuple[float, int, bytes]:
    """One timed request on a keep-alive connection: (seconds, status, body)."""
    start = time.perf_counter()
    conn.request(method, path, body=body, headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    data = response.read()
    return time.perf_counter() - start, response.status, data


def _worker_main(args: tuple) -> Dict[str, object]:
    """One load worker's replay loop (module-level: pickled under spawn)."""
    worker_id, host, port, runs, quota, batch = args
    rng = np.random.default_rng(0xBE7C + worker_id)
    latencies: Dict[str, List[float]] = {name: [] for name in ENDPOINTS}
    counts: Dict[str, int] = {name: 0 for name in ENDPOINTS}  # events
    requests: Dict[str, int] = {name: 0 for name in ENDPOINTS}
    errors = 0
    conn = _connect(host, port)

    def fire(endpoint: str, method: str, path: str, body: Optional[bytes], events: int) -> bytes:
        nonlocal conn, errors
        try:
            elapsed, status, data = _request(conn, method, path, body)
        except (http.client.HTTPException, OSError):
            conn.close()
            conn = _connect(host, port)
            elapsed, status, data = _request(conn, method, path, body)
        latencies[endpoint].append(elapsed)
        requests[endpoint] += 1
        counts[endpoint] += events
        if status >= 400:
            errors += 1
        return data

    done = 0
    # Dashboard polls and the rarer stream/submit ops are scheduled by
    # event milestone (not iteration) so the mix holds whatever the
    # check-in batch size: ~40 polls and ~8 stream/submit ops per worker.
    poll_every = max(50, quota // 40)
    rare_every = max(200, quota // 8)
    next_poll, polls = poll_every, 0
    next_rare, rares = rare_every, 0
    while done < quota:
        run = runs[int(rng.integers(len(runs)))]
        if done >= next_rare:
            if rares % 2 == 0:
                fire("stream", "GET", f"/runs/{run['run_id']}/rounds?from=0&max={STREAM_MAX}", None, 1)
            else:
                body = json.dumps({"spec": run["spec"]}).encode()
                fire("submit", "POST", "/runs", body, 1)
            rares += 1
            next_rare += rare_every
            done += 1
        elif done >= next_poll:
            if polls % 2 == 0:
                fire("status", "GET", f"/runs/{run['run_id']}", None, 1)
            else:
                fire("list", "GET", "/runs", None, 1)
            polls += 1
            next_poll += poll_every
            done += 1
        else:
            size = min(batch, quota - done) or 1
            clients = rng.integers(0, run["num_clients"], size=size)
            online = rng.random(size=size) < 0.5
            lines = "".join(
                json.dumps(
                    {"run": run["run_id"], "client": int(client), "online": bool(up)}
                )
                + "\n"
                for client, up in zip(clients, online)
            )
            data = fire("checkin", "POST", "/checkin", lines.encode(), size)
            done += size
            try:
                if json.loads(data).get("accepted", 0) == 0:
                    errors += 1
            except ValueError:
                errors += 1
    conn.close()
    return {
        "latencies": {name: values for name, values in latencies.items()},
        "events": counts,
        "requests": requests,
        "errors": errors,
    }


# --------------------------------------------------------------- server side
def _start_server(results_dir: str, workers: int) -> Tuple[subprocess.Popen, str]:
    """Launch ``repro serve`` as a subprocess and parse its listening URL."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_ROOT) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            "--results-dir",
            results_dir,
            "--workers",
            str(workers),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            if proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with {proc.returncode} before listening")
            continue
        if "listening on" in line:
            url = line.split("listening on", 1)[1].split()[0]
            return proc, url
    proc.kill()
    raise RuntimeError("repro serve did not report a listening address in time")


def _submit_experiments(
    host: str, port: int, experiments: int
) -> List[Dict[str, object]]:
    """Host N long-running churn experiments; returns their run documents."""
    conn = _connect(host, port)
    runs: List[Dict[str, object]] = []
    for index in range(experiments):
        spec = {
            "algorithm": "fedavg",
            "dataset": "mnist",
            "scale": "smoke",
            "scenario": "churn",
            "seed": SEED + index,
            "label": f"loadgen-{index}",
            # A round budget far past the benchmark window: the runs must
            # stay live (accepting check-ins, producing stream records) for
            # the whole replay; they are cancelled afterwards.
            "overrides": {"rounds": 100000},
        }
        _, status, data = _request(
            conn, "POST", "/runs", json.dumps({"spec": spec}).encode()
        )
        if status >= 400:
            raise RuntimeError(f"loadgen submit failed ({status}): {data!r}")
        doc = json.loads(data)
        doc["spec"] = spec
        runs.append(doc)
    # Wait until every run is actually executing (not pool-queued) so the
    # replayed check-ins always hit live dynamics.
    deadline = time.monotonic() + 120
    for doc in runs:
        while time.monotonic() < deadline:
            _, status, data = _request(conn, "GET", f"/runs/{doc['run_id']}")
            state = json.loads(data).get("state")
            if state == "running":
                break
            if state in ("failed", "cancelled"):
                raise RuntimeError(f"loadgen run {doc['run_id']} entered {state}")
            time.sleep(0.1)
        else:
            raise RuntimeError("loadgen runs did not all reach running state")
    conn.close()
    return runs


# -------------------------------------------------------------- aggregation
def _percentiles_ms(samples: List[float]) -> Dict[str, float]:
    if not samples:
        return {"mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}
    array = np.asarray(samples, dtype=np.float64) * 1000.0
    return {
        "mean": float(array.mean()),
        "p50": float(np.percentile(array, 50)),
        "p95": float(np.percentile(array, 95)),
        "p99": float(np.percentile(array, 99)),
        "max": float(array.max()),
    }


def run_loadgen(
    events: int = 100_000,
    experiments: int = 4,
    workers: int = 4,
    batch: int = 200,
    output: Optional[str] = "BENCH_serve.json",
) -> Dict[str, object]:
    """Run the full serve benchmark and write ``output``.

    ``events`` is the total client-event budget across all workers (each
    check-in line, poll, stream read or submit counts as one).  The server
    runs as a subprocess against a temporary results directory with
    ``experiments`` hosted churn runs.
    """
    if experiments < 1 or workers < 1 or events < workers:
        raise ValueError("need at least one experiment, one worker, and one event per worker")
    results_dir = tempfile.TemporaryDirectory(prefix="repro-loadgen-")
    proc = None
    try:
        proc, url = _start_server(results_dir.name, workers=max(experiments, 2))
        parsed = urlsplit(url)
        host, port = parsed.hostname, parsed.port
        runs = _submit_experiments(host, port, experiments)
        run_docs = [
            {"run_id": doc["run_id"], "num_clients": doc["num_clients"], "spec": doc["spec"]}
            for doc in runs
        ]

        quota = events // workers
        remainder = events - quota * workers
        tasks = [
            (index, host, port, run_docs, quota + (1 if index < remainder else 0), batch)
            for index in range(workers)
        ]
        start = time.perf_counter()
        with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn")) as pool:
            reports = list(pool.map(_worker_main, tasks))
        elapsed = time.perf_counter() - start

        # Tear down: cancel the long-running hosts, then drain the server.
        conn = _connect(host, port)
        for doc in run_docs:
            _request(conn, "POST", f"/runs/{doc['run_id']}/cancel", b"")
        _, _, stats_body = _request(conn, "GET", "/stats")
        server_stats = json.loads(stats_body)
        conn.close()
    finally:
        if proc is not None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        results_dir.cleanup()

    endpoints: Dict[str, object] = {}
    total_requests = 0
    total_events = 0
    total_errors = sum(report["errors"] for report in reports)
    for name in ENDPOINTS:
        samples: List[float] = []
        event_count = 0
        request_count = 0
        for report in reports:
            samples.extend(report["latencies"][name])
            event_count += report["events"][name]
            request_count += report["requests"][name]
        endpoints[name] = {
            "requests": request_count,
            "events": event_count,
            "events_per_s": event_count / elapsed if elapsed > 0 else 0.0,
            "requests_per_s": request_count / elapsed if elapsed > 0 else 0.0,
            "latency_ms": _percentiles_ms(samples),
        }
        total_requests += request_count
        total_events += event_count

    results = {
        "meta": {
            "benchmark": "repro serve loadgen",
            "events_target": events,
            "experiments": experiments,
            "client_workers": workers,
            "checkin_batch": batch,
            "timestamp": time.time(),
            "python": sys.version.split()[0],
            "server_checkins_admitted": server_stats.get("checkins"),
        },
        "endpoints": endpoints,
        "totals": {
            "requests": total_requests,
            "events": total_events,
            "errors": total_errors,
            "elapsed_s": elapsed,
            "events_per_s": total_events / elapsed if elapsed > 0 else 0.0,
            "requests_per_s": total_requests / elapsed if elapsed > 0 else 0.0,
        },
    }
    if output:
        path = Path(output)
        path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    return results


def render_loadgen(results: Dict[str, object]) -> str:
    """Human-readable table of a loadgen result document."""
    from repro.experiments.report import format_table

    rows = []
    for name, stats in results["endpoints"].items():
        latency = stats["latency_ms"]
        rows.append(
            [
                name,
                float(stats["requests"]),
                float(stats["events"]),
                round(stats["events_per_s"], 1),
                round(latency["p50"], 2),
                round(latency["p95"], 2),
                round(latency["p99"], 2),
            ]
        )
    totals = results["totals"]
    title = (
        f"repro serve loadgen: {totals['events']} events in "
        f"{totals['elapsed_s']:.1f}s ({totals['events_per_s']:.0f} events/s, "
        f"{totals['errors']} errors)"
    )
    return format_table(
        headers=["endpoint", "requests", "events", "events/s", "p50_ms", "p95_ms", "p99_ms"],
        rows=rows,
        title=title,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--events", type=int, default=100_000, help="total client events")
    parser.add_argument("--experiments", type=int, default=4, help="concurrent hosted runs")
    parser.add_argument("--workers", type=int, default=4, help="client worker processes")
    parser.add_argument("--batch", type=int, default=200, help="check-in events per request")
    parser.add_argument("--output", default="BENCH_serve.json", help="result JSON path")
    args = parser.parse_args()
    results = run_loadgen(
        events=args.events,
        experiments=args.experiments,
        workers=args.workers,
        batch=args.batch,
        output=args.output,
    )
    print(render_loadgen(results))
    print(f"\nresults written to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
