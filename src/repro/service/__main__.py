"""Command-line entry point of the experiment service daemon.

Usage::

    python -m repro.service [--host HOST] [--port PORT] [--root PATH]
        [--queue PATH] [--workers N] [--session-num-workers N]
        [--worker-mode {thread,process}]
        [--gc-interval SECONDS] [--results-max-bytes N]
        [--results-max-age SECONDS] [--shadow-rate RATE]
        [--trace-file PATH] [--lease SECONDS] [--heartbeat SECONDS]
        [--owner-id ID] [--poll SECONDS] [--tokens PATH] [--no-auth]

Without ``--root`` the daemon uses the default store location (the same
``store="auto"`` resolution as everywhere else: ``$REPRO_STORE_DIR``, else
``$XDG_CACHE_HOME/repro/store``, else ``~/.cache/repro/store``).  The job
queue defaults to ``<store root>/service/queue.sqlite3`` and survives
restarts — queued jobs resume, orphaned running jobs are re-queued.
Several daemons may share one ``--queue`` (and store root): each claim
holds a heartbeat-extended lease, so a dead daemon's jobs migrate to its
peers — see ``docs/operations.md`` ("Running multiple daemons").

The process runs in the foreground until interrupted (Ctrl-C / SIGTERM);
see ``docs/operations.md`` for supervision and deployment guidance.
"""

from __future__ import annotations

import argparse
import signal
import sys

from .daemon import ExperimentService, ServiceConfig


def positive_seconds(text: str) -> float:
    """argparse type of ``--lease`` and ``--heartbeat``: seconds, > 0."""
    seconds = float(text)
    if not seconds > 0:
        raise argparse.ArgumentTypeError(f"must be > 0 seconds, got {text}")
    return seconds


def build_parser() -> argparse.ArgumentParser:
    """The daemon's argument parser (shared with the docs examples)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Run the multi-session experiment service daemon.",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="HTTP bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8765,
                        help="HTTP port (default: 8765; 0 binds an ephemeral port)")
    parser.add_argument("--root", default="auto",
                        help="artifact-store root (default: the store='auto' resolution)")
    parser.add_argument("--queue", default=None,
                        help="job-queue database path (default: <store root>/service/queue.sqlite3)")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker-session threads (default: 2)")
    parser.add_argument("--session-num-workers", type=int, default=1,
                        help="per-experiment process fan-out of each worker (default: 1)")
    parser.add_argument("--worker-mode", choices=("thread", "process"), default="thread",
                        help="job execution mode: 'thread' runs sessions in-process, "
                             "'process' isolates each worker's session in a dedicated "
                             "subprocess (crash/memory isolation; default: thread)")
    parser.add_argument("--gc-interval", type=float, default=None, metavar="SECONDS",
                        help="period of the background store-GC sweep (default: off)")
    parser.add_argument("--results-max-bytes", type=int, default=None,
                        help="result-cache size bound applied by the sweep")
    parser.add_argument("--results-max-age", type=float, default=None, metavar="SECONDS",
                        help="result-cache age bound applied by the sweep")
    parser.add_argument("--shadow-rate", type=float, default=None, metavar="RATE",
                        help="fraction of cache hits to shadow-verify against a live "
                             "re-execution (default: off; $REPRO_SHADOW_RATE wins)")
    parser.add_argument("--trace-file", default=None, metavar="PATH",
                        help="JSON-lines file receiving one trace per executed job "
                             "(default: $REPRO_TRACE_FILE, else no tracing sink)")
    parser.add_argument("--lease", type=positive_seconds, default=30.0, metavar="SECONDS",
                        help="job-claim lease duration (> 0); peers reclaim a job "
                             "whose lease expires (default: 30)")
    parser.add_argument("--heartbeat", type=positive_seconds, default=None, metavar="SECONDS",
                        help="lease-extension cadence, > 0 (default: lease/3)")
    parser.add_argument("--owner-id", default=None, metavar="ID",
                        help="lease identity of this daemon (default: a unique "
                             "<hostname>-<pid>-<random>; override for debugging only)")
    parser.add_argument("--poll", type=float, default=0.5, metavar="SECONDS",
                        help="idle-worker queue poll — the discovery latency for "
                             "jobs submitted through, and ?wait= long-polls on jobs "
                             "finished by, a peer daemon (default: 0.5)")
    parser.add_argument("--tokens", default=None, metavar="PATH",
                        help="tokens.json registry enabling bearer-token auth on "
                             "/v1/* (default: $REPRO_API_TOKENS when set, else open)")
    parser.add_argument("--no-auth", action="store_true",
                        help="force open (unauthenticated) mode even when "
                             "$REPRO_API_TOKENS is set")
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns a shell exit code."""
    args = build_parser().parse_args(argv)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        store=args.root,
        queue_path=args.queue,
        workers=args.workers,
        session_num_workers=args.session_num_workers,
        worker_mode=args.worker_mode,
        gc_interval_s=args.gc_interval,
        results_max_bytes=args.results_max_bytes,
        results_max_age_s=args.results_max_age,
        shadow_rate=args.shadow_rate,
        trace_file=args.trace_file,
        owner_id=args.owner_id,
        lease_s=args.lease,
        heartbeat_s=args.heartbeat,
        poll_s=args.poll,
        tokens=args.tokens,
        no_auth=args.no_auth,
    )
    service = ExperimentService(config)

    def _sigterm(signum, frame):
        # translate SIGTERM into the KeyboardInterrupt serve_forever
        # handles, so supervised deployments (systemd, docker stop) drain
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _sigterm)
    service.start()
    print(f"repro.service listening on {service.url}")
    print(f"  store: {service.store.root}")
    print(f"  queue: {service.queue.path} ({service.recovered_jobs} job(s) recovered)")
    print(f"  workers: {service.pool.workers} ({service.pool.worker_mode} mode)")
    print(f"  lease: {service.pool.lease_s}s (owner {service.owner_id})")
    auth = (
        f"on ({len(service.token_registry)} tenant(s))"
        if service.token_registry is not None else "off"
    )
    print(f"  auth: {auth}", flush=True)
    service.serve_forever()
    print("repro.service stopped")
    return 0


if __name__ == "__main__":
    sys.exit(main())
