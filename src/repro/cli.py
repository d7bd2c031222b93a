"""Command-line experiment driver — a thin adapter over :mod:`repro.api`.

``python -m repro.cli run-all`` reproduces every table and figure of the
paper's evaluation in one command, batched through the experiment engine::

    python -m repro.cli run-all --scale small --jobs 4 --cache-dir .repro-cache

* ``--scale``     — ``small`` (the paper-harness default) or ``full`` (the
  largest built-in scale, aliased to the workload scale ``medium``);
* ``--jobs``      — fan the missing simulation points of each exhibit's grid
  out across that many worker processes (one pool for the whole run);
* ``--cache-dir`` — persistent on-disk store (an S3-style filesystem
  bucket under ``<cache-dir>/objects/``, holding the results and the
  compiled workload traces): a second run of the same command performs
  **zero** simulations and only re-renders reports;
* ``--format``    — ``text`` (ASCII reports, the default), ``json`` (one
  machine-readable document) or ``csv`` (flat ``exhibit,path,value`` rows);
* ``--exhibits``  — comma-separated subset (e.g. ``figure5,figure8``);
* ``--programs``  — comma-separated subset of the ten benchmark programs.

* ``--fleet``     — delegate missing simulation points to ``N`` fleet
  worker processes coordinating through the object-store bucket under the
  cache directory (requires ``--cache-dir``; ``REPRO_FLEET`` sets the
  default).  External workers sharing the bucket join in; spawned ones
  write their progress to stderr.  The points they publish count as disk
  hits.

``python -m repro.cli worker --store-root D`` runs one fleet worker
against the bucket under ``D`` — the claim → simulate → publish loop of
:mod:`repro.fleet.worker`.  Start any number, on any host that can see
``D``; SIGTERM drains gracefully.  See the README's FLEET section.

``python -m repro.cli gc --cache-dir D`` evicts the result and trace
objects that are corrupt, version-stale or no longer validate, one line
per namespace (a finished fleet task leaves nothing under ``queue/``);
``python -m repro.cli list`` prints the available exhibits and programs.

Every flag is an *explicit* setting in the sense of
:meth:`repro.api.Settings.resolve`: a flag the user passes always wins, an
omitted flag falls back to the matching ``REPRO_*`` environment variable,
then to the documented default.  All simulation, caching and rendering
happens inside a single :class:`repro.api.Session`; this module only
parses flags and prints.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Sequence

from repro.analysis.exhibits import EXHIBIT_NAMES
from repro.api import (
    SCALE_ALIASES,
    ExhibitSet,
    Session,
    Settings,
    machine_config,
    machine_names,
)
from repro.api.request import split_names
from repro.common.errors import ReproError
from repro.workloads.registry import WORKLOAD_NAMES

#: run-all output formats
FORMATS = ("text", "json", "csv")


def _parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="Reproduce the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_all = sub.add_parser("run-all", help="produce every table and figure")
    run_all.add_argument("--scale", choices=sorted(SCALE_ALIASES), default="small",
                         help="experiment scale (full = largest built-in scale)")
    run_all.add_argument("--jobs", type=int, default=None, metavar="N",
                         help="worker processes for missing simulation points")
    run_all.add_argument("--fleet", type=int, default=None, metavar="N",
                         help="delegate missing points to N fleet workers "
                              "sharing the cache dir's object-store bucket "
                              "(default: $REPRO_FLEET or 0 = disabled)")
    run_all.add_argument("--cache-dir", default=None, metavar="D",
                         help="persistent on-disk result store directory")
    run_all.add_argument("--format", choices=FORMATS, default="text",
                         help="output format (default: text)")
    run_all.add_argument("--exhibits", default=None, metavar="NAMES",
                         help="comma-separated exhibit subset (default: all)")
    run_all.add_argument("--programs", default=None, metavar="NAMES",
                         help="comma-separated program subset (default: all)")

    simulate = sub.add_parser(
        "simulate", help="simulate one (program, configuration) point")
    simulate.add_argument("--program", required=True, metavar="NAME",
                          help="benchmark program (see `list`)")
    simulate.add_argument("--config", default="ooo", metavar="NAME",
                          help="standard configuration or registered machine "
                               "model at its default parameters (see `list`; "
                               "default: ooo)")
    simulate.add_argument("--scale", choices=sorted(SCALE_ALIASES),
                          default="small", help="workload scale")
    simulate.add_argument("--format", choices=("text", "json"), default="text",
                          help="output format (default: text)")

    gc = sub.add_parser("gc", help="evict stale/corrupt result and trace objects")
    gc.add_argument("--cache-dir", required=True, metavar="D",
                    help="result store directory to collect")

    worker = sub.add_parser(
        "worker",
        help="run one fleet worker against an object-store bucket")
    worker.add_argument("--store-root", required=True, metavar="D",
                        help="the shared store root (a Session's cache dir); "
                             "the queue and results live under D/objects/")
    worker.add_argument("--max-tasks", type=int, default=None, metavar="N",
                        help="exit after executing N tasks (default: no limit)")
    worker.add_argument("--lease-ttl", type=float, default=None, metavar="S",
                        help="task lease time-to-live in seconds; a worker "
                             "dead longer than this forfeits its task "
                             "(default: 30)")
    worker.add_argument("--poll", type=float, default=None, metavar="S",
                        help="seconds between polls of an empty queue "
                             "(default: 0.5)")
    worker.add_argument("--idle-timeout", type=float, default=None, metavar="S",
                        help="exit after this many seconds without claimable "
                             "work (default: poll forever)")
    worker.add_argument("--worker-id", default=None, metavar="ID",
                        help="stable worker identity for lease records "
                             "(default: host-pid-random)")

    sub.add_parser("list", help="list available exhibits and programs")
    return parser.parse_args(argv)


def _error(message: object) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _session_settings(args: argparse.Namespace) -> Settings:
    """Resolve :class:`Settings` from the flags the user actually passed.

    Omitted flags are *not* forwarded, so the resolver's documented
    precedence applies: explicit flag > ``REPRO_*`` environment > default.
    """
    overrides: dict[str, Any] = {}
    for field in ("cache_dir", "jobs", "fleet"):
        value = getattr(args, field, None)
        if value is not None:
            overrides[field] = value
    return Settings.resolve(**overrides)


def _cmd_list() -> int:
    print("exhibits:", ", ".join(EXHIBIT_NAMES))
    print("programs:", ", ".join(WORKLOAD_NAMES))
    print("machines:", ", ".join(machine_names()))
    print("scales:  ", ", ".join(sorted(SCALE_ALIASES)))
    print("formats: ", ", ".join(FORMATS))
    return 0


def _cmd_gc(args: argparse.Namespace) -> int:
    try:
        with Session(_session_settings(args)) as session:
            collected = session.gc()
            kept, evicted = collected["results"]
            print(f"gc ({session.store.describe()}): {kept} kept, "
                  f"{evicted} evicted")
            tkept, tevicted = collected["traces"]
            print(f"gc (traces): {tkept} kept, {tevicted} evicted")
    except ReproError as exc:
        return _error(exc)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    import json as _json

    try:
        config = machine_config(args.config)
        session = Session(_session_settings(args))
    except ReproError as exc:
        return _error(exc)
    with session:
        started = time.perf_counter()
        try:
            result = session.simulate(args.program, config, scale=args.scale)
        except ReproError as exc:
            return _error(exc)
        elapsed = time.perf_counter() - started
    if args.format == "json":
        payload = {"result": result.to_dict(), "wall_s": round(elapsed, 4)}
        print(_json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(result)
        print(f"wall time: {elapsed:.2f}s")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.fleet.worker import Worker

    # only the flags the user gave: the worker and its queue check them
    given: dict[str, Any] = {
        "worker_id": args.worker_id, "lease_ttl": args.lease_ttl,
        "poll_s": args.poll, "max_tasks": args.max_tasks,
        "idle_timeout": args.idle_timeout}
    try:
        worker = Worker(
            args.store_root,
            log=lambda message: print(message, file=sys.stderr, flush=True),
            **{name: value for name, value in given.items() if value is not None},
        )
    except ReproError as exc:
        return _error(exc)
    worker.install_signal_handlers()
    print(f"worker {worker.worker_id} polling {worker.store_root}",
          file=sys.stderr, flush=True)
    try:
        worker.run()
    except ReproError as exc:
        return _error(exc)
    print(worker.summary(), file=sys.stderr, flush=True)
    return 0


def _cmd_run_all(args: argparse.Namespace) -> int:
    # Empty subsets get flag-specific messages here; unknown names are
    # rejected by the session with the same error text the CLI always used.
    exhibit_names = split_names(args.exhibits)
    if exhibit_names is not None and not exhibit_names:
        return _error("--exhibits selected nothing; available: "
                      + ", ".join(EXHIBIT_NAMES))
    programs = split_names(args.programs)
    if programs is not None and not programs:
        return _error("--programs selected nothing; available: "
                      + ", ".join(WORKLOAD_NAMES))
    try:
        session = Session(_session_settings(args))
    except ReproError as exc:
        return _error(exc)
    if session.settings.fleet and session.settings.cache_dir is None:
        session.close()
        return _error("--fleet requires --cache-dir (or REPRO_CACHE_DIR): "
                      "workers coordinate through the object store under it")

    with session:
        computed = []
        started = time.perf_counter()
        try:
            for exhibit in session.iter_exhibits(
                names=exhibit_names, programs=programs, scale=args.scale,
            ):
                computed.append(exhibit)
                if args.format == "text":
                    print("=" * 78)
                    print(f"{exhibit.title}  [{exhibit.name}, "
                          f"{exhibit.elapsed_s:.2f}s]")
                    print("=" * 78)
                    print(exhibit.render())
                    print()
        except ReproError as exc:
            return _error(exc)
        total = time.perf_counter() - started

        if args.format != "text":
            exhibit_set = ExhibitSet(
                scale=args.scale,
                programs=programs,
                exhibits=tuple(computed),
                engine_summary=session.engine_summary(),
            )
            print(exhibit_set.to_json() if args.format == "json"
                  else exhibit_set.to_csv())

        # In json/csv mode the human-readable trailer goes to stderr so
        # stdout stays a single parseable document.
        trailer = sys.stdout if args.format == "text" else sys.stderr
        print("-" * 78, file=trailer)
        print(f"{len(computed)} exhibit(s) at scale '{args.scale}' "
              f"in {total:.2f}s", file=trailer)
        print(session.summary(), file=trailer)
        if session.settings.cache_dir:
            print(f"cache dir: {session.settings.cache_dir}", file=trailer)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "gc":
        return _cmd_gc(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "worker":
        return _cmd_worker(args)
    return _cmd_run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
