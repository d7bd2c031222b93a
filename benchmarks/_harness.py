"""Helpers shared by the benchmark modules."""

#: report blocks collected during the session, printed by the conftest's
#: ``pytest_terminal_summary`` hook — after capture has ended, so they are
#: visible under plain ``pytest -q`` as well as ``-s``
REPORTS: list[tuple[str, str]] = []


#: the one :class:`repro.api.Session` of the pytest session, opened by the
#: first :func:`session` call and closed by ``benchmarks/conftest.py``
SESSION = None


def session():
    """The benchmark run's session, resolved from the ``REPRO_*`` environment."""
    global SESSION
    if SESSION is None:
        from repro.api import Session

        SESSION = Session()
    return SESSION


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func(*args, engine=..., **kwargs)`` once under pytest-benchmark.

    ``engine`` is the session's engine, so every benchmark shares one
    result store.  The simulations are deterministic; a single round both
    times the experiment and produces the data for the printed report.
    """
    kwargs["engine"] = session().engine
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


def emit(title: str, body: str) -> None:
    """Queue a report block for the end-of-run terminal summary.

    ``print`` under the default capture mode lands in pytest's per-test
    buffer and is discarded for passing tests, so ``pytest -q`` used to
    swallow every report.  Blocks are now collected here and written by
    ``pytest_terminal_summary`` (see ``benchmarks/conftest.py``), which runs
    after capture has been torn down.
    """
    REPORTS.append((title, body))


def render_report(title: str, body: str) -> str:
    bar = "=" * 78
    return f"\n{bar}\n{title}\n{bar}\n{body}"
