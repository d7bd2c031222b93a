"""Path bootstrap and engine wiring for the benchmark harness.

Makes ``repro`` importable straight from a source checkout (mirrors the
top-level conftest) and ensures the helper module ``_harness`` resolves.

The benchmark modules pull all simulation results through the engine of
one :class:`repro.api.Session` (``_harness.session()``), opened at the
first benchmark and closed at the end of the pytest session.  The session
resolves its settings from these environment variables:

* ``REPRO_CACHE_DIR`` — persistent on-disk result store (the object store
  under ``$REPRO_CACHE_DIR/objects/``) shared with
  ``python -m repro.cli run-all``; a warmed cache makes the whole benchmark
  suite skip simulation entirely (compiled traces are memoised under
  ``$REPRO_CACHE_DIR/traces/`` too);
* ``REPRO_JOBS``      — worker processes used for missing grid points
  (one pool, started at the first miss and reused for every grid);
* ``REPRO_FLEET``     — local fleet workers to delegate missing points to
  (0, the default, runs them in-process).
"""

import os
import sys

_HERE = os.path.dirname(__file__)
_SRC = os.path.join(os.path.dirname(_HERE), "src")

for path in (_HERE, _SRC):
    if path not in sys.path:
        sys.path.insert(0, path)


def pytest_terminal_summary(terminalreporter):
    """Print the queued exhibit reports, then the engine's work summary.

    This hook runs after pytest's capture has been torn down, so the report
    blocks reach the terminal under plain ``pytest -q`` — ``emit`` used to
    ``print`` them from inside tests, where passing-test capture silently
    swallowed every block.
    """
    import _harness

    for title, body in _harness.REPORTS:
        terminalreporter.write_line(_harness.render_report(title, body))
    _harness.REPORTS.clear()

    if _harness.SESSION is not None:
        engine = _harness.SESSION.engine
        if engine.simulated or engine.disk_hits or engine.memory_hits:
            terminalreporter.write_line(engine.summary())


def pytest_unconfigure(config):
    """Close the benchmark session: its worker pool and fleet workers exit."""
    import _harness

    if _harness.SESSION is not None:
        _harness.SESSION.close()
        _harness.SESSION = None
