"""CLI surface of ``repro simulate``: one (program, configuration) point."""

import json

import pytest

from repro.cli import main as cli_main
from repro.core.runner import set_engine


@pytest.fixture(autouse=True)
def _isolated_default_engine():
    set_engine(None)
    yield
    set_engine(None)


class TestSimulateCommand:
    def test_simulate_monolithic_text(self, capsys):
        assert cli_main(["simulate", "--program", "nasa7",
                         "--config", "reference"]) == 0
        out = capsys.readouterr().out
        assert "nasa7 on reference" in out
        assert "wall time" in out

    def test_simulate_json_document(self, capsys):
        assert cli_main(["simulate", "--program", "nasa7", "--config", "ooo",
                         "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert set(document) == {"result", "wall_s"}
        assert document["result"]["stats"]["cycles"] > 0

    def test_simulate_rejects_unknown_program(self, capsys):
        assert cli_main(["simulate", "--program", "nope"]) == 2
        assert "unknown program" in capsys.readouterr().err

    def test_simulate_rejects_unknown_config(self, capsys):
        assert cli_main(["simulate", "--program", "nasa7",
                         "--config", "warp-drive"]) == 2
        assert "unknown configuration" in capsys.readouterr().err
