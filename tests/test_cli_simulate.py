"""CLI surface of ``repro simulate``: one (program, configuration) point."""

import json

from test_runner import pool_model  # noqa: F401  (fixture)

from repro.cli import main as cli_main


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

    def test_simulate_accepts_a_registered_machine(self, capsys, pool_model):  # noqa: F811
        # --config resolves any registered model at its default parameters
        assert cli_main(["simulate", "--program", "nasa7",
                         "--config", pool_model.NAME, "--format", "json"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["config_name"] == pool_model.NAME
        assert result["stats"]["cycles"] > 0

    def test_simulate_rejects_unknown_program(self, capsys):
        assert cli_main(["simulate", "--program", "nope"]) == 2
        assert "unknown program" in capsys.readouterr().err

    def test_simulate_rejects_unknown_config(self, capsys):
        assert cli_main(["simulate", "--program", "nasa7",
                         "--config", "warp-drive"]) == 2
        err = capsys.readouterr().err
        # the error lists both kinds of name --config accepts
        assert "unknown configuration" in err
        assert "ooo-late" in err and "machines: reference" in err
