"""Tests for the command-line tools and the Explorer REST API."""

import json

import pytest

from repro.cli.main import main, make_parser
from repro.web.rest import ExplorerAPI


class TestCli:
    def test_envs_command(self, capsys):
        assert main(["envs"]) == 0
        out = capsys.readouterr().out
        assert "llvm-v0" in out and "gcc-v0" in out

    def test_describe_command(self, capsys):
        assert main(["describe", "--env", "llvm-v0", "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "Action space" in out
        assert "Autophase" in out
        assert "IrInstructionCountOz" in out

    def test_datasets_command(self, capsys):
        assert main(["datasets", "--env", "llvm-v0"]) == 0
        out = capsys.readouterr().out
        assert "cbench-v1" in out
        assert "1041333" in out.replace(",", "")

    def test_random_search_and_validate_round_trip(self, capsys, tmp_path):
        output = str(tmp_path / "results.csv")
        assert (
            main(
                [
                    "random-search",
                    "--benchmark", "benchmark://cbench-v1/crc32",
                    "--steps", "60",
                    "--patience", "10",
                    "--output", output,
                ]
            )
            == 0
        )
        assert main(["validate", output]) == 0
        out = capsys.readouterr().out
        assert "✅" in out

    def test_replay_command(self, capsys, tmp_path):
        output = str(tmp_path / "results.csv")
        main(["random-search", "--benchmark", "benchmark://cbench-v1/crc32", "--steps", "40",
              "--output", output])
        assert main(["replay", output]) == 0

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args([])

    @pytest.mark.parametrize("agent", ["impala", "apex"])
    def test_train_command(self, capsys, tmp_path, agent):
        output = str(tmp_path / "curve.json")
        assert (
            main(
                [
                    "train",
                    "--agent", agent,
                    "--benchmark", "benchmark://cbench-v1/crc32",
                    "--episodes", "3",
                    "--episode-length", "3",
                    "--workers", "2",
                    "--output", output,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert agent in out
        assert "mean episode reward" in out
        with open(output) as f:
            curve = json.load(f)
        assert curve["agent"] == agent
        assert len(curve["episode_rewards"]) == 3


    def test_train_actors_rejects_the_process_backend(self, capsys):
        """``--backend`` offers serial and thread, with or without actors."""
        for actors in ([], ["--actors", "2"]):
            with pytest.raises(SystemExit) as exit_info:
                main(["train", "--agent", "apex", *actors, "--backend", "process"])
            assert exit_info.value.code == 2
            captured = capsys.readouterr()
            assert "invalid choice: 'process'" in captured.err
            assert "mean episode reward" not in captured.out


class TestExplorerApi:
    @pytest.fixture()
    def api(self):
        api = ExplorerAPI()
        yield api
        for session_id in list(api.sessions):
            api.stop(session_id)

    def test_describe(self, api):
        description = api.describe()
        assert len(description["actions"]) == 124
        assert "Autophase" in description["observations"]
        assert "IrInstructionCountOz" in description["rewards"]

    def test_start_step_stop(self, api):
        started = api.start("IrInstructionCount", "benchmark://cbench-v1/crc32")
        session_id = started["session_id"]
        assert started["states"][0]["instruction_count"] > 0
        stepped = api.step(session_id, [1, 2])
        assert len(stepped["states"]) == 2
        assert api.stop(session_id)["status"] == "closed"

    def test_start_with_action_replay(self, api):
        started = api.start("IrInstructionCount", "benchmark://cbench-v1/crc32", actions=[5])
        assert len(started["states"]) == 2

    def test_undo(self, api):
        started = api.start("IrInstructionCount", "benchmark://cbench-v1/crc32")
        session_id = started["session_id"]
        initial = started["states"][0]["instruction_count"]
        api.step(session_id, [api.describe()["actions"].index("mem2reg")])
        undone = api.undo(session_id, 1)
        assert undone["state"]["instruction_count"] == initial

    def test_http_server_round_trip(self):
        import threading
        import urllib.request

        from repro.web.rest import create_server

        server = create_server(port=0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with urllib.request.urlopen(f"http://127.0.0.1:{port}/api/v1/describe") as response:
                payload = json.loads(response.read())
            assert len(payload["actions"]) == 124
        finally:
            server.shutdown()
