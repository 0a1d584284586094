"""Tests for the command-line interface."""

import pytest

from repro.cli import _parse_seeds, _parse_values, build_parser, main


class TestParsing:
    def test_parse_seeds(self):
        assert _parse_seeds("0,1,2") == (0, 1, 2)
        assert _parse_seeds("5") == (5,)
        assert _parse_seeds("3, 4 ,") == (3, 4)

    def test_parse_values_mixed(self):
        assert _parse_values("1,2.5,10") == [1, 2.5, 10]

    def test_parser_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheme", "bogus"])

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_schemes_lists_all(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        for scheme in ("dctcp", "dibs", "pfabric", "dctcp-pfc"):
            assert scheme in out

    def test_topo_fattree(self, capsys):
        assert main(["topo", "--topology", "fattree", "--k", "4"]) == 0
        out = capsys.readouterr().out
        assert "fattree-k4" in out
        assert "16" in out  # hosts

    def test_topo_jellyfish_seeded(self, capsys):
        assert main(["topo", "--topology", "jellyfish", "--seed", "3"]) == 0
        assert "jellyfish" in capsys.readouterr().out

    def test_run_tiny_scenario(self, capsys):
        code = main([
            "run", "--scheme", "dibs", "--qps", "80", "--duration-s", "0.03",
            "--drain-s", "0.3", "--incast-degree", "6", "--no-background",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "dibs" in out
        assert "qct_p99_ms" in out

    def test_run_background_only(self, capsys):
        code = main([
            "run", "--scheme", "dctcp", "--duration-s", "0.03", "--drain-s", "0.2",
            "--no-query", "--bg-interarrival-s", "0.01",
        ])
        assert code == 0
        assert "dctcp" in capsys.readouterr().out

    def test_sweep_two_points(self, capsys):
        code = main([
            "sweep", "--param", "buffer_pkts", "--values", "10,30",
            "--schemes", "dibs", "--duration-s", "0.02", "--drain-s", "0.2",
            "--incast-degree", "6", "--qps", "100", "--no-background",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "buffer_pkts" in out
        assert "dibs:qct_p99_ms" in out

    def test_run_with_detour_policy(self, capsys):
        code = main([
            "run", "--scheme", "dibs", "--detour-policy", "load-aware",
            "--duration-s", "0.02", "--drain-s", "0.2", "--qps", "100",
            "--incast-degree", "6", "--no-background",
        ])
        assert code == 0

    @pytest.mark.parametrize("command", [
        ["run", "--seeds", "0,1"],
        ["run", "--seeds", "0,1", "--workers", "2"],
        ["sweep", "--param", "buffer_pkts", "--values", "10", "--seeds", "0,1"],
    ])
    def test_several_seeds_into_one_trace_file_are_refused(self, command, tmp_path, capsys):
        # The trace file is opened for writing: without '{seed}' in its
        # path only the last seed's trace would survive.
        code = main(command + [
            "--duration-s", "0.02", "--drain-s", "0.2", "--qps", "100",
            "--incast-degree", "6", "--no-background",
            "--trace-file", str(tmp_path / "t.jsonl"),
        ])
        assert code == 1
        assert "{seed}" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, name", [
        ("--trace-file", "t_{seed}.jsonl"),
        ("--heartbeat-path", "hb_{seed}.jsonl"),
        ("--flight-recorder", "flight_{seed}"),
    ])
    def test_several_cells_into_one_path_are_refused(self, flag, name, tmp_path, capsys):
        # The cells of a sweep share their seeds, so '{seed}' alone would
        # let each cell overwrite the last one's output.
        extra = ["--heartbeat", "0.5"] if flag == "--heartbeat-path" else []
        code = main([
            "sweep", "--param", "buffer_pkts", "--values", "10,30", "--schemes", "dibs",
            "--seeds", "0", "--duration-s", "0.02", "--drain-s", "0.2", "--qps", "100",
            "--incast-degree", "6", "--no-background",
            flag, str(tmp_path / name), *extra,
        ])
        assert code == 1
        assert "{cell}" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_cell_placeholder_names_each_cell_by_its_journal_key(self, tmp_path, capsys):
        import json

        journal = tmp_path / "journal"
        code = main([
            "sweep", "--param", "buffer_pkts", "--values", "10,30", "--schemes", "dibs",
            "--seeds", "0", "--duration-s", "0.02", "--drain-s", "0.2", "--qps", "100",
            "--incast-degree", "6", "--no-background", "--journal-dir", str(journal),
            "--trace-file", str(tmp_path / "t_{cell}.jsonl"),
        ])
        assert code == 0
        capsys.readouterr()
        traces = sorted(tmp_path.glob("t_*.jsonl"))
        keys = sorted(path.stem for path in journal.glob("*.json"))
        # One trace per cell, named by the prefix of the key --resume
        # looks the cell up under, and each labelled with its own cell.
        assert [path.stem for path in traces] == sorted("t_" + key[:12] for key in keys)
        labels = {json.loads(path.read_text().splitlines()[0])["label"] for path in traces}
        assert labels == {"cli:buffer_pkts=10:dibs", "cli:buffer_pkts=30:dibs"}
