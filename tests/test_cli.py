import json
import subprocess
import sys

import pytest

from conftest import coin_model_doc

from nscsg.cli import main


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out.strip(), err.strip()


class TestUnfold:
    def test_counterexample_row(self, capsys):
        code, out, _ = run_cli("unfold", "--model", "counterexample",
                               "--params", '{"phi": -10}', capsys=capsys)
        assert code == 0
        nodes, trans, _ = out.split(",")
        assert (nodes, trans) == ("12", "11")

    def test_zero_horizon(self, capsys):
        code, out, _ = run_cli("unfold", "--model", "counterexample", "-K", "0", capsys=capsys)
        assert code == 0
        assert out.startswith("1,0,")

    def test_parking_region_row(self, capsys):
        code, out, _ = run_cli("unfold", "--model", "parking", "-K", "6",
                               "--mode", "region", capsys=capsys)
        assert code == 0
        nodes, trans, _ = out.split(",")
        # shipped lane table sits one state / 65 transitions off the
        # published 258/1080 (see the packaged rule-table notes)
        assert (nodes, trans) == ("257", "1015")

    def test_dump_written(self, tmp_path, capsys):
        out_path = tmp_path / "tree.json"
        code, _, _ = run_cli("unfold", "--model", "counterexample",
                             "--out", str(out_path), capsys=capsys)
        assert code == 0
        assert len(json.loads(out_path.read_text())["nodes"]) == 12

    def test_model_error_exit_code(self, capsys):
        code, _, err = run_cli("unfold", "--model", "counterexample",
                               "--params", '{"phi": "NaN"}', capsys=capsys)
        assert code == 2

    def test_tabular_file_horizon(self, tmp_path, capsys):
        path = tmp_path / "coin.json"
        path.write_text(json.dumps(coin_model_doc()))
        rows = {}
        for extra in ((), ("--params", '{"horizon": 2}'), ("--params", '{"horizon": 2}', "-K", "3")):
            code, out, _ = run_cli("unfold", "--model", str(path), *extra, capsys=capsys)
            assert code == 0
            rows[len(extra)] = tuple(out.split(",")[:2])
        # the coin tree has 3 / 6 / 10 nodes at horizon 1 / 2 / 3
        assert rows == {0: ("3", "2"), 2: ("6", "5"), 4: ("10", "9")}

    def test_threads_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["unfold", "--model", "counterexample", "--threads", "2"])
        assert exc.value.code == 2

    def test_resource_error_exit_code(self, capsys):
        code, _, err = run_cli("unfold", "--model", "counterexample",
                               "--max-nodes", "3", capsys=capsys)
        assert code == 3
        assert "resource limit" in err


class TestSolve:
    def test_gbi_counterexample(self, capsys):
        code, out, _ = run_cli("solve", "--model", "counterexample",
                               "--params", '{"phi": -10}', "--algo", "gbi",
                               "--type", "ne", capsys=capsys)
        assert code == 0
        sw = float(out.split(",")[0])
        assert sw == pytest.approx(-8.0, abs=1e-9)

    def test_precision_applies_to_one_call(self, capsys):
        argv = ("solve", "--model", "counterexample", "--params", '{"phi": -10.123456789}')
        code, out, _ = run_cli(*argv, "--precision", "4", capsys=capsys)
        assert code == 0
        assert out.split(",")[0] == "-8.123"
        code, out, _ = run_cli(*argv, capsys=capsys)
        assert code == 0
        assert out.split(",")[0] == "-8.12345679"

    def test_exact_counterexample(self, capsys):
        code, out, _ = run_cli("solve", "--model", "counterexample",
                               "--params", '{"phi": -10}', "--algo", "exact",
                               "--type", "ne", "--grid-res", "5", capsys=capsys)
        assert code == 0
        assert float(out.split(",")[0]) == pytest.approx(7.0, abs=1e-6)

    def test_minimax_row(self, capsys):
        code, out, _ = run_cli("solve", "--model", "counterexample",
                               "--params", '{"phi": -10, "zero_sum": true}',
                               "--algo", "minimax", capsys=capsys)
        assert code == 0
        assert float(out.split(",")[0]) == pytest.approx(1.0, abs=1e-9)

    def test_fsi_writes_solution_and_trace(self, tmp_path, capsys):
        out_dir = tmp_path / "sol"
        code, out, _ = run_cli("solve", "--model", "counterexample",
                               "--params", '{"phi": -10}', "--algo", "fsi",
                               "--type", "ce", "--mmax", "4", "--out", str(out_dir),
                               capsys=capsys)
        assert code == 0
        assert (out_dir / "solution.json").exists()
        trace = (out_dir / "sw_trace.csv").read_text().strip().splitlines()
        sws = [float(line.split(",")[1]) for line in trace[1:]]
        assert all(b >= a - 1e-9 for a, b in zip(sws, sws[1:]))

    def test_deterministic_output_bytes(self, tmp_path, capsys):
        blobs = []
        for d in ("a", "b"):
            out_dir = tmp_path / d
            run_cli("solve", "--model", "counterexample", "--params", '{"phi": -10}',
                    "--algo", "fsi", "--type", "ne", "--mmax", "3", "--seed", "11",
                    "--out", str(out_dir), capsys=capsys)
            blobs.append((out_dir / "solution.json").read_bytes())
        assert blobs[0] == blobs[1]


class TestVerify:
    def test_gbi_solution_passes(self, tmp_path, capsys):
        out_dir = tmp_path / "sol"
        run_cli("solve", "--model", "counterexample", "--params", '{"phi": -10}',
                "--algo", "gbi", "--type", "ne", "--out", str(out_dir), capsys=capsys)
        code, out, _ = run_cli("verify", "--model", "counterexample",
                               "--params", '{"phi": -10}',
                               "--solution", str(out_dir / "solution.json"), capsys=capsys)
        assert code == 0
        assert out.startswith("pass,")

    def test_corrupted_solution_fails(self, tmp_path, capsys):
        out_dir = tmp_path / "sol"
        run_cli("solve", "--model", "counterexample", "--params", '{"phi": -10}',
                "--algo", "gbi", "--type", "ne", "--out", str(out_dir), capsys=capsys)
        doc = json.loads((out_dir / "solution.json").read_text())
        for entry in doc["nodes"]:
            if entry["env"] == [4.0] and "mu2" in entry:
                entry["mu2"] = {"L": 0.4, "R": 0.6}  # strictly worse shift
        (out_dir / "solution.json").write_text(json.dumps(doc))
        code, out, _ = run_cli("verify", "--model", "counterexample",
                               "--params", '{"phi": -10}',
                               "--solution", str(out_dir / "solution.json"), capsys=capsys)
        assert code == 4
        assert out.startswith("fail,")

    def test_zero_horizon_passes(self, tmp_path, capsys):
        out_dir = tmp_path / "sol"
        run_cli("solve", "--model", "counterexample", "-K", "0",
                "--algo", "gbi", "--out", str(out_dir), capsys=capsys)
        code, out, _ = run_cli("verify", "--model", "counterexample", "-K", "0",
                               "--solution", str(out_dir / "solution.json"), capsys=capsys)
        assert code == 0 and out.startswith("pass,")


class TestPlotdata:
    def test_empty_spec_header_only(self, tmp_path, capsys):
        code, out, _ = run_cli("plotdata", "--runs", "{}",
                               "--out", str(tmp_path / "csv"), capsys=capsys)
        assert code == 0
        lines = (tmp_path / "csv" / "altitude.csv").read_text().strip().splitlines()
        assert lines == ["label,k,h_equilibria,h_zero_sum"]

    def test_altitude_and_trace(self, tmp_path, capsys):
        runs = {
            "altitude": [{"label": "t2", "params": {"t0": 2}}],
            "sw_trace": [{"label": "cex", "model": "counterexample",
                          "params": {"phi": -10}, "mode": "tree", "m_max": 3}],
        }
        code, out, _ = run_cli("plotdata", "--runs", json.dumps(runs),
                               "--out", str(tmp_path / "csv"), capsys=capsys)
        assert code == 0
        alt = (tmp_path / "csv" / "altitude.csv").read_text().strip().splitlines()
        assert len(alt) == 2 and alt[1].startswith("t2,")
        trace = (tmp_path / "csv" / "sw_trace_cex.csv").read_text().strip().splitlines()
        sws = [float(line.split(",")[1]) for line in trace[1:]]
        assert all(b >= a - 1e-9 for a, b in zip(sws, sws[1:]))
