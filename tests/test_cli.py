import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import coin_model_doc

from nscsg.benchmarks import build
from nscsg.cli import main
from nscsg.unfold import unfold_regions


COIN = json.dumps(coin_model_doc())


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

    @pytest.mark.parametrize("cells", [{"starts": ((3, 1), (2, 2))}, {"starts": ((2, 2), (3, 1))},
                                       {"slots": ((5, 1), (2, 4))},
                                       {"slots": ((2, 4), (3, 4)), "bonus_cell": (1, 3)}])
    def test_parking_cells_given_as_json_lists(self, capsys, cells):
        # JSON has no tuples: a list of cells builds the model the tuples build
        params = json.dumps({"horizon": 3, **cells})
        code, out, err = run_cli("unfold", "--model", "parking", "--mode", "region",
                                 "--params", params, capsys=capsys)
        assert (code, err) == (0, "")
        bm = build("parking", {"horizon": 3, **cells})
        graph = unfold_regions(bm.model, bm.initial, bm.horizon)
        assert out.split(",")[:2] == [str(len(graph.nodes)), str(graph.n_transitions())]

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

    @pytest.mark.parametrize("command", ["unfold", "verify"])
    def test_seed_flag_is_rejected(self, tmp_path, capsys, command):
        # only solve and plotdata draw random numbers
        extra = ("--solution", str(tmp_path / "solution.json")) if command == "verify" else ()
        with pytest.raises(SystemExit) as exc:
            main([command, "--model", "counterexample", *extra, "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

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

    @pytest.mark.parametrize("flag, value, field", [("--mmax", "-1", "m_max"),
                                                    ("--solver-rounds", "-3", "solver_rounds")])
    def test_negative_fsi_budget_is_a_model_error(self, capsys, flag, value, field):
        argv = {"--mmax": "2", "--solver-rounds": "4", flag: value}
        code, out, err = run_cli("solve", "--model", "counterexample", "--algo", "fsi",
                                 *(item for pair in argv.items() for item in pair), capsys=capsys)
        assert (code, out) == (2, "")
        assert err == f"model error: {field} must be nonnegative"

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

    def test_correlated_solution_reports_positive_zero(self, tmp_path, capsys):
        out_dir = tmp_path / "sol"
        run_cli("solve", "--model", "counterexample", "--type", "ce",
                "--out", str(out_dir), capsys=capsys)
        report = tmp_path / "report.json"
        code, out, _ = run_cli("verify", "--model", "counterexample",
                               "--solution", str(out_dir / "solution.json"),
                               "--out", str(report), capsys=capsys)
        assert (code, out) == (0, "pass,0")
        # json writes -0.0 as "-0.0"; parse floats as text to see the sign
        doc = json.loads(report.read_text(), parse_float=str)
        assert doc["max_gap"] == "0.0"
        assert doc["gaps"] and "-0.0" not in {g["gap"] for g in doc["gaps"]}

    @pytest.mark.parametrize("content", [None, "{not json"], ids=["missing", "unparsable"])
    def test_unreadable_solution_file_is_a_model_error(self, tmp_path, capsys, content):
        path = tmp_path / "solution.json"
        if content is not None:
            path.write_text(content)
        code, _, err = run_cli("verify", "--model", "counterexample",
                               "--solution", str(path), capsys=capsys)
        assert code == 2
        assert err.startswith("model error:") and str(path) in err


    @pytest.mark.parametrize("doc, field", [
        ({}, "'kind'"),
        ({"kind": "ne"}, "'nodes'"),
        ({"kind": "ne", "nodes": 12}, "'nodes' holds int"),
    ], ids=["empty", "no-nodes", "nodes-not-a-list"])
    def test_incomplete_solution_file_is_a_model_error(self, tmp_path, capsys, doc, field):
        path = tmp_path / "solution.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli("verify", "--model", "counterexample",
                               "--solution", str(path), capsys=capsys)
        assert code == 2
        assert err.startswith("model error:") and field in err

    @pytest.mark.parametrize("kind, field, value, message", [
        ("ne", "mu1", None, "solution node 0 lacks field 'mu1'"),
        ("ne", "value", "x", "solution node 0: could not convert string to float: 'x'"),
        ("ne", "id", 99, "solution node id 99 outside 0..11"),
        ("ne", "id", True, "solution node id True outside 0..11"),
        ("ne", "id", 11, "solution node id 11 appears twice"),
        # every value and best response is 0 when every strategy is 0, so
        # the gap checks alone would pass such a file
        ("ne", "every mu", 0, "solution node 0 mu1 is not a probability distribution: [0.0, 0.0]"),
        ("ce", "every mu", 0,
         "solution node 0 mu is not a probability distribution: [0.0, 0.0, 0.0, 0.0]"),
        ("ne", "mu2", {"L": 1.5, "R": -0.5},
         "solution node 0 mu2 is not a probability distribution: [1.5, -0.5]"),
        ("ce", "mu", {"U|L": float("nan"), "U|R": 1.0, "D|L": 0.0, "D|R": 0.0},
         "solution node 0 mu is not a probability distribution: [nan, 1.0, 0.0, 0.0]"),
    ], ids=["no-strategy", "value-not-a-number", "id-outside", "id-bool", "id-repeated",
            "all-zero-ne", "all-zero-ce", "negative", "nan"])
    def test_malformed_solution_entry_is_a_model_error(self, tmp_path, capsys, kind, field, value, message):
        out_dir = tmp_path / "o"
        run_cli("solve", "--model", "counterexample", "--type", kind, "--out", str(out_dir), capsys=capsys)
        doc = json.loads((out_dir / "solution.json").read_text())
        if field == "every mu":
            for entry in doc["nodes"]:
                for name in ("mu1", "mu2", "mu"):
                    if name in entry:
                        entry[name] = dict.fromkeys(entry[name], value)
        elif value is None:
            del doc["nodes"][0][field]
        else:
            doc["nodes"][0][field] = value
        (out_dir / "solution.json").write_text(json.dumps(doc))
        code, _, err = run_cli("verify", "--model", "counterexample",
                               "--solution", str(out_dir / "solution.json"), capsys=capsys)
        assert code == 2
        assert err == f"model error: {message}"


class TestModelInputErrors:
    """A bad ``--model`` or ``--params`` input is a model error (exit 2) that
    names what is wrong, not a traceback."""

    @pytest.mark.parametrize("content, params, message", [
        (None, None, "cannot read model file"),
        ("{bad", None, "cannot read model file"),
        ('{"agents": []}', None, "lacks field 'dim'"),
        ("parking", '{"horizon": ', "cannot read JSON argument"),
        ("parking", '{"nosuch": 1}', "unknown parking parameter 'nosuch'"),
        ("[1]", None, "holds list, not a JSON object"),
        ('{"agents": 5, "environment": {"dim": 1}}', None, "holds a field of the wrong type"),
        ("parking", "[1]", "parking parameters must be a JSON object, not list"),
        ('{"agents": []}', "5", "--params holds int, not a JSON object"),
        (COIN, '{"horizon": "abc"}', '--params horizon must be an integer, not "abc"'),
        (COIN, '{"horizon": null}', "--params horizon must be an integer, not null"),
        (COIN, '{"horizon": 1.7}', "--params horizon must be an integer, not 1.7"),
        (COIN, '{"horizon": true}', "--params horizon must be an integer, not true"),
        ("parking", '{"horizon": "abc"}', "parking parameter 'horizon' must be an integer, not \"abc\""),
        ("parking", '{"horizon": 1.5}', "parking parameter 'horizon' must be an integer, not 1.5"),
        ("parking", '{"horizon": true}', "parking parameter 'horizon' must be an integer, not true"),
        ("parking", '{"slots": 5}', "parking parameter 'slots' must be a list, not 5"),
        ("vcas", '{"t0": "abc"}', "vcas parameter 't0' must be an integer, not \"abc\""),
        ("vcas", '{"eps_own": "x"}', "vcas parameter 'eps_own' must be a number, not \"x\""),
        ("vcas", '{"instant_k": "a"}', "vcas parameter 'instant_k' must be null or an integer, not \"a\""),
        ("vcas", '{"nets": 5}', "vcas parameter 'nets' must be a string or a list of networks, not 5"),
        ("vcas", '{"nets": [1,2,3,4,5,6,7,8,9]}',
         "vcas parameter 'nets' must be a string or a list of networks, not [1, 2, 3"),
        ("counterexample", '{"zero_sum": 1}', "counterexample parameter 'zero_sum' must be a bool, not 1"),
        ("vcas", '{"reward": 2}', "vcas parameter 'reward' must be a string, not 2"),
        ("vcas", '{"h0": true}', "vcas parameter 'h0' must be a number, not true"),
        ("parking", '{"rule_table": 5}', "cannot build parking: "),
        (json.dumps({**coin_model_doc(), "availability_on_old_percept": True}), None,
         "sets availability_on_old_percept, which is not supported"),
    ], ids=["missing-file", "malformed-file", "missing-field", "malformed-params",
            "unknown-param", "file-not-object", "field-wrong-type", "params-not-object",
            "file-params-not-object", "horizon-string", "horizon-null", "horizon-float",
            "horizon-bool", "parking-horizon-string", "parking-horizon-float",
            "parking-horizon-bool", "parking-slots-int", "vcas-t0-string", "vcas-eps-string",
            "vcas-instant-k-string", "vcas-nets-int", "vcas-nets-numbers", "counterexample-bool-int",
            "vcas-string-int", "vcas-number-bool", "parking-build-error", "old-percept-rule"])
    def test_solve(self, tmp_path, capsys, content, params, message):
        model = str(tmp_path / "model.json")
        if content in ("counterexample", "parking", "vcas"):
            model = content
        elif content is not None:
            Path(model).write_text(content)
        extra = ("--params", params) if params is not None else ()
        code, out, err = run_cli("solve", "--model", model, *extra, capsys=capsys)
        assert (code, out) == (2, "")
        assert err.startswith("model error:") and message in err
        if content is None or content.startswith(("{", "[")) and params is None:
            assert model in err

    def test_malformed_network_file(self, tmp_path, capsys):
        # nine advisory network files that hold truncated JSON
        for k in range(1, 10):
            (tmp_path / f"vcas_{k}.json").write_text('{"layers": [')
        params = json.dumps({"nets": str(tmp_path), "t0": 1})
        code, out, err = run_cli("unfold", "--model", "vcas", "--params", params, capsys=capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"model error: cannot read network file {tmp_path / 'vcas_1.json'}: ")


class TestNonFiniteRewards:
    """A reward that is not finite is a model error (exit 2), found where the
    stage games read the reward callbacks, for solving and checking alike."""

    MESSAGE = "model error: history 0 has a state or action reward that is not finite"

    def coin_file(self, tmp_path, default):
        doc = coin_model_doc()
        doc["rewards"][0]["default"] = default
        path = tmp_path / f"coin-{default}.json"
        path.write_text(json.dumps(doc))  # written as the JSON literal Infinity or NaN
        return str(path)

    @pytest.mark.parametrize("default", [float("inf"), float("nan")], ids=["Infinity", "NaN"])
    def test_solve(self, tmp_path, capsys, default):
        code, out, err = run_cli("solve", "--model", self.coin_file(tmp_path, default),
                                 "--params", '{"horizon": 2}', capsys=capsys)
        assert (code, out, err) == (2, "", self.MESSAGE)

    @pytest.mark.parametrize("default", [float("inf"), float("nan")], ids=["Infinity", "NaN"])
    def test_verify(self, tmp_path, capsys, default):
        out_dir = tmp_path / "sol"
        code, _, _ = run_cli("solve", "--model", self.coin_file(tmp_path, -1.0),
                             "--params", '{"horizon": 2}', "--out", str(out_dir), capsys=capsys)
        assert code == 0
        code, out, err = run_cli("verify", "--model", self.coin_file(tmp_path, default),
                                 "--params", '{"horizon": 2}',
                                 "--solution", str(out_dir / "solution.json"), capsys=capsys)
        assert (code, out, err) == (2, "", self.MESSAGE)


class TestLongInlineJson:
    # an inline blob longer than a file name may be is parsed, not probed as a path
    def test_long_runs_spec(self, tmp_path, capsys):
        runs = json.dumps({
            "altitude": [{"label": f"altitude-run-{k}", "params": {"t0": 1, "h0": 50.0 + k}}
                         for k in range(5)],
            "sw_trace": [],
        })
        assert len(runs) >= 300
        code, _, _ = run_cli("plotdata", "--runs", runs, "--out", str(tmp_path / "csv"),
                             capsys=capsys)
        assert code == 0
        assert len((tmp_path / "csv" / "altitude.csv").read_text().strip().splitlines()) == 6

    def test_long_params_blob(self, capsys):
        params = json.dumps({"t0": 2, "h0": 50.0, "hdot_own0": -5.0, "hdot_int0": 5.0,
                             "trust0": [4, 4], "advisory0": [1, 1], "eps_own": 0.0,
                             "eps_int": 0.0, "reward": "instant-altitude", "zero_sum": False,
                             "safety_limit": 200.0, "nets": "stub", "stub_seed": 0}, indent=2)
        assert len(params) > 255
        code, out, _ = run_cli("unfold", "--model", "vcas", "--params", params,
                               "--mode", "region", capsys=capsys)
        assert code == 0
        assert out.split(",")[:2] == ["90", "90"]


class TestPlotdata:
    @pytest.mark.parametrize("runs, message", [
        ("[1]", "--runs holds list, not a JSON object"),
        ('{"altitude": [{"params": [1]}]}', "vcas parameters must be a JSON object, not list"),
        ('{"sw_trace": [1]}', "--runs field 'sw_trace' must be a list of JSON objects"),
        ('{"altitude": 5}', "--runs field 'altitude' must be a list of JSON objects"),
    ], ids=["runs-list", "params-list", "trace-entry-int", "altitude-int"])
    def test_wrong_json_type_is_a_model_error(self, tmp_path, capsys, runs, message):
        code, out, err = run_cli("plotdata", "--runs", runs, "--out", str(tmp_path / "csv"),
                                 capsys=capsys)
        assert (code, out, err) == (2, "", f"model error: {message}")

    @pytest.mark.parametrize("runs, message", [
        ({"sw_trace": [{}]}, "--runs sw_trace entry lacks field 'model'"),
        ({"sw_trace": [{"model": 5}]},
         "--runs sw_trace entry field 'model' must be a string, not 5"),
        ({"sw_trace": [{"model": "counterexample", "horizon": 1.5}]},
         "--runs sw_trace entry field 'horizon' must be an integer, not 1.5"),
        ({"sw_trace": [{"model": "counterexample", "horizon": True}]},
         "--runs sw_trace entry field 'horizon' must be an integer, not true"),
        ({"sw_trace": [{"model": "counterexample", "m_max": "3"}]},
         "--runs sw_trace entry field 'm_max' must be an integer, not \"3\""),
        ({"sw_trace": [{"model": "counterexample", "type": "nash"}]},
         "--runs sw_trace entry field 'type' must be one of ne, ce, not \"nash\""),
        ({"sw_trace": [{"model": "counterexample", "mode": "graph"}]},
         "--runs sw_trace entry field 'mode' must be one of tree, region, not \"graph\""),
        ({"altitude": [{"type": None}]},
         "--runs altitude entry field 'type' must be one of ne, ce, not null"),
        ({"altitude": [{"mode": 1}]},
         "--runs altitude entry field 'mode' must be one of tree, region, not 1"),
        ({"altitude": [{"params": {"t0": 1}}], "sw_trace": [{"model": "counterexample"}, {}]},
         "--runs sw_trace entry lacks field 'model'"),
    ], ids=["model-missing", "model-int", "horizon-float", "horizon-bool", "m_max-string",
            "trace-type", "trace-mode", "altitude-type", "altitude-mode", "checked-before-work"])
    def test_bad_spec_field_is_a_model_error(self, tmp_path, capsys, runs, message):
        out_dir = tmp_path / "csv"
        code, out, err = run_cli("plotdata", "--runs", json.dumps(runs), "--out", str(out_dir),
                                 capsys=capsys)
        assert (code, out, err) == (2, "", f"model error: {message}")
        assert not out_dir.exists()  # checked before any run or output

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
