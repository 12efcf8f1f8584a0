"""Scenario loading, run artifacts, the batch matrix, and exit codes."""

import json
import os

import numpy as np
import pytest

from symreach.cli import main, run, run_matrix, format_table
from symreach.scenarios import (ScenarioError, build_automaton, build_map,
                                load_scenario)

from conftest import scenario_path


class TestLoadScenario:
    def test_shipped_rectangle_values(self):
        s = load_scenario(scenario_path("rectangle.scn"))
        assert s.name == "rectangle"
        assert s.mode_style == "waypoint"
        assert np.allclose(s.eps0, [1.0, 1.4])
        assert np.allclose(s.eps1, [0.6, 1.0])
        a = build_automaton(s)
        assert len(a.modes) == 4

    def test_defaults_applied(self, tmp_path):
        p = tmp_path / "min.scn"
        p.write_text(json.dumps({
            "schema_version": 1, "name": "m", "dynamics": "robot",
            "mode_style": "road", "path_kind": "s_shaped"}))
        s = load_scenario(str(p))
        assert s.dt == 0.01
        assert np.allclose(s.cell_width, [0.2, 0.2, np.pi / 16])

    def test_negative_cell_width_rejected(self, tmp_path):
        p = tmp_path / "bad.scn"
        p.write_text(json.dumps({
            "schema_version": 1, "name": "b", "dynamics": "robot",
            "mode_style": "road", "path_kind": "s_shaped",
            "grid_width": [-0.2, 0.2, 0.2]}))
        with pytest.raises(ScenarioError, match="grid_width"):
            load_scenario(str(p))

    def test_unknown_field_rejected(self, tmp_path):
        p = tmp_path / "bad.scn"
        p.write_text(json.dumps({
            "schema_version": 1, "name": "b", "dynamics": "robot",
            "mode_style": "road", "path_kind": "s_shaped", "wat": 1}))
        with pytest.raises(ScenarioError, match="wat"):
            load_scenario(str(p))

    def test_missing_schema_version_rejected(self, tmp_path):
        p = tmp_path / "bad.scn"
        p.write_text(json.dumps({
            "name": "b", "dynamics": "robot",
            "mode_style": "road", "path_kind": "s_shaped"}))
        with pytest.raises(ScenarioError, match="schema_version"):
            load_scenario(str(p))

    def test_broken_custom_chain_rejected(self, tmp_path):
        p = tmp_path / "bad.scn"
        p.write_text(json.dumps({
            "schema_version": 1, "name": "b", "dynamics": "robot",
            "mode_style": "road", "path_kind": "custom",
            "geometry": {"roads": [[0, 0, 3, 0], [4, 0, 6, 0]]}}))
        from symreach.automaton import DisconnectedPath
        with pytest.raises(DisconnectedPath):
            build_automaton(load_scenario(str(p)))

    def test_dynamics_constants_file(self, tmp_path):
        side = tmp_path / "consts.json"
        side.write_text(json.dumps({"v": 2.0, "L": 0.7}))
        p = tmp_path / "s.scn"
        p.write_text(json.dumps({
            "schema_version": 1, "name": "s", "dynamics": "robot",
            "mode_style": "road", "path_kind": "s_shaped",
            "dynamics_file": "consts.json"}))
        s = load_scenario(str(p))
        assert s.speed == 2.0 and s.length == 0.7


class TestRunArtifacts:
    def test_rectangle_report_structure(self, tmp_path):
        s = load_scenario(scenario_path("rectangle.scn"))
        rep = run(s, str(tmp_path / "out"))
        assert rep.n_modes_v == 1 and rep.n_edges_v == 1
        for f in ("av_structure.txt", "reachtube.csv", "metrics.txt",
                  "report.json"):
            assert os.path.exists(tmp_path / "out" / f)
        cols = rep.columns()
        assert cols["#m/e"] == "1/1"
        assert set(cols) >= {"#co", "#re", "#cp", "#tot.", "time", "error"}

    def test_s_shaped_structure_rows(self, tmp_path):
        s = load_scenario(scenario_path("s_shaped.scn"))
        rep_t = run(s, str(tmp_path / "t"))
        assert (rep_t.n_modes_v, rep_t.n_edges_v) == (3, 4)
        from dataclasses import replace
        rep_tr = run(replace(s, map_kind="tr"), str(tmp_path / "tr"))
        assert (rep_tr.n_modes_v, rep_tr.n_edges_v) == (2, 2)

    def test_csv_deterministic(self, tmp_path):
        s = load_scenario(scenario_path("s_shaped.scn"))
        run(s, str(tmp_path / "a"))
        run(s, str(tmp_path / "b"))
        csv_a = (tmp_path / "a" / "reachtube.csv").read_bytes()
        csv_b = (tmp_path / "b" / "reachtube.csv").read_bytes()
        assert csv_a == csv_b
        ma = [l for l in (tmp_path / "a" / "metrics.txt").read_text().splitlines()
              if not l.startswith("time_s")]
        mb = [l for l in (tmp_path / "b" / "metrics.txt").read_text().splitlines()
              if not l.startswith("time_s")]
        assert ma == mb

    def test_csv_header_and_provenance(self, tmp_path):
        s = load_scenario(scenario_path("s_shaped.scn"))
        run(s, str(tmp_path / "out"))
        lines = (tmp_path / "out" / "reachtube.csv").read_text().splitlines()
        assert lines[0] == ("path_index,virtual_mode_index,t_lo,t_hi,"
                            "lo_0,lo_1,lo_2,hi_0,hi_1,hi_2,provenance")
        provs = {l.rsplit(",", 1)[1] for l in lines[1:]}
        assert provs <= {"co", "re", "cp"}
        assert "cp" in provs


class TestMatrix:
    def test_s_shaped_five_rows(self, tmp_path):
        reports = run_matrix([scenario_path("s_shaped.scn")],
                             ["ns", "sc", "sv"], ["t", "tr"],
                             str(tmp_path / "m"))
        assert len(reports) == 5  # ns + sc/t + sc/tr + sv/t + sv/tr
        assert os.path.exists(tmp_path / "m" / "matrix.txt")
        symcols = [r.columns()["sym"] for r in reports]
        assert symcols.count("NS") == 1
        assert symcols.count("SC") == 2 and symcols.count("SV") == 2

    def test_empty_method_list_empty_table(self, tmp_path):
        reports = run_matrix([scenario_path("s_shaped.scn")], [], ["t"],
                             str(tmp_path / "m"))
        assert reports == []
        assert format_table(reports).count("\n") == 0

    def test_ns_row_computed_once(self, tmp_path, monkeypatch):
        # the NS row's report carries the error baseline of the other rows
        import symreach.cli as cli
        calls = []
        real = cli.compute_reachset

        def counting(*args, **kwargs):
            calls.append(args[4])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "compute_reachset", counting)
        reports = run_matrix([scenario_path("s_shaped.scn")],
                             ["ns", "sc", "sv"], ["t", "tr"],
                             str(tmp_path / "m"))
        assert sorted(calls) == ["ns", "sc", "sc", "sv", "sv"]
        assert all(r.columns()["error"] != "-" for r in reports[1:])

    def test_koch_structure_rows(self, tmp_path):
        reports = run_matrix([scenario_path("koch.scn")], ["sv"],
                             ["t", "tr"], str(tmp_path / "m"))
        got = {r.columns()["Phi"]: r.columns()["#m/e"] for r in reports}
        assert got == {"t": "6/8", "tr": "2/2"}


class TestExitCodes:
    def test_missing_file_is_input_error(self, capsys):
        assert main(["run", "/nonexistent.scn"]) == 3

    def test_ok_run(self, tmp_path, capsys):
        code = main(["run", scenario_path("s_shaped.scn"),
                     "--out", str(tmp_path / "o")])
        assert code == 0

    def test_unknown_verdict_exit_code(self, tmp_path, capsys):
        raw = json.loads(open(scenario_path("s_shaped.scn")).read())
        raw["unsafe"] = [[[-1.0, -1.0, -6.3], [1.0, 1.0, 6.3]]]
        p = tmp_path / "unsafe.scn"
        p.write_text(json.dumps(raw))
        code = main(["run", str(p), "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("method", ["ns", "sc"])
    def test_unbounded_scenario_unknown_without_verifier(self, tmp_path,
                                                         capsys, method):
        # the unsafe box lies on road 20, beyond the 16 materialized roads
        # that ns and sc walk; only the sv verifier looks past them
        raw = json.loads(open(scenario_path("infinite_s.scn")).read())
        raw["unsafe"] = [[[5.5, 159.5, -6.3], [6.5, 160.5, 6.3]]]
        p = tmp_path / "road20.scn"
        p.write_text(json.dumps(raw))
        out = tmp_path / "o"
        code = main(["run", str(p), "--method", method, "--out", str(out)])
        assert code == 2
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"] == "Unknown"

    def test_unpackable_cells_are_input_error(self, tmp_path, capsys):
        # no domain: the default one admits a start whose cells lie beyond
        # the packable index range of the grid
        raw = json.loads(open(scenario_path("s_shaped.scn")).read())
        raw["init_center"] = [300000.0, 0.0, 0.0]
        del raw["domain"]
        p = tmp_path / "far.scn"
        p.write_text(json.dumps(raw))
        code = main(["run", str(p), "--method", "ns",
                     "--out", str(tmp_path / "o")])
        assert code == 3
        assert "input error: cell index exceeds" in capsys.readouterr().err

    def test_disconnected_road_chain_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "bad.scn"
        p.write_text(json.dumps({
            "schema_version": 1, "name": "b", "dynamics": "robot",
            "mode_style": "road", "path_kind": "custom",
            "geometry": {"roads": [[0, 0, 3, 0], [4, 0, 6, 0]]}}))
        code = main(["run", str(p), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "input error: road 0 does not end" in capsys.readouterr().err

    def test_check_equivariance_cli(self, capsys):
        code = main(["check-equivariance", scenario_path("s_shaped.scn"),
                     "--samples", "200"])
        assert code == 0
        assert "residual" in capsys.readouterr().out

    def test_check_fsr_cli(self, capsys):
        code = main(["check-fsr", scenario_path("s_shaped_linear.scn"),
                     "--samples", "10", "--transitions", "4"])
        assert code == 0
        assert "0 violations" in capsys.readouterr().out


class TestCustomMap:
    def test_identity_custom_map_keeps_structure(self, tmp_path):
        import numpy as np
        from symreach.abstraction import construct_virtual_model
        from symreach.scenarios import s_shaped_roads
        roads = s_shaped_roads()
        table = []
        eye3 = np.eye(3).tolist()
        eye4 = np.eye(4).tolist()
        for (src, dst) in roads:
            table.append({
                "mode": np.concatenate([src, dst]).tolist(),
                "gamma_A": eye3, "gamma_b": [0.0, 0.0, 0.0],
                "rho_A": eye4, "rho_b": [0.0, 0.0, 0.0, 0.0]})
        raw = json.loads(open(scenario_path("s_shaped.scn")).read())
        raw["map"] = "custom"
        raw["custom_map"] = table
        p = tmp_path / "custom.scn"
        p.write_text(json.dumps(raw))
        s = load_scenario(str(p))
        a = build_automaton(s)
        phi = build_map(s, s.dyn())
        va = construct_virtual_model(a, phi)
        assert len(va.auto.modes) == 16 and len(va.auto.edges) == 15

    def test_broken_custom_map_fails_fast(self, tmp_path):
        import numpy as np
        from symreach.scenarios import s_shaped_roads
        from symreach.symmetry import EquivarianceError
        roads = s_shaped_roads()
        table = []
        rot = [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
        eye4 = np.eye(4).tolist()
        for (src, dst) in roads:
            table.append({
                "mode": np.concatenate([src, dst]).tolist(),
                "gamma_A": rot, "gamma_b": [0.0, 0.0, 0.0],
                "rho_A": eye4, "rho_b": [0.0, 0.0, 0.0, 0.0]})
        raw = json.loads(open(scenario_path("s_shaped.scn")).read())
        raw["map"] = "custom"
        raw["custom_map"] = table
        p = tmp_path / "broken.scn"
        p.write_text(json.dumps(raw))
        s = load_scenario(str(p))
        phi = build_map(s, s.dyn())
        with pytest.raises(EquivarianceError):
            phi.pair(np.concatenate(roads[0]))
