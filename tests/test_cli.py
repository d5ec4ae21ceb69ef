import json
import math
import warnings

import pytest

from prodgeo.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTriangle:
    def test_reference_row_table1(self, capsys):
        code, out, _ = run(capsys, "triangle", "--geometry", "s2r",
                           "--a2", "3,-2,1", "--a3", "2,1,0")
        assert code == 0
        for token in ("0.946535", "0.687746", "1.517071", "3.151352"):
            assert token in out

    def test_reference_row_table2_json(self, capsys):
        code, out, _ = run(capsys, "triangle", "--geometry", "h2r",
                           "--a2", "2,1.5,1", "--a3", "3,-1,0", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "v1"
        assert payload["sum"] == pytest.approx(3.12325, abs=1e-4)
        assert payload["class"] == "below"
        assert payload["coplanar_with_center"] is False

    def test_angle_kernel_runs_once(self, capsys, monkeypatch):
        from prodgeo import triangles
        calls = []

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        kernel = triangles._closed_form
        monkeypatch.setattr(triangles, "_closed_form", counted)
        for a3 in ("2,1,0", "1,-3,0"):
            calls.clear()
            code, _, _ = run(capsys, "triangle", "--geometry", "s2r", "--a2", "3,-2,1",
                             "--a3", a3)
            assert (code, len(calls)) == (0, 1)

    def test_coplanarity_tested_once(self, capsys, monkeypatch):
        from prodgeo import triangles
        calls = []

        def counted(*args):
            calls.append(args)
            return test(*args)

        test = triangles._coplanar
        monkeypatch.setattr(triangles, "_coplanar", counted)
        for a3 in ("2,1,0", "1,-3,0"):
            calls.clear()
            code, _, _ = run(capsys, "triangle", "--geometry", "s2r", "--a2", "3,-2,1",
                             "--a3", a3, "--format", "json")
            assert (code, len(calls)) == (0, 1)

    def test_coplanar_prints_pi_and_equal(self, capsys):
        code, out, _ = run(capsys, "triangle", "--geometry", "s2r",
                           "--a2", "2,1,0", "--a3", "1,-3,0")
        assert code == 0
        assert f"{math.pi:.6f}" in out
        assert "equal" in out

    def test_domain_error_exit_2(self, capsys):
        code, _, err = run(capsys, "triangle", "--geometry", "h2r",
                           "--a2", "1,2,0", "--a3", "3,-1,0")
        assert code == 2
        assert "DomainError" in err

    def test_unparsable_point_exit_2(self, capsys):
        code, out, err = run(capsys, "triangle", "--geometry", "s2r",
                             "--a2=1,x,0", "--a3", "2,1,0")
        assert (code, out, err) == (2, "", "DomainError: cannot parse point '1,x,0'\n")

    def test_degenerate_exit_3(self, capsys):
        code, _, err = run(capsys, "triangle", "--geometry", "s2r",
                           "--a2", "2,1,0", "--a3", "2,1,0")
        assert code == 3
        assert "DegenerateError" in err

    def test_cut_locus_exit_3(self, capsys):
        code, out, err = run(capsys, "triangle", "--geometry", "s2r",
                             "--a2=-1,0,0", "--a3=0,1,0")
        assert (code, out) == (3, "")
        assert err.startswith("DegenerateError:")

    def test_homogeneous_input_accepted(self, capsys):
        code, out, _ = run(capsys, "triangle", "--geometry", "s2r",
                           "--a2", "1,3,-2,1", "--a3", "2,4,2,0")
        assert code == 0
        assert "3.151352" in out

    def test_custom_first_vertex_normalised(self, capsys):
        # a1 off the base point: the vertices are measured as given
        code, out, _ = run(capsys, "triangle", "--geometry", "s2r", "--a1", "2,0,0",
                           "--a2", "3,-2,1", "--a3", "2,1,0", "--format", "json")
        assert code == 0
        assert json.loads(out)["class"] in {"above", "equal", "below"}


class TestTables:
    def test_default_run_passes_gate(self, capsys):
        code, out, _ = run(capsys, "tables")
        assert code == 0
        assert "max |delta|" in out

    def test_csv_header_contract(self, capsys):
        code, out, _ = run(capsys, "tables", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "table,row,w1,w2,w3,sum,ref_sum,delta"
        assert len(out.splitlines()) == 11  # header + 10 rows

    def test_corrupted_reference_fails_gate(self, capsys, monkeypatch):
        from prodgeo import reference
        corrupted = {
            k: (a2, [(a3, (w[0] + 0.01, *w[1:])) for a3, w in rows])
            for k, (a2, rows) in reference.TABLE_ROWS.items()
        }
        monkeypatch.setattr(reference, "TABLE_ROWS", corrupted)
        code, _, _ = run(capsys, "tables")
        assert code == 1


class TestSweep:
    def test_s2r_extremum_reported(self, capsys):
        code, out, _ = run(capsys, "sweep", "--geometry", "s2r", "--a2", "3,-2,1",
                           "--ray", "2,1,0", "--samples", "64")
        assert code == 0
        assert "maximum" in out
        assert "0.1931" in out

    def test_h2r_extremum_json(self, capsys):
        code, out, _ = run(capsys, "sweep", "--geometry", "h2r", "--a2", "2,1.5,1",
                           "--ray", "3,-1,0", "--samples", "64", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["t0"] == pytest.approx(0.36392, abs=1e-3)
        assert payload["extremum_kind"] == "minimum"
        assert len(payload["series"]) == 64

    def test_interior_reported(self, capsys):
        argv = ["sweep", "--geometry", "s2r", "--a2", "3,-2,1", "--ray", "2,1,0",
                "--samples", "64"]
        _, out, _ = run(capsys, *argv, "--format", "json")
        assert json.loads(out)["interior"] is True
        _, out, _ = run(capsys, *argv, "--t-min", "1", "--t-max", "5", "--format", "json")
        assert json.loads(out)["interior"] is False
        _, out, _ = run(capsys, *argv, "--t-min", "1", "--t-max", "5")
        assert out.splitlines()[-1].split() == ["interior", "false"]
        _, _, err = run(capsys, *argv, "--format", "csv")
        assert "interior=true" in err.splitlines()

    def test_coplanar_family_flagged_flat(self, capsys):
        code, out, _ = run(capsys, "sweep", "--geometry", "s2r", "--a2", "2,1,0",
                           "--ray", "5,-1,0", "--samples", "16")
        assert code == 0
        assert "degenerate-flat" in out

    def test_csv_schema(self, capsys):
        code, out, err = run(capsys, "sweep", "--geometry", "s2r", "--a2", "3,-2,1",
                             "--ray", "2,1,0", "--samples", "16", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,S_t"
        assert len(lines) == 17
        assert "extremum" in err

    @pytest.mark.parametrize("bound", [["--t-max", "inf"], ["--t-min", "nan"]])
    def test_non_finite_range_exit_2(self, capsys, bound):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "sweep", "--geometry", "s2r", "--a2", "3,-2,1",
                                 "--ray", "2,1,0", *bound)
        assert code == 2
        assert out == ""
        assert err.startswith("DomainError: need finite")

    def test_overflowing_grid_vertex_exit_2(self, capsys):
        """t * ray overflows at t_max = 1e308: one DomainError line, no warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "sweep", "--geometry", "s2r", "--a2", "3,-2,1",
                                 "--ray", "2,1,0", "--t-min", "1", "--t-max", "1e308",
                                 "--samples", "8")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("DomainError:")

    def test_sample_count_beyond_an_index_exit_2(self, capsys):
        code, out, err = run(capsys, "sweep", "--geometry", "s2r", "--a2", "3,-2,1",
                             "--ray", "2,1,0", "--samples", "1" + "0" * 400)
        assert (code, out) == (2, "")
        assert err.startswith("DomainError: need an integer number of samples >= 8")

    def test_sample_count_beyond_memory_exit_2(self, capsys):
        """10**17 samples: numpy's MemoryError printed a traceback."""
        code, out, err = run(capsys, "sweep", "--geometry", "s2r", "--a2", "3,-2,1",
                             "--ray", "2,1,0", "--samples", str(10**17))
        assert (code, out) == (2, "")
        assert err == f"DomainError: not enough memory for {10**17} samples\n"

    @pytest.mark.parametrize("t_min, t_max", [("1e-20", "1e-10"), ("1e-320", "1e-300")])
    def test_small_parameters_keep_their_digits_in_json(self, capsys, t_min, t_max):
        """JSON t and t0 are the table's 12 significant digits: rounding to 12
        decimals read six series t of 1e-20 to 1e-10 as 0.0, and t0 of a range
        ending at 1e-300 as 0.0.  The series t are > 0, increase strictly and
        equal the csv cells."""
        argv = ["sweep", "--geometry", "s2r", "--a2", "3,-2,1", "--ray", "2,1,0",
                "--t-min", t_min, "--t-max", t_max, "--samples", "8"]
        _, out, _ = run(capsys, *argv, "--format", "json")
        payload = json.loads(out)
        ts = [t for t, _ in payload["series"]]
        assert ts[0] > 0.0 and all(a < b for a, b in zip(ts, ts[1:]))
        assert payload["t0"] == float(t_max)
        code, out, err = run(capsys, *argv, "--format", "csv")
        assert code == 0
        assert ts == [float(line.split(",")[0]) for line in out.splitlines()[1:]]
        assert f"t0={payload['t0']:.12g}" in err.splitlines()

    def test_small_points_keep_their_digits_in_json(self, capsys):
        """A valid S2xR a2 of size 1e-170 read [0.0, 0.0, 0.0]."""
        _, out, _ = run(capsys, "sweep", "--geometry", "s2r", "--a2", "1e-170,2e-170,0",
                        "--ray", "2,1,0", "--samples", "8", "--format", "json")
        assert json.loads(out)["a2"] == [1e-170, 2e-170, 0.0]

    def test_ray_leaving_model_exit_2(self, capsys):
        code, out, err = run(capsys, "sweep", "--geometry", "h2r", "--a2", "2,1.5,1",
                             "--ray", "1,5,0", "--samples", "16")
        assert (code, out) == (2, "")
        assert err == "DomainError: ray direction (1.0, 5.0, 0.0) leaves the h2r model\n"


class TestGeodesic:
    def test_solve_target(self, capsys):
        code, out, _ = run(capsys, "geodesic", "--geometry", "s2r", "--to", "2,1,0")
        assert code == 0
        assert "tau  0.928731" in out
        assert len([l for l in out.splitlines() if l.startswith("  ")]) == 64

    def test_params_fibre_line(self, capsys):
        code, out, _ = run(capsys, "geodesic", "--geometry", "s2r",
                           "--params", "0,1.5708,1", "--samples", "4")
        assert code == 0
        assert "2.718282" in out

    def test_exactly_one_input_required(self, capsys):
        """argparse's required mutually exclusive group: a usage error, exit 2."""
        for argv, message in [((), "one of the arguments --to --params is required"),
                              (("--to", "2,1,0", "--params", "0,0,1"),
                               "argument --params: not allowed with argument --to")]:
            with pytest.raises(SystemExit) as exc:
                main(["geodesic", "--geometry", "s2r", *argv])
            assert exc.value.code == 2
            assert message in capsys.readouterr().err

    def test_params_are_read_by_the_library(self, capsys):
        """--params goes through the point's comma reader, then the library's
        reading of (u, v, tau): two numbers are its typed error."""
        code, out, err = run(capsys, "geodesic", "--geometry", "s2r", "--params", "1,2")
        assert (code, out) == (2, "")
        assert err == "DomainError: need geodesic parameters (u, v, tau), got [1.0, 2.0]\n"
        code, out, err = run(capsys, "geodesic", "--geometry", "s2r", "--params", "1,x,2")
        assert (code, out, err) == (2, "", "DomainError: cannot parse parameters '1,x,2'\n")

    def test_curve_points_are_members_json(self, capsys):
        from prodgeo import Geometry, contains
        code, out, _ = run(capsys, "geodesic", "--geometry", "h2r",
                           "--to", "2,1,0", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        for point in payload["points"]:
            assert contains(Geometry.H2R, point)

    def test_small_params_keep_their_digits_in_json(self, capsys):
        """u, v and tau are the table's 12 significant digits, where 12
        decimals read them as 0.0."""
        argv = ["geodesic", "--geometry", "s2r", "--params", "1e-20,-3e-30,1e-40",
                "--samples", "8"]
        _, out, _ = run(capsys, *argv, "--format", "json")
        payload = json.loads(out)
        assert [payload[name] for name in ("u", "v", "tau")] == [1e-20, -3e-30, 1e-40]
        _, _, err = run(capsys, *argv, "--format", "csv")
        assert {"u=1e-20", "v=-3e-30", "tau=1e-40"} <= set(err.splitlines())

    def test_overflowing_params_exit_2(self, capsys):
        code, out, err = run(capsys, "geodesic", "--geometry", "s2r", "--params", "0,1,1000")
        assert (code, out) == (2, "")
        assert err.startswith("DomainError:")

    def test_params_rounding_onto_the_cone_exit_2(self, capsys):
        """Of the 64 samples, the first whose cosh w and sinh w round equal is named."""
        code, out, err = run(capsys, "geodesic", "--geometry", "h2r", "--params", "0,0,40")
        assert (code, out) == (2, "")
        assert err == ("DomainError: the h2r model point at geodesic parameters "
                       "(0.0, 0.0, 19.047619047619047) is not representable in double precision\n")

    def test_sample_count_beyond_memory_exit_2(self, capsys):
        """10**17 samples: numpy's MemoryError printed a traceback."""
        code, out, err = run(capsys, "geodesic", "--geometry", "s2r", "--params", "0,0.5,1",
                             "--samples", str(10**17))
        assert (code, out) == (2, "")
        assert err == f"PrecondError: not enough memory for {10**17} samples\n"

    def test_domain_failure_exit_2(self, capsys):
        code, _, _ = run(capsys, "geodesic", "--geometry", "h2r", "--to", "1,4,0")
        assert code == 2

    @pytest.mark.parametrize("params", ["0,0,inf", "0,0,nan", "inf,0,1"])
    def test_non_finite_params_exit_2(self, capsys, params):
        code, out, err = run(capsys, "geodesic", "--geometry", "s2r",
                             "--params", params, "--format", "json")
        assert code == 2
        assert out == ""
        assert err.startswith("DomainError: geodesic parameters must be finite")


class TestVerify:
    def test_minimal_run(self, capsys):
        code, out, _ = run(capsys, "verify", "--trials", "1", "--seed", "7")
        assert code == 0
        for name in ("roundtrip", "isometry-invariance", "ode-equivalence",
                     "trichotomy", "antipodality"):
            assert name in out

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_trials_below_one_exit_2(self, capsys, trials):
        """The library reads the trial count (``verification.run_all``)."""
        code, out, err = run(capsys, "verify", "--trials", trials, "--format", "json")
        assert (code, out) == (2, "")
        assert err == f"DomainError: need an integer number of trials >= 1, got {trials}\n"

    def test_negative_seed_exit_2(self, capsys):
        code, out, err = run(capsys, "verify", "--trials", "1", "--seed", "-5")
        assert (code, out) == (2, "")
        assert err == "DomainError: need a non-negative integer seed, got -5\n"

    @pytest.mark.parametrize("option", ["--trials", "--seed"])
    def test_unparsable_count_is_usage_error(self, capsys, option):
        with pytest.raises(SystemExit) as exc:
            main(["verify", option, "2.5"])
        assert exc.value.code == 2
        assert f"argument {option}: invalid int value: '2.5'" in capsys.readouterr().err

    def test_precision_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--trials", "1", "--precision", "1"])
        assert exc.value.code == 2
        assert "--precision" in capsys.readouterr().err

    def test_failing_suites_print_plain_reproducers(self, capsys, monkeypatch):
        """A real failure: with the isometry tolerance below zero every draw
        fails, verify exits 1, and each reproducer prints plain floats."""
        from prodgeo import DEFAULT, verification
        monkeypatch.setattr(verification, "DEFAULT", DEFAULT._replace(isometry=-1.0))
        code, out, _ = run(capsys, "verify", "--geometry", "h2r", "--trials", "4")
        assert code == 1
        lines = [l for l in out.splitlines() if l.startswith("reproduce h2r isometry-invariance")]
        assert len(lines) == 3
        assert all("metric form broken at a=[" in l and "np." not in l for l in lines)
        assert "verification FAILED" in out

    def test_failing_suite_prints_three_reproducers(self, capsys, monkeypatch):
        from prodgeo import verification

        def run_all(kind, trials, seed):
            return [verification.SuiteResult("trichotomy", kind, trials,
                                             [f"case {i}" for i in range(5)])]

        monkeypatch.setattr(verification, "run_all", run_all)
        code, out, _ = run(capsys, "verify", "--geometry", "s2r", "--trials", "5")
        assert code == 1
        assert [l.split()[-1] for l in out.splitlines() if "reproduce" in l] == [
            "0", "1", "2"]
        assert "FAIL" in out
        assert "verification FAILED" in out

    def test_single_geometry_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--geometry", "h2r", "--trials", "5",
                           "--seed", "42", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert len(payload["suites"]) == 5

    @pytest.mark.parametrize("name", ["BOTH", "Both"])
    def test_both_in_any_case(self, capsys, name):
        code, out, _ = run(capsys, "verify", "--geometry", name, "--trials", "1",
                           "--format", "json")
        assert code == 0
        assert [s["kind"] for s in json.loads(out)["suites"]] == ["s2r"] * 5 + ["h2r"] * 5


class TestOutputContracts:
    def test_json_deterministic(self, capsys):
        argv = ("sweep", "--geometry", "s2r", "--a2", "3,-2,1", "--ray", "2,1,0",
                "--samples", "16", "--format", "json")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_precision_flag(self, capsys):
        code, out, _ = run(capsys, "triangle", "--geometry", "s2r",
                           "--a2", "3,-2,1", "--a3", "2,1,0", "--precision", "3")
        assert code == 0
        assert "3.151" in out
        assert "3.1514" not in out

    def test_negative_precision_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["triangle", "--geometry", "s2r", "--a2", "3,-2,1", "--a3", "2,1,0",
                  "--precision", "-2"])
        assert exc.value.code == 2
        assert "--precision" in capsys.readouterr().err

    def test_leading_minus_joined_to_flag(self, capsys):
        code, out, _ = run(capsys, "triangle", "--geometry", "s2r",
                           "--a2=-1,0.5,0", "--a3", "2,1,0")
        assert code == 0
        assert "equal" in out

    @pytest.mark.parametrize("argv", [
        ["triangle", "--a2", "3,-2,1", "--a3", "2,1,0"],
        ["sweep", "--a2", "3,-2,1", "--ray", "2,1,0", "--samples", "16"],
        ["geodesic", "--to", "2,1,0", "--samples", "8"],
        ["verify", "--trials", "1"]])
    def test_geometry_read_by_the_library(self, capsys, argv):
        """--geometry is ``Geometry.from_name``'s: any case reads as s2r, with
        the same output, and an unknown name is its typed error, which for
        ``verify`` names its ``both`` too."""
        command, *rest = argv
        _, lower, _ = run(capsys, command, "--geometry", "s2r", *rest, "--format", "json")
        code, upper, _ = run(capsys, command, "--geometry", "S2R", *rest, "--format", "json")
        assert code == 0
        assert upper == lower
        code, out, err = run(capsys, command, "--geometry", "xyz", *rest)
        assert (code, out) == (2, "")
        expected = "'s2r', 'h2r' or 'both'" if command == "verify" else "'s2r' or 'h2r'"
        assert err == f"DomainError: unknown geometry 'xyz'; expected {expected}\n"



#: per command with a csv format: a command line, its display precision and
#: the json values in the order of the csv grid
CSV_CASES = {
    "triangle": (["triangle", "--geometry", "h2r", "--a2", "2,1.5,1", "--a3", "3,-1,0"], 4,
                 lambda p: [[p[k] for k in ("w1", "w2", "w3", "sum", "class",
                                            "coplanar_with_center")]]),
    "tables": (["tables"], 6,
               lambda p: [[r[k] for k in ("table", "row", "w1", "w2", "w3", "sum",
                                          "ref_sum", "delta")] for r in p["rows"]]),
    "sweep": (["sweep", "--geometry", "s2r", "--a2", "3,-2,1", "--ray", "2,1,0",
               "--samples", "16"], 5,
              lambda p: p["series"]),
    "geodesic": (["geodesic", "--geometry", "h2r", "--to", "2,1,0", "--samples", "8"], 3,
                 lambda p: p["points"]),
}


def _cell_matches(cell: str, value, prec: int) -> bool:
    """The csv cell shows the json value at display precision ``prec``."""
    if isinstance(value, (bool, str)):
        return cell == str(value).lower()
    # json rounds parameters to the 12 significant digits shown, deltas to 12 decimals
    return abs(float(cell) - value) <= 0.5 * 10.0 ** -prec + 1e-12


@pytest.mark.parametrize("command", list(CSV_CASES))
def test_csv_cells_match_json_values(capsys, command):
    argv, prec, json_grid = CSV_CASES[command]
    argv = [*argv, "--precision", str(prec)]
    _, out_json, _ = run(capsys, *argv, "--format", "json")
    code, out_csv, err_csv = run(capsys, *argv, "--format", "csv")
    assert code == 0
    payload = json.loads(out_json)
    rows = [line.split(",") for line in out_csv.splitlines()[1:]]
    expected = json_grid(payload)
    assert [len(r) for r in rows] == [len(r) for r in expected]
    for cells, values in zip(rows, expected):
        for cell, value in zip(cells, values):
            assert _cell_matches(cell, value, prec), (cell, value)
    summary = dict(line.split("=", 1) for line in err_csv.splitlines())
    for name in summary.keys() & payload.keys():
        assert _cell_matches(summary[name], payload[name], prec), (name, summary[name])
