"""Exit codes, file outputs, and printed reports of the command line."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relusplines as rs
from relusplines import cli
from relusplines.cli import main

from helpers import reference_csv

FIXTURES = Path(__file__).resolve().parent / "fixtures"
MAX_NET = str(FIXTURES / "max_knots_network.json")
MAX_SPLINE = str(FIXTURES / "max_knots_spline.json")


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def spline_file(self, tmp_path, **kw):
        obj = {"q1": 1.0, "q0": 0.0, "knots": [], "coeffs": []} | kw
        path = tmp_path / "spline.json"
        rs.dump_json(path, obj)
        return path

    def test_identity_two_samples(self, tmp_path, capsys):
        path = self.spline_file(tmp_path)
        code, out, _ = run(capsys, "eval", path, "--from", "0", "--to", "1", "--samples", "2")
        assert code == 0
        assert out == "0,0\n1,1\n"

    def test_header_and_output_file(self, tmp_path, capsys):
        path = self.spline_file(tmp_path)
        csv = tmp_path / "out.csv"
        code, out, _ = run(capsys, "eval", path, "--from", "0", "--to", "1",
                           "--samples", "3", "-o", csv, "--header")
        assert code == 0
        assert out == ""
        assert csv.read_text() == "t,value\n0,0\n0.5,0.5\n1,1\n"

    def test_network_input(self, capsys):
        # one sample sits at the start of the range; the value is the
        # network's computed double, printed with shortest round trip
        code, out, _ = run(capsys, "eval", MAX_NET, "--from", "0", "--to", "1", "--samples", "1")
        assert code == 0
        assert out == "0,0.20000000000000018\n"
        assert float(out.split(",")[1]) == pytest.approx(0.2)

    def test_range_must_be_increasing(self, tmp_path, capsys):
        path = self.spline_file(tmp_path)
        code, _, err = run(capsys, "eval", path, "--from", "1", "--to", "1", "--samples", "2")
        assert code == 2
        assert "below" in err

    def test_samples_must_be_positive(self, tmp_path, capsys):
        path = self.spline_file(tmp_path)
        code, _, err = run(capsys, "eval", path, "--from", "0", "--to", "1", "--samples", "0")
        assert code == 2

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "eval", tmp_path / "nope.json",
                           "--from", "0", "--to", "1", "--samples", "2")
        assert code == 2
        assert "error:" in err

    def test_tolerance_flags_rejected(self, tmp_path):
        # evaluation uses no tolerances, so the flags are unknown arguments
        path = self.spline_file(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(["eval", str(path), "--from", "0", "--to", "1", "--samples", "2",
                  "--tol-zero", "1e-8"])
        assert info.value.code == 2

    def test_csv_is_bit_stable(self, tmp_path, capsys):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        for csv in (first, second):
            code, _, _ = run(capsys, "eval", MAX_NET, "--from", "-1.7", "--to", "4.9",
                             "--samples", "113", "-o", csv)
            assert code == 0
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("path", [MAX_SPLINE, MAX_NET])
    @pytest.mark.parametrize("header", [False, True])
    def test_csv_matches_per_row_reference(self, tmp_path, capsys, path, header):
        # more than two blocks of rows, to a file and to stdout
        samples = 2 * rs.serialization._CSV_BLOCK_ROWS + 3
        ts = np.linspace(-1.7, 4.9, samples)
        model = rs.detect_and_load(path)
        evaluate = rs.eval_network if isinstance(model, rs.ReluNetwork) else rs.eval_spline
        want = reference_csv(ts, evaluate(model, ts), header)
        argv = ["eval", path, "--from", "-1.7", "--to", "4.9", "--samples", samples]
        argv += ["--header"] if header else []
        csv = tmp_path / "out.csv"
        assert run(capsys, *argv, "-o", csv) == (0, "", "")
        assert csv.read_bytes() == want.encode()
        assert run(capsys, *argv) == (0, want, "")


@pytest.mark.parametrize(
    "argv,obj,field",
    [
        (["eval", "--from", "0", "--to", "1", "--samples", "2"],
         {"q1": 10**400, "q0": 0.0, "knots": [], "coeffs": []}, "q1"),
        (["synth", "--arch", "1,1", "--no-source", "-o", "net.json"],
         {"knots": [1.0, -(10**400)]}, "knots[1]"),
    ],
)
def test_out_of_range_integer_is_schema_error(tmp_path, capsys, argv, obj, field):
    # JSON integers have no size limit; one that does not fit a double is a bad field
    path = tmp_path / "in.json"
    rs.dump_json(path, obj)
    code, out, err = run(capsys, argv[0], path, *argv[1:])
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: {field} is out of range for a double"]


class TestToSpline:
    def test_reference_network(self, tmp_path, capsys):
        out_path = tmp_path / "spline.json"
        code, out, _ = run(capsys, "to-spline", MAX_NET, "-o", out_path)
        assert code == 0
        assert out == "knots: observed=15 bound=15\n"
        written = rs.spline_from_obj(rs.load_json(out_path))
        expected = rs.dnn_to_spline(rs.network_from_obj(rs.load_json(MAX_NET)))
        assert written.q1 == expected.q1 and written.q0 == expected.q0
        np.testing.assert_array_equal(written.knots, expected.knots)
        np.testing.assert_array_equal(written.coeffs, expected.coeffs)

    def test_malformed_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code, _, err = run(capsys, "to-spline", bad, "-o", tmp_path / "s.json")
        assert code == 2
        assert "not valid JSON" in err

    def test_shape_mismatch(self, tmp_path, capsys):
        obj = rs.load_json(MAX_NET)
        obj["layers"][1]["A"] = [[1.0, 2.0]]
        bad = tmp_path / "bad.json"
        rs.dump_json(bad, obj)
        code, _, err = run(capsys, "to-spline", bad, "-o", tmp_path / "s.json")
        assert code == 3

    def test_inconsistent_tolerances(self, tmp_path, capsys):
        code, _, err = run(capsys, "to-spline", MAX_NET, "--tol-merge", "1e-3",
                           "-o", tmp_path / "s.json")
        assert code == 2
        assert "merge_tol" in err

    def test_tolerance_flags_accepted(self, tmp_path, capsys):
        code, _, _ = run(capsys, "to-spline", MAX_NET, "--tol-zero", "1e-8",
                         "--tol-merge", "1e-9", "-o", tmp_path / "s.json")
        assert code == 0

    def test_infinite_tolerances_rejected(self, tmp_path, capsys):
        code, out, err = run(capsys, "to-spline", MAX_NET, "--tol-zero", "inf",
                             "--tol-merge", "inf", "-o", tmp_path / "s.json")
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: zero_tol must be finite"]
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["to-spline", MAX_NET],
            ["synth", str(FIXTURES / "max_knots_hierarchy.json")],
            ["normalize", MAX_NET],
        ],
    )
    def test_tol_eval_only_on_verify(self, tmp_path, argv):
        # only verify makes an equality verdict, so elsewhere the flag is unknown
        with pytest.raises(SystemExit) as info:
            main(argv + ["--tol-eval", "1e-6", "-o", str(tmp_path / "out.json")])
        assert info.value.code == 2


class TestSynth:
    def test_no_source_reference(self, tmp_path, capsys):
        out_path = tmp_path / "net.json"
        code, out, _ = run(capsys, "synth", FIXTURES / "nine_flat_knots.json",
                           "--arch", "3,2", "--no-source", "--seeds", "-1,1",
                           "-o", out_path)
        assert code == 0
        assert out == "prescribed knots active: 9/9\n"
        assert rs.load_json(out_path) == rs.load_json(FIXTURES / "nine_knots_network.json")

    def test_seeds_equals_form(self, tmp_path, capsys):
        out_path = tmp_path / "net.json"
        code, _, _ = run(capsys, "synth", FIXTURES / "nine_flat_knots.json",
                         "--arch", "3,2", "--no-source", "--seeds=-1,1", "-o", out_path)
        assert code == 0
        assert rs.load_json(out_path) == rs.load_json(FIXTURES / "nine_knots_network.json")

    def test_two_level_hierarchy(self, tmp_path, capsys):
        out_path = tmp_path / "net.json"
        code, out, _ = run(capsys, "synth", FIXTURES / "max_knots_hierarchy.json",
                           "-o", out_path)
        assert code == 0
        assert out == "prescribed knots active: 15/15\n"
        net = rs.network_from_obj(rs.load_json(out_path))
        assert net.widths == (1, 3, 3, 1)

    def test_three_level_hierarchy(self, tmp_path, capsys):
        out_path = tmp_path / "net.json"
        with pytest.warns(RuntimeWarning, match="below log2"):
            code, out, _ = run(capsys, "synth", FIXTURES / "fourteen_hierarchy.json",
                               "-o", out_path)
        assert code == 0
        assert out == "prescribed knots active: 14/14\n"
        assert rs.load_json(out_path) == rs.load_json(FIXTURES / "three_hidden_network.json")

    def test_flat_knots_with_architecture(self, tmp_path, capsys):
        flat = tmp_path / "flat.json"
        rs.dump_json(flat, {"knots": np.arange(1.0, 9.0).tolist()})
        code, out, _ = run(capsys, "synth", flat, "--arch", "2,2", "-o", tmp_path / "net.json")
        assert code == 0
        assert out == "prescribed knots active: 8/8\n"

    def test_flat_needs_architecture(self, tmp_path, capsys):
        code, _, err = run(capsys, "synth", FIXTURES / "nine_flat_knots.json",
                           "-o", tmp_path / "net.json")
        assert code == 2
        assert "--arch" in err

    def test_wrong_knot_count(self, tmp_path, capsys):
        # 3 + 2 * 4 = 11 knots needed, file has 9
        code, _, err = run(capsys, "synth", FIXTURES / "nine_flat_knots.json",
                           "--arch", "3,2", "-o", tmp_path / "net.json")
        assert code == 3

    def test_duplicate_knots(self, tmp_path, capsys):
        flat = tmp_path / "dup.json"
        rs.dump_json(flat, {"knots": [1.0, 1.0, 2.0]})
        code, _, err = run(capsys, "synth", flat, "--arch", "1,1", "-o", tmp_path / "net.json")
        assert code == 4
        assert "strictly increasing" in err

    def test_inactive_knot_reported(self, tmp_path, capsys):
        # a single second-layer unit cannot keep even-position level-1 knots
        flat = tmp_path / "five.json"
        rs.dump_json(flat, {"knots": [0.0, 1.0, 2.0, 3.0, 4.0]})
        code, _, err = run(capsys, "synth", flat, "--arch", "2,1", "-o", tmp_path / "net.json")
        assert code == 5
        assert "even-position level-1 knots [3.0] active" in err
        assert not (tmp_path / "net.json").exists()

    def test_no_source_empty_first_level(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        rs.dump_json(empty, {"knots": []})
        code, out, err = run(capsys, "synth", empty, "--arch", "0,1", "--no-source",
                             "-o", tmp_path / "net.json")
        assert code == 4
        assert out == ""
        # one error line and no traceback
        assert err.splitlines() == ["error: level 1 needs at least one knot, got n1 = 0"]

    def test_no_source_zero_width_second_layer(self, tmp_path, capsys):
        one = tmp_path / "one.json"
        rs.dump_json(one, {"knots": [1.0]})
        code, out, err = run(capsys, "synth", one, "--arch", "1,0", "--no-source",
                             "-o", tmp_path / "net.json")
        assert (code, out) == (5, "")
        assert err.splitlines() == ["inactive prescribed knots: [1.0]"]

    @pytest.mark.parametrize(
        "obj,message",
        [
            ({"knots": [1, "2", 3, 4, 5, 6, 7, 8, 9]}, "knots[1] must be a number"),
            ({"knots": "12"}, "knots must be a list of numbers"),
            ({"knots": [True, 2]}, "knots[0] must be a number"),
            ({"knots": list(range(1, 10)), "note": 1}, "flat knots has unknown field 'note'"),
        ],
    )
    def test_flat_file_schema(self, tmp_path, capsys, obj, message):
        flat = tmp_path / "flat.json"
        rs.dump_json(flat, obj)
        code, out, err = run(capsys, "synth", flat, "--arch", "3,2", "--no-source",
                             "-o", tmp_path / "net.json")
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: {message}"]

    def test_same_sign_seeds_rejected(self, tmp_path, capsys):
        code, _, err = run(capsys, "synth", FIXTURES / "nine_flat_knots.json",
                           "--arch", "3,2", "--no-source", "--seeds", "1,1",
                           "-o", tmp_path / "net.json")
        assert code == 2
        assert "sign change" in err

    @pytest.mark.parametrize(
        "knots,flags,message",
        [
            ("max_knots_hierarchy.json", ["--arch", "9,9,9"],
             "--arch and --no-source need a flat knots file"),
        ],
    )
    def test_unread_flags_rejected(self, tmp_path, capsys, knots, flags, message):
        out_path = tmp_path / "net.json"
        code, out, err = run(capsys, "synth", FIXTURES / knots, *flags, "-o", out_path)
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: {message}"]
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "knots,flags",
        [
            ("max_knots_hierarchy.json", ["--seed", "5"]),
            ("nine_flat_knots.json", ["--arch", "3,2", "--no-source", "--seed", "5"]),
        ],
    )
    def test_seed_is_an_unknown_flag(self, tmp_path, capsys, knots, flags):
        # no build is random, and --seed is not taken as a prefix of --seeds
        out_path = tmp_path / "net.json"
        with pytest.raises(SystemExit) as info:
            main(["synth", str(FIXTURES / knots), *flags, "-o", str(out_path)])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].endswith("error: unrecognized arguments: --seed 5")
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--arch", "3,,2"], "--arch has an empty entry in '3,,2'"),
            (["--arch", "3,2,"], "--arch has an empty entry in '3,2,'"),
            (["--arch", "3,2", "--seeds=-1,1,"], "--seeds has an empty entry in '-1,1,'"),
        ],
    )
    def test_empty_list_entry_rejected(self, tmp_path, capsys, flags, message):
        out_path = tmp_path / "net.json"
        code, out, err = run(capsys, "synth", FIXTURES / "nine_flat_knots.json", *flags,
                             "--no-source", "-o", out_path)
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: {message}"]
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "knots,flags", [([], ["--arch=1,-1", "--no-source"]), ([1.0, 2.0, 3.0], ["--arch=1,-1"])]
    )
    def test_negative_width_rejected(self, tmp_path, capsys, knots, flags):
        flat = tmp_path / "flat.json"
        rs.dump_json(flat, {"knots": knots})
        code, out, err = run(capsys, "synth", flat, *flags, "-o", tmp_path / "net.json")
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: widths must be non-negative, got (1, -1)"]

    def test_seed_on_three_levels(self, tmp_path, capsys):
        # the three-level build makes one attempt, so it has nothing to seed
        out_path = tmp_path / "net.json"
        with pytest.raises(SystemExit) as info:
            main(["synth", str(FIXTURES / "fourteen_hierarchy.json"), "--seed", "5",
                  "-o", str(out_path)])
        assert info.value.code == 2
        assert "error: unrecognized arguments: --seed 5" in capsys.readouterr().err
        assert not out_path.exists()

    def test_seeds_need_no_source(self, tmp_path, capsys):
        out_path = tmp_path / "net.json"
        code, _, err = run(capsys, "synth", FIXTURES / "max_knots_hierarchy.json",
                           "--seeds", "-1,1", "-o", out_path)
        assert code == 2
        assert "--seeds needs --no-source" in err
        assert not out_path.exists()


class TestExitCodes:
    @pytest.mark.parametrize(
        "error,code",
        [
            (FileNotFoundError("gone.json"), 2),
            (IsADirectoryError("a directory"), 2),
            (rs.SchemaError("bad field"), 2),
            (rs.DimensionMismatchError("bad shape"), 3),
            (rs.InterlacingError("not nested"), 4),
            (rs.ActivityError("inactive", [1.0]), 5),
            (rs.CoverageError("uncovered", [0]), 5),
            (rs.DegenerateFirstLayerError("dead units", 1), 2),
            (ValueError("bad value"), 2),
        ],
    )
    def test_documented_code(self, monkeypatch, capsys, error, code):
        def failing(args):
            raise error

        monkeypatch.setattr(cli, "_cmd_to_spline", failing)
        got, out, err = run(capsys, "to-spline", MAX_NET, "-o", "unused.json")
        assert got == code
        assert (out, err) == ("", f"error: {error}\n")

    def test_reader_closing_the_pipe_early(self, tmp_path):
        # `relusplines eval ... | head -2`: the reader leaves after two rows
        path = tmp_path / "spline.json"
        rs.dump_json(path, {"q1": 1.0, "q0": 0.0, "knots": [], "coeffs": []})
        src = str(Path(rs.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = ["eval", str(path), "--from", "0", "--to", "1", "--samples", "200000"]
        proc = subprocess.Popen([sys.executable, "-m", "relusplines.cli", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        rows = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert rows[0] == b"0,0\n" and rows[1].endswith(b"\n")
        assert err == b""


class TestVerify:
    def test_every_fixture_verifies(self, capsys):
        networks = sorted(FIXTURES.glob("*_network.json"))
        assert networks
        for net_path in networks:
            code, _, _ = run(capsys, "verify", net_path)
            assert code == 0, net_path.name
            spline_path = net_path.with_name(net_path.name.replace("_network", "_spline"))
            code, _, _ = run(capsys, "verify", net_path, spline_path)
            assert code == 0, spline_path.name

    def test_reports_error_and_bound(self, capsys):
        code, out, _ = run(capsys, "verify", MAX_NET, MAX_SPLINE)
        assert code == 0
        assert out.startswith("max relative error: ")
        assert "knots: observed=15 bound=15 ok" in out

    def test_perturbed_spline_fails(self, tmp_path, capsys):
        obj = rs.load_json(MAX_SPLINE)
        obj["q0"] += 1.0
        bad = tmp_path / "bad.json"
        rs.dump_json(bad, obj)
        code, out, _ = run(capsys, "verify", MAX_NET, bad)
        assert code == 1
        assert "max relative error" in out
        # the relative error is at most 1 here, so a tolerance of 2 accepts it
        code, _, _ = run(capsys, "verify", MAX_NET, bad, "--tol-eval", "2")
        assert code == 0


class TestNormalize:
    def test_reference_signs(self, tmp_path, capsys):
        out_path = tmp_path / "net.json"
        code, out, _ = run(capsys, "normalize", MAX_NET, "-o", out_path)
        assert code == 0
        assert out == "layer 2 source signs: before [0.0, 0.0, 0.0] after [1.0, 1.0, -1.0]\n"
        normalized = rs.network_from_obj(rs.load_json(out_path))
        assert rs.is_normalized(normalized)

    def test_function_preserved(self, tmp_path, capsys):
        out_path = tmp_path / "net.json"
        run(capsys, "normalize", MAX_NET, "-o", out_path)
        original = rs.network_from_obj(rs.load_json(MAX_NET))
        normalized = rs.network_from_obj(rs.load_json(out_path))
        grid = rs.probe_grid(rs.dnn_to_spline(original).knots)
        np.testing.assert_allclose(
            rs.eval_network(normalized, grid), rs.eval_network(original, grid),
            rtol=0, atol=1e-9,
        )

    def test_degenerate_fails_with_warning(self, tmp_path, capsys):
        obj = {
            "widths": [1, 2, 1],
            "layers": [
                {"A": [[1.0], [1.0]], "b": [0.0, 0.0]},
                {"A": [[1.0, 1.0]], "b": [0.0]},
            ],
        }
        bad = tmp_path / "deg.json"
        rs.dump_json(bad, obj)
        code, _, err = run(capsys, "normalize", bad, "-o", tmp_path / "net.json")
        assert code == 1
        assert "effective width 1 of 2" in err
        assert not (tmp_path / "net.json").exists()

    def test_overflowing_hinges_are_an_error(self, tmp_path, capsys):
        # both hinges -1e300 / 1e-9 overflow to -inf: not a coinciding pair
        obj = {
            "widths": [1, 2, 1],
            "layers": [
                {"A": [[1e-9], [1e-9]], "b": [1e300, 1e300]},
                {"A": [[1.0, 1.0]], "b": [0.0]},
            ],
        }
        bad = tmp_path / "inf.json"
        rs.dump_json(bad, obj)
        code, _, err = run(capsys, "normalize", bad, "-o", tmp_path / "net.json")
        assert code == 2
        assert err == "error: layer bias contains non-finite entries\n"
        assert not (tmp_path / "net.json").exists()

    def test_shallow_reports_no_interior(self, tmp_path, capsys):
        obj = {
            "widths": [1, 2, 1],
            "layers": [
                {"A": [[1.0], [-1.0]], "b": [0.0, 1.0]},
                {"A": [[1.0, 1.0]], "b": [0.0]},
            ],
        }
        net = tmp_path / "net.json"
        rs.dump_json(net, obj)
        code, out, _ = run(capsys, "normalize", net, "-o", tmp_path / "out.json")
        assert code == 0
        assert out == "no interior layers to normalize\n"
