"""Exit codes, file outputs, and printed reports of the command line."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import relusplines as rs
from relusplines import cli, synth, transfer
from relusplines.cli import main

from helpers import overflow_network, reference_csv

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

    @pytest.mark.parametrize("bounds", [("-1e-3", "1"), ("-1", "-1e-3")])
    def test_negative_exponent_bounds(self, tmp_path, capsys, bounds):
        # argparse reads -1e-3 as a flag unless it is glued to --from or --to
        path = self.spline_file(tmp_path, knots=[-5e-4], coeffs=[2.0])
        start, stop = bounds
        spaced = run(capsys, "eval", path, "--from", start, "--to", stop, "--samples", "7")
        glued = run(capsys, "eval", path, f"--from={start}", f"--to={stop}", "--samples", "7")
        assert spaced == glued
        assert spaced[0] == 0 and len(spaced[1].splitlines()) == 7

    @pytest.mark.parametrize("flag,value", [("--to", "inf"), ("--from", "nan")])
    def test_bounds_must_be_finite(self, tmp_path, capsys, flag, value):
        path = self.spline_file(tmp_path)
        bounds = {"--from": "0", "--to": "1", flag: value}
        code, out, err = run(capsys, "eval", path, *(x for kv in bounds.items() for x in kv),
                             "--samples", "5")
        assert (code, out) == (2, "")
        assert err == f"error: {flag} must be finite, got {value}\n"

    def test_allocation_failure_is_an_error_line(self, tmp_path, monkeypatch, capsys):
        # numpy's error for a sample count too large to allocate; raised
        # here instead of allocated, as a lazy allocation could succeed
        message = "Unable to allocate 7.28 TiB for an array with shape (1000000000000,)"

        def failing(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli.np, "linspace", failing)
        path = self.spline_file(tmp_path)
        code, out, err = run(capsys, "eval", path, "--from", "0", "--to", "1",
                             "--samples", "1000000000000")
        assert (code, out, err) == (2, "", f"error: {message}\n")

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
        code, out, _ = run(capsys, "synth", FIXTURES / "fourteen_hierarchy.json",
                           "-o", out_path)
        assert code == 0
        assert out == "prescribed knots active: 14/14\n"
        assert rs.load_json(out_path) == rs.load_json(FIXTURES / "three_hidden_network.json")

    def test_three_level_success_writes_nothing_to_stderr(self, tmp_path):
        # a fresh interpreter with the default warning filters, which print
        # a RuntimeWarning to stderr
        src = str(Path(rs.__file__).resolve().parent.parent)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        out_path = tmp_path / "net.json"
        argv = ["synth", str(FIXTURES / "fourteen_hierarchy.json"), "-o", str(out_path)]
        proc = subprocess.run([sys.executable, "-m", "relusplines.cli", *argv], env=env,
                              capture_output=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, b"prescribed knots active: 14/14\n", b""
        )

    def test_three_level_failure_sorted_by_reason(self, tmp_path, capsys):
        flat = tmp_path / "flat.json"
        rs.dump_json(flat, {"knots": np.linspace(-10.0, 10.0, 152).tolist()})
        out_path = tmp_path / "net.json"
        code, out, err = run(capsys, "synth", flat, "--arch", "8,8,8", "-o", out_path)
        assert (code, out) == (5, "")
        assert err.splitlines() == [
            "error: prescribed knots stayed inactive, kept by no third-layer unit: "
            "[-0.7284768211920518, 0.4635761589403984, 10.0], cancelled by this final row: []"
        ]
        assert not out_path.exists()

    def test_converts_each_network_once(self, tmp_path, monkeypatch, capsys):
        # the build's layer steps 2 and 3 and its final row; the CLI adds none
        calls = []
        real = transfer.layer_transfer

        def counting(*args, **kwargs):
            calls.append(args[1].out_width)
            return real(*args, **kwargs)

        monkeypatch.setattr(transfer, "layer_transfer", counting)
        monkeypatch.setattr(synth, "layer_transfer", counting)
        code, out, _ = run(capsys, "synth", FIXTURES / "fourteen_hierarchy.json",
                           "-o", tmp_path / "net.json")
        assert (code, out) == (0, "prescribed knots active: 14/14\n")
        assert calls == [2, 2, 1]

    def test_two_level_miss_is_the_library_error(self, tmp_path, capsys):
        knots = np.linspace(-10.0, 10.0, 120)
        flat = tmp_path / "flat.json"
        rs.dump_json(flat, {"knots": knots.tolist()})
        out_path = tmp_path / "net.json"
        code, out, err = run(capsys, "synth", flat, "--arch", "10,10", "-o", out_path)
        with pytest.raises(rs.ActivityError) as info:
            rs.synth_two_hidden(rs.hierarchy_from_flat(knots, 10, 10))
        assert len(info.value.inactive) == 6
        assert (code, out, err.splitlines()) == (5, "", [f"error: {info.value}"])
        assert not out_path.exists()

    @pytest.mark.parametrize("knots,flags", [
        ("max_knots_hierarchy.json", []),
        ("nine_flat_knots.json", ["--arch", "3,2", "--no-source"]),
        ("fourteen_hierarchy.json", []),
    ])
    def test_builds_check_under_the_tolerance_flags(self, tmp_path, monkeypatch, capsys,
                                                    knots, flags):
        seen = []
        real = synth._hand_over

        def recording(net, spline, tol):
            seen.append(tol)
            return real(net, spline, tol)

        monkeypatch.setattr(synth, "_hand_over", recording)
        code, _, _ = run(capsys, "synth", FIXTURES / knots, *flags, "--tol-zero", "1e-9",
                         "--tol-merge", "1e-13", "-o", tmp_path / "net.json")
        assert (code, seen) == (0, [rs.Tolerances(1e-9, 1e-13)])

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
        assert err.splitlines() == [
            "error: prescribed knots stayed inactive, kept by no second-layer unit: [3.0], "
            "cancelled by this final row: []"
        ]
        assert not (tmp_path / "net.json").exists()

    def test_knots_closer_than_twice_activity_tol_exit_5(self, tmp_path, capsys):
        # 24 knots 4.3e-10 apart: a neighbour's knot does not count for a lost one
        flat = tmp_path / "tight.json"
        rs.dump_json(flat, {"knots": np.linspace(0.0, 1e-8, 24).tolist()})
        code, out, err = run(capsys, "synth", flat, "--arch", "4,4", "-o", tmp_path / "net.json")
        assert code == 5 and out == ""
        assert err.startswith("error: prescribed knots stayed inactive")
        assert not (tmp_path / "net.json").exists()

    @pytest.mark.parametrize("arch", ["0,2", "0,2,1"])
    def test_empty_first_level(self, tmp_path, capsys, arch):
        five = tmp_path / "five.json"
        rs.dump_json(five, {"knots": [1.0, 2.0, 3.0, 4.0, 5.0][: 2 if arch == "0,2" else 5]})
        code, out, err = run(capsys, "synth", five, "--arch", arch, "-o", tmp_path / "net.json")
        assert (code, out) == (4, "")
        assert err == "error: level1 needs at least one knot\n"

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
        assert err.splitlines() == [
            "error: prescribed knots stayed inactive, kept by no second-layer unit: [1.0], "
            "cancelled by this final row: []"
        ]

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
        # seeds of one sign leave level-1 knots kept by no unit: the activity check says so
        code, out, err = run(capsys, "synth", FIXTURES / "nine_flat_knots.json",
                             "--arch", "3,2", "--no-source", "--seeds", "1,1",
                             "-o", tmp_path / "net.json")
        assert (code, out) == (5, "")
        assert err.splitlines() == [
            "error: prescribed knots stayed inactive, kept by no second-layer unit: [1.0, 7.0], "
            "cancelled by this final row: []"
        ]
        assert not (tmp_path / "net.json").exists()

    def test_default_single_seed_names_the_lost_knot(self, tmp_path, capsys):
        # n2 = 1 < n1: the one default seed cannot change sign, and the error
        # names the knot it loses rather than a --seeds flag never passed
        flat = tmp_path / "six.json"
        rs.dump_json(flat, {"knots": np.arange(1.0, 7.0).tolist()})
        code, out, err = run(capsys, "synth", flat, "--arch", "3,1", "--no-source",
                             "-o", tmp_path / "net.json")
        assert (code, out) == (5, "")
        assert err.splitlines() == [
            "error: prescribed knots stayed inactive, kept by no second-layer unit: [3.0], "
            "cancelled by this final row: []"
        ]
        assert not (tmp_path / "net.json").exists()

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
        "flags,message",
        [
            (["--arch", "3,x"], "--arch must be a comma-separated list of ints, got '3,x'"),
            (["--arch", "3,2", "--no-source", "--seeds", "1,x"],
             "--seeds must be a comma-separated list of floats, got '1,x'"),
        ],
    )
    def test_non_number_list_entry_rejected(self, tmp_path, capsys, flags, message):
        out_path = tmp_path / "net.json"
        code, out, err = run(capsys, "synth", FIXTURES / "nine_flat_knots.json", *flags,
                             "-o", out_path)
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
            # the form open() raises: errno, message and file name
            (FileNotFoundError(2, "No such file or directory", "gone.json"), 2),
            (rs.DegenerateFirstLayerError("dead units", 1), 2),
            (ValueError("bad value"), 2),
            (NotADirectoryError(20, "Not a directory", "afile/out.json"), 2),
            (PermissionError(13, "Permission denied", "locked.json"), 2),
            (MemoryError("Unable to allocate 7.28 TiB for an array"), 2),
        ],
    )
    def test_documented_code(self, monkeypatch, capsys, error, code):
        def failing(path):
            raise error

        # the first call to-spline makes on its input
        monkeypatch.setattr(cli, "load_json", failing)
        got, out, err = run(capsys, "to-spline", MAX_NET, "-o", "unused.json")
        assert got == code
        assert (out, err) == ("", f"error: {error}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["to-spline", MAX_NET, "-o", "{afile}/out.json"],
            ["eval", MAX_SPLINE, "--from", "0", "--to", "1", "--samples", "2",
             "-o", "{afile}/x.csv"],
            ["normalize", MAX_NET, "-o", "{afile}/n.json"],
            ["to-spline", "{afile}/net.json", "-o", "{tmp}/o.json"],
        ],
    )
    def test_path_under_a_regular_file(self, tmp_path, capsys, argv):
        afile = tmp_path / "afile"
        afile.write_text("")
        argv = [str(a).format(afile=afile, tmp=tmp_path) for a in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: [Errno 20] Not a directory: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]

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
        reports = {
            "max_knots": ("7.105e-16", "observed=15 bound=15 ok", "59 points after 0 rounds"),
            "nine_knots": ("0.000e+00", "observed=9 bound=11 ok", "35 points after 0 rounds"),
            "three_hidden": ("4.731e-15", "observed=15 bound=26 ok", "59 points after 0 rounds"),
        }
        for name, (error, knots, grid) in reports.items():
            code, out, _ = run(capsys, "verify", FIXTURES / f"{name}_network.json",
                               FIXTURES / f"{name}_spline.json")
            assert code == 0, name
            assert out.splitlines() == [
                f"max relative error: {error}", f"knots: {knots}", f"certified grid: {grid}"
            ], name

    def test_reports_the_certified_grid(self, capsys):
        # the 15 knots' probe grid already splits every unit's sign change
        code, out, _ = run(capsys, "verify", MAX_NET, MAX_SPLINE)
        assert code == 0
        assert out.splitlines()[2] == "certified grid: 59 points after 0 rounds"

    def test_spline_file_is_judged_without_converting(self, monkeypatch, capsys):
        _, expected, _ = run(capsys, "verify", MAX_NET, MAX_SPLINE)

        def refused(*args, **kwargs):
            raise AssertionError("verify converted the network")

        monkeypatch.setattr(transfer, "layer_transfer", refused)
        code, out, _ = run(capsys, "verify", MAX_NET, MAX_SPLINE)
        assert (code, out) == (0, expected)
        assert out.splitlines()[:2] == [
            "max relative error: 7.105e-16",
            "knots: observed=15 bound=15 ok",
        ]

    def test_network_alone_converts_once(self, monkeypatch, capsys):
        calls = []
        real = cli.dnn_to_spline

        def counting(*args, **kwargs):
            calls.append(args[0].widths)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "dnn_to_spline", counting)
        code, out, _ = run(capsys, "verify", MAX_NET)
        assert code == 0 and calls == [(1, 3, 3, 1)]
        assert out.splitlines()[1:] == [
            "knots: observed=15 bound=15 ok",
            "certified grid: 59 points after 0 rounds",
        ]

    def test_missing_knot_at_a_flank_fails(self, tmp_path, capsys):
        # relu(t) - relu(t - 2) against t - relu(t - 2): the file's probe
        # grid {0, 2, 4} has the network's lost hinge at its flank, where
        # both agree; the certificate adds a point beyond it
        net_path, spline_path = tmp_path / "net.json", tmp_path / "spline.json"
        net = rs.ReluNetwork.shallow([1.0, 1.0], [0.0, -2.0], [1.0, -1.0])
        rs.dump_json(net_path, rs.network_to_obj(net))
        rs.dump_json(spline_path, rs.spline_to_obj(rs.CplSpline(1.0, 0.0, [2.0], [-1.0])))
        code, out, _ = run(capsys, "verify", net_path, spline_path)
        assert code == 1
        assert out.splitlines()[2] == "certified grid: 4 points after 1 rounds"

    def test_hinge_beside_a_merged_crossing_fails(self, tmp_path, capsys):
        # relu(relu(-t) - 1) against a spline with its one knot at 5e-13: the
        # layer-1 crossing at 0 merges into that knot, and the certificate
        # still finds the layer-2 hinge at -1 that the spline lacks
        net_path, spline_path = tmp_path / "net.json", tmp_path / "spline.json"
        net = rs.ReluNetwork((
            rs.Layer([[1e4], [-1.0]], [0.0, 0.0]),
            rs.Layer([[0.0, 1.0]], [-1.0], [0.0]),
            rs.Layer([[1.0]], [0.0], [0.0]),
        ))
        rs.dump_json(net_path, rs.network_to_obj(net))
        rs.dump_json(spline_path, rs.spline_to_obj(rs.CplSpline(-0.5, 2.5e-13, [5e-13], [0.5])))
        code, out, _ = run(capsys, "verify", net_path, spline_path)
        assert code == 1
        assert out.splitlines()[2] == "certified grid: 4 points after 1 rounds"

    def test_unsettled_grid_fails_with_its_own_line(self, monkeypatch, capsys):
        # a certificate that still finds crossings after one round per
        # hidden layer is no verdict of equality: exit 1, not a schema error
        _, expected, _ = run(capsys, "verify", MAX_NET, MAX_SPLINE)
        monkeypatch.setattr(rs.evaluate, "_crossings", lambda net, grid, tol: grid[-1:] + 1.0)
        code, out, err = run(capsys, "verify", MAX_NET, MAX_SPLINE)
        assert (code, err) == (1, "")
        assert out.splitlines() == expected.splitlines()[:2] + [
            "grid not certified: crossings still found after 2 rounds (61 points)"
        ]

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

    def test_knotless_pair(self, tmp_path, capsys):
        # two affine functions agree everywhere when they agree at two points,
        # so the knotless grid decides a slope that differs by 1e-6
        net_path, spline_path = tmp_path / "net.json", tmp_path / "spline.json"
        net = rs.spline_to_shallow(rs.CplSpline(2.0, 1.0, [], []))
        rs.dump_json(net_path, rs.network_to_obj(net))
        rs.dump_json(spline_path, rs.spline_to_obj(rs.CplSpline(2.000001, 1.0, [], [])))
        assert run(capsys, "verify", net_path)[0] == 0
        assert run(capsys, "verify", net_path, spline_path)[0] == 1
        assert run(capsys, "verify", net_path, spline_path, "--tol-eval", "1e-6")[0] == 0

    @pytest.mark.parametrize("kind,message", [
        ("coeff_matrix", "network output"),
        # -1e308 t is 2e308 at the knotless grid's -2
        ("q1s", "hidden layer"),
        ("q0s", "network output"),
        ("bundle knots", "crossing set"),
        ("far hinge", "crossing set"),
    ])
    def test_overflow_is_an_error(self, tmp_path, capsys, kind, message):
        # a finite network whose forward pass or tail crossing overflows
        # against a knotless spline: one error line, no numpy warning
        if kind == "far hinge":
            net = rs.ReluNetwork.shallow([1.0000001e-10], [-1e300], [1.0])
        else:
            net = overflow_network(kind)
        net_path, spline_path = tmp_path / "net.json", tmp_path / "spline.json"
        rs.dump_json(net_path, rs.network_to_obj(net))
        rs.dump_json(spline_path, rs.spline_to_obj(rs.CplSpline(0.0, 0.0, [], [])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "verify", net_path, spline_path)
            assert (code, out) == (2, "")
            assert err == f"error: {message} contains non-finite entries\n"
            # the network alone fails in its conversion
            code, out, err = run(capsys, "verify", net_path)
            assert (code, out) == (2, "")
            converted = "bundle knots" if kind == "far hinge" else kind
            assert err == f"error: {converted} contains non-finite entries\n"

    @pytest.mark.parametrize(
        "value,reason",
        [("0", "positive"), ("-1", "positive"), ("nan", "finite"), ("inf", "finite")],
    )
    def test_tol_eval_must_be_positive_and_finite(self, capsys, value, reason):
        code, out, err = run(capsys, "verify", MAX_NET, MAX_SPLINE, "--tol-eval", value)
        assert (code, out) == (2, "")
        assert err == f"error: --tol-eval must be {reason}, got {float(value)!r}\n"


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

    def test_degenerate_is_an_error(self, tmp_path, capsys):
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
        assert code == 2
        assert err == "error: first layer has coinciding hinges; effective width 1 of 2\n"
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
