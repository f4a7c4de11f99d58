"""JSON schemas for networks, splines, and hierarchies, plus CSV output."""

import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relusplines as rs

from helpers import (
    fourteen_hierarchy,
    max15_hierarchy,
    net_max_knots,
    net_nine_knots,
    random_canonical_spline,
    random_network,
    reference_csv,
)

CSV_BLOCK = rs.serialization._CSV_BLOCK_ROWS
HALF_BLOCK = CSV_BLOCK // 2
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def csv_text(ts, values, header=False) -> str:
    stream = io.StringIO()
    rs.write_csv(stream, ts, values, header=header)
    return stream.getvalue()


def assert_networks_equal(a: rs.ReluNetwork, b: rs.ReluNetwork):
    assert a.widths == b.widths
    for la, lb in zip(a.layers, b.layers):
        np.testing.assert_array_equal(la.A, lb.A)
        np.testing.assert_array_equal(la.b, lb.b)
        if la.c is None:
            assert lb.c is None
        else:
            np.testing.assert_array_equal(la.c, lb.c)


class TestNetworkSchema:
    def test_round_trip_reference_networks(self):
        for net in (net_max_knots(), net_nine_knots()):
            assert_networks_equal(rs.network_from_obj(rs.network_to_obj(net)), net)

    def test_round_trip_through_json_text(self):
        # identity must survive actual serialization, not just dict passing
        net = net_max_knots()
        obj = json.loads(json.dumps(rs.network_to_obj(net)))
        assert_networks_equal(rs.network_from_obj(obj), net)

    def test_round_trip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            net = random_network(rng)
            assert_networks_equal(rs.network_from_obj(rs.network_to_obj(net)), net)

    def test_missing_c_defaults_to_zero(self):
        obj = {
            "widths": [1, 2, 1],
            "layers": [
                {"A": [[1.0], [-1.0]], "b": [0.0, 1.0]},
                {"A": [[1.0, 1.0]], "b": [0.0]},
            ],
        }
        net = rs.network_from_obj(obj)
        np.testing.assert_array_equal(net.layers[1].c, [0.0])

    def test_first_layer_rejects_source_channel(self):
        obj = {
            "widths": [1, 1, 1],
            "layers": [
                {"A": [[1.0]], "b": [0.0], "c": [1.0]},
                {"A": [[1.0]], "b": [0.0]},
            ],
        }
        with pytest.raises(rs.SchemaError, match=r"layers\[0\].*'c'"):
            rs.network_from_obj(obj)

    def test_widths_layer_count_mismatch(self):
        obj = rs.network_to_obj(net_max_knots())
        obj["widths"] = obj["widths"] + [1]
        with pytest.raises(rs.DimensionMismatchError, match="5 sizes"):
            rs.network_from_obj(obj)

    def test_widths_must_be_integers(self):
        obj = rs.network_to_obj(net_max_knots())
        obj["widths"][1] = 3.5
        with pytest.raises(rs.SchemaError, match="widths"):
            rs.network_from_obj(obj)

    def test_matrix_shape_checked_against_widths(self):
        obj = rs.network_to_obj(net_max_knots())
        obj["layers"][1]["A"] = [[1.0, 2.0]]
        with pytest.raises(rs.DimensionMismatchError, match=r"layers\[1\]\.A"):
            rs.network_from_obj(obj)

    def test_unknown_field_named(self):
        obj = rs.network_to_obj(net_max_knots())
        obj["bias"] = 1.0
        with pytest.raises(rs.SchemaError, match="'bias'"):
            rs.network_from_obj(obj)

    def test_non_numeric_entry_named(self):
        obj = rs.network_to_obj(net_max_knots())
        obj["layers"][0]["A"][0][0] = "one"
        with pytest.raises(rs.SchemaError, match=r"layers\[0\]\.A\[0\]\[0\]"):
            rs.network_from_obj(obj)

    def test_ragged_matrix_rejected(self):
        obj = rs.network_to_obj(net_max_knots())
        obj["layers"][1]["A"][1] = [1.0]
        with pytest.raises(rs.SchemaError, match="unequal"):
            rs.network_from_obj(obj)


class TestSplineSchema:
    def test_round_trip_random(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            spline = random_canonical_spline(rng)
            back = rs.spline_from_obj(rs.spline_to_obj(spline))
            assert back.q1 == spline.q1 and back.q0 == spline.q0
            np.testing.assert_array_equal(back.knots, spline.knots)
            np.testing.assert_array_equal(back.coeffs, spline.coeffs)

    def test_missing_field_named(self):
        obj = {"q1": 1.0, "q0": 0.0, "knots": [0.0]}
        with pytest.raises(rs.SchemaError, match="'coeffs'"):
            rs.spline_from_obj(obj)

    def test_knots_must_be_a_list(self):
        obj = {"q1": 1.0, "q0": 0.0, "knots": 3.0, "coeffs": [1.0]}
        with pytest.raises(rs.SchemaError, match="knots"):
            rs.spline_from_obj(obj)

    def test_boolean_is_not_a_number(self):
        obj = {"q1": True, "q0": 0.0, "knots": [], "coeffs": []}
        with pytest.raises(rs.SchemaError, match="q1"):
            rs.spline_from_obj(obj)

    def test_numbers_are_float_of_each_entry(self):
        # integers past 2^53 round, those past int64 too; each value is float(v)
        big = [2**53 + 1, 2**54 + 2, 2**63 - 1, 2**63, 2**64 + 1, -(2**63) - 1, 10**300]
        values = big + [3, -0.0, 1.5, 1e-320, -(2**1000) - 12345]
        obj = {"q1": 0.0, "q0": 0.0, "knots": values, "coeffs": values[::-1]}
        spline = rs.spline_from_obj(obj)
        assert spline.knots.tobytes() == np.array([float(v) for v in values]).tobytes()
        assert spline.coeffs.tobytes() == np.array([float(v) for v in values[::-1]]).tobytes()
        assert rs.flat_knots_from_obj({"knots": []}).shape == (0,)

    def test_numpy_floats_accepted(self):
        obj = {
            "q1": np.float64(1.0),
            "q0": np.float64(-0.5),
            "knots": [np.float64(0.25), 1.0, 2],
            "coeffs": [np.float64(2.0), 1, -1.0],
        }
        spline = rs.spline_from_obj(obj)
        np.testing.assert_array_equal(spline.knots, [0.25, 1.0, 2.0])
        np.testing.assert_array_equal(spline.coeffs, [2.0, 1.0, -1.0])

    @pytest.mark.parametrize(
        "knots,message",
        [
            ([1.0, 2**1024], "knots[1] is out of range for a double"),
            ([2**1024 - 1, 1.0], "knots[0] is out of range for a double"),
            ([1.0, 2.0, "3"], "knots[2] must be a number"),
            ([1.0, None], "knots[1] must be a number"),
            ([False, 1.0], "knots[0] must be a number"),
            ([1.0, [2.0]], "knots[1] must be a number"),
        ],
    )
    def test_bad_entry_named(self, knots, message):
        with pytest.raises(rs.SchemaError) as info:
            rs.flat_knots_from_obj({"knots": knots})
        assert str(info.value) == message


class TestHierarchySchema:
    def test_two_level_round_trip(self):
        h = max15_hierarchy()
        obj = rs.hierarchy_to_obj(h)
        assert "level3" not in obj
        back = rs.hierarchy_from_obj(obj)
        np.testing.assert_array_equal(back.level1, h.level1)
        np.testing.assert_array_equal(back.level2, h.level2)
        assert back.level3 is None

    def test_three_level_round_trip(self):
        h = fourteen_hierarchy()
        back = rs.hierarchy_from_obj(rs.hierarchy_to_obj(h))
        np.testing.assert_array_equal(back.level1, h.level1)
        np.testing.assert_array_equal(back.level2, h.level2)
        np.testing.assert_array_equal(back.level3, h.level3)

    @pytest.mark.parametrize("widths", [(3, 0), (5, 2, 0), (2, 1, 0)])
    def test_empty_level_round_trip(self, tmp_path, widths):
        # an empty level is written [], and read back with its column count
        n1, n2, *n3 = widths
        count = n1 + n2 * (n1 + 1) + sum(n3) * (n2 + 1)
        h = rs.hierarchy_from_flat(np.arange(1.0, count + 1.0), *widths)
        path = tmp_path / "h.json"
        rs.dump_json(path, rs.hierarchy_to_obj(h))
        back = rs.hierarchy_from_obj(rs.load_json(path))
        for level in ("level1", "level2", "level3"):
            got, want = getattr(back, level), getattr(h, level)
            assert (got is None) == (want is None)
            if want is not None:
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_unknown_field_named(self):
        obj = rs.hierarchy_to_obj(max15_hierarchy())
        obj["level4"] = []
        with pytest.raises(rs.SchemaError, match="'level4'"):
            rs.hierarchy_from_obj(obj)


class TestLoadDump:
    def test_dump_then_load(self, tmp_path):
        path = tmp_path / "net.json"
        obj = rs.network_to_obj(net_max_knots())
        rs.dump_json(path, obj)
        assert rs.load_json(path) == obj
        assert path.read_text().endswith("\n")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(rs.SchemaError, match="not valid JSON"):
            rs.load_json(path)

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(rs.SchemaError, match="top level"):
            rs.load_json(path)

    def test_detect_network_and_spline(self, tmp_path):
        net_path = tmp_path / "net.json"
        rs.dump_json(net_path, rs.network_to_obj(net_max_knots()))
        assert isinstance(rs.detect_and_load(net_path), rs.ReluNetwork)

        spline_path = tmp_path / "spline.json"
        rs.dump_json(spline_path, rs.spline_to_obj(rs.dnn_to_spline(net_max_knots())))
        assert isinstance(rs.detect_and_load(spline_path), rs.CplSpline)

    def test_detect_rejects_other_objects(self, tmp_path):
        path = tmp_path / "h.json"
        rs.dump_json(path, rs.hierarchy_to_obj(max15_hierarchy()))
        with pytest.raises(rs.SchemaError, match="neither"):
            rs.detect_and_load(path)


class TestWriteCsv:
    def test_unit_line(self):
        # two samples of the identity on [0, 1]
        stream = io.StringIO()
        rs.write_csv(stream, np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert stream.getvalue() == "0,0\n1,1\n"

    def test_header_row(self):
        stream = io.StringIO()
        rs.write_csv(stream, np.array([2.0]), np.array([-3.5]), header=True)
        assert stream.getvalue() == "t,value\n2,-3.5\n"

    def test_bit_stable(self):
        ts = np.linspace(-1.7, 2.9, 40)
        values = np.sin(ts)
        first, second = io.StringIO(), io.StringIO()
        rs.write_csv(first, ts, values)
        rs.write_csv(second, ts, values)
        assert first.getvalue() == second.getvalue()

    def test_integral_values_lose_the_point(self):
        for value, text in ((1.0, "1"), (-2.0, "-2"), (0.0, "0")):
            assert csv_text([value], [value]) == f"{text},{text}\n"

    def test_fractions_stay_short(self):
        for value, text in ((0.5, "0.5"), (0.1, "0.1"), (1.0 / 3.0, "0.3333333333333333")):
            assert csv_text([value], [value]) == f"{text},{text}\n"

    def test_parses_back_exactly(self):
        rng = np.random.default_rng(13)
        for t, v in rng.uniform(-1e6, 1e6, (200, 2)):
            row = csv_text([t], [v])
            assert row.endswith("\n")
            assert [float(field) for field in row[:-1].split(",")] == [t, v]

    @pytest.mark.parametrize(
        "ts,values",
        [
            (np.zeros(3), np.zeros(2)),
            (np.zeros(2), np.zeros(3)),
            (np.zeros((2, 1)), np.zeros((2, 1))),
            (np.zeros(2), np.zeros((2, 1))),
            (np.float64(1.0), np.float64(1.0)),
        ],
    )
    def test_columns_must_be_equal_length_vectors(self, ts, values):
        stream = io.StringIO()
        with pytest.raises(rs.DimensionMismatchError, match="equal-length 1-D"):
            rs.write_csv(stream, ts, values)
        assert stream.getvalue() == ""

    @pytest.mark.parametrize(
        "value,text",
        [
            (-0.0, "-0"),
            (5e-324, "5e-324"),
            (2.0**53 + 2, "9007199254740994"),
            (1e15, "1000000000000000"),
            (9999999999999998.0, "9999999999999998"),
            (1e16, "1e+16"),
            (1e-4, "0.0001"),
            (1e-5, "1e-05"),
            (1e22, "1e+22"),
            (1e308, "1e+308"),
            (-1e308, "-1e+308"),
            (np.inf, "inf"),
            (-np.inf, "-inf"),
            (float("nan"), "nan"),
            (np.copysign(np.nan, -1.0), "nan"),
        ],
    )
    def test_edge_values(self, value, text):
        got = csv_text([value, 1.0], [2.5, value])
        assert got == f"{text},2.5\n1,{text}\n"
        assert got == reference_csv([value, 1.0], [2.5, value])

    # finite doubles include subnormals, both zeros and huge integral values
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(FINITE, FINITE)), st.booleans())
    def test_matches_per_row_reference(self, rows, header):
        ts, values = np.array(rows, dtype=float).reshape(-1, 2).T
        assert csv_text(ts, values, header) == reference_csv(ts, values, header)

    # raw bit patterns reach 17-digit values, subnormals and nan payloads,
    # which FINITE rarely draws
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1))
    def test_matches_per_row_reference_on_bit_patterns(self, patterns):
        column = np.array(patterns, dtype=np.uint64).view(np.float64)
        assert csv_text(column, column[::-1]) == reference_csv(column, column[::-1])

    def test_powers_of_two_and_ten_with_neighbours(self):
        powers = np.concatenate(
            [np.ldexp(1.0, np.arange(-1074, 1024)), [float(f"1e{k}") for k in range(-323, 309)]]
        )
        column = np.concatenate(
            [powers, np.nextafter(powers, np.inf), np.nextafter(powers, -np.inf)]
        )
        assert csv_text(column, -column) == reference_csv(column, -column)

    @pytest.mark.parametrize("anchor", [2**53, 10**15, 10**16, 10**17])
    def test_integers_near_digit_count_changes(self, anchor):
        column = (anchor + np.arange(-300, 301)).astype(float)
        assert csv_text(column, -column) == reference_csv(column, -column)

    def test_large_values_near_multiples_of_five_powers(self):
        # doubles m * 2^e at or above 2^54 (Ryū's e2 >= 0 branch) whose 4 m + c
        # is a multiple of 5^q for c in (0, 2, -1, -2), where the bounds of
        # the shortest interval may end in zeros
        rng = np.random.default_rng(5)
        column = []
        for q in range(23):
            for c in (0, 2, -1, -2):
                for t in rng.integers(2**54 // 5**q, 2**55 // 5**q + 1, 10).tolist():
                    m, rem = divmod(5**q * t - c, 4)
                    if rem == 0 and 2**52 <= m < 2**53:
                        column += [float(m) * 2.0**e for e in range(2, 80, 7)]
        assert len(column) > 2000
        column = np.array(column)
        assert csv_text(column, -column) == reference_csv(column, -column)

    @pytest.mark.parametrize(
        "column",
        [
            np.arange(-4000, 4000) / 8.0,
            np.arange(1, 4000) * 1000.0,
            np.round(np.random.default_rng(2).uniform(-1e6, 1e6, 4000), 3),
            np.round(np.random.default_rng(3).uniform(-1.0, 1.0, 4000), 5),
        ],
        ids=["eighths", "thousands", "three-places", "five-places"],
    )
    def test_short_decimals(self, column):
        # exact short values take Ryū's general path, rounded ones mostly not
        assert csv_text(column, -column) == reference_csv(column, -column)

    def test_short_zero_subnormal_and_non_finite_values(self):
        column = np.array(
            [1.0, 0.5, 3.0, 0.25, 1e15, 1e22, 2.0**60, 0.0, -0.0, 5e-324,
             2.225073858507201e-308, np.inf, -np.inf, np.nan, 2.2250738585072014e-308]
        )
        assert csv_text(column, -column) == reference_csv(column, -column)

    def test_random_bit_patterns(self):
        column = np.random.default_rng(13).integers(0, 2**64, 10**5, dtype=np.uint64)
        column = column.view(np.float64)
        assert csv_text(column, column[::-1]) == reference_csv(column, column[::-1])

    @pytest.mark.parametrize(
        "layout",
        [
            lambda a: a[::3],
            lambda a: a[::-1],
            lambda a: a.astype(">f8"),
            lambda a: a.astype(np.float32),
            lambda a: a.astype(np.int64),
            lambda a: a.tolist(),
        ],
        ids=["strided", "reversed", "big-endian", "float32", "int64", "list"],
    )
    def test_input_layout_does_not_matter(self, layout):
        # magnitudes up to 1e18, so the int64 copy does not overflow
        rng = np.random.default_rng(7)
        rows = 3 * CSV_BLOCK + 7
        ts = rng.uniform(-1e3, 1e3, rows) * 10.0 ** rng.integers(-5, 16, rows)
        values = np.sin(ts) * 1e4
        ts, values = layout(ts), layout(values)
        doubles = np.asarray(ts, dtype=float), np.asarray(values, dtype=float)
        assert csv_text(ts, values) == reference_csv(*doubles)

    # row counts around a block, and around half a block (one short block)
    @pytest.mark.parametrize(
        "rows",
        [0, 1, HALF_BLOCK - 1, HALF_BLOCK, HALF_BLOCK + 1, 3 * HALF_BLOCK + 5,
         CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1, 3 * CSV_BLOCK + 5],
    )
    @pytest.mark.parametrize("header", [False, True])
    def test_block_edges_match_per_row_reference(self, rows, header):
        # integral, fractional and exponent-form values in every block
        rng = np.random.default_rng(rows)
        ts = np.linspace(-rows, rows, rows)
        values = rng.uniform(-1e3, 1e3, rows) * 10.0 ** rng.integers(-20, 20, rows)
        values[::3] = np.round(values[::3])
        assert csv_text(ts, values, header) == reference_csv(ts, values, header)

    def test_full_block_without_exponent_form(self):
        # every field positional, so no lane takes the exponent suffix
        rng = np.random.default_rng(17)
        ts = np.linspace(-1.0, 1.0, CSV_BLOCK)
        values = rng.uniform(-1e3, 1e3, CSV_BLOCK) * 10.0 ** rng.integers(-3, 12, CSV_BLOCK)
        text = csv_text(ts, values)
        assert "e" not in text
        assert text == reference_csv(ts, values)

    @pytest.mark.parametrize("value", [1e-300, -1e300, np.inf, -np.inf, np.nan, -0.0, 0.0])
    def test_lone_lane_at_block_ends(self, value):
        # one exponent-form, special or zero field among positional ones, in
        # the first or last row of either block and in either column
        base = np.linspace(0.5, 2.5, 2 * CSV_BLOCK)
        for row in (0, CSV_BLOCK - 1, CSV_BLOCK, 2 * CSV_BLOCK - 1):
            for column in (0, 1):
                cols = [base.copy(), base[::-1].copy()]
                cols[column][row] = value
                assert csv_text(*cols) == reference_csv(*cols), (row, column)

    def test_layout_switch_points_in_a_block(self):
        # repr turns to the exponent form at 1e16 and below 1e-4
        edges = np.array([9999999999999998.0, 1e16, 1e-4, 9.999e-5])
        edges = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)])
        edges = np.concatenate([edges, -edges])
        column = np.resize(np.concatenate([edges, np.linspace(1.0, 2.0, 7)]), CSV_BLOCK)
        text = csv_text(column, column[::-1])
        for field in ("9999999999999998", "1e+16", "0.0001", "9.999e-05"):
            assert f"\n{field}," in text and f",{field}\n" in text
        assert text == reference_csv(column, column[::-1])

    def test_memory_does_not_grow_with_rows(self):
        class Discard:
            def write(self, text):
                return len(text)

        rng = np.random.default_rng(3)
        ts = np.linspace(-5.0, 5.0, 10**5)
        values = rng.standard_normal(10**5)
        tracemalloc.start()
        try:
            rs.write_csv(Discard(), ts, values, header=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
