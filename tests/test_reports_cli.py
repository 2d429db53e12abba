import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from focklab import (
    Divisor,
    FockParams,
    SchemaError,
    Window,
    analysis_matrix,
    canonical_json,
    cli,
    frame_bounds,
    generate_covering_rings,
    generate_disjoint_rings,
    generate_lattice,
    load_divisor,
    min_norm_interpolate,
    save_divisor,
)
from focklab import core, generators
from focklab.reports import _csv_rows_json, _point_rows, complex_payload, divisor_payload, format_float
from focklab.reports import load_values
from focklab.reports import write_points_csv, write_sweep_csv


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "focklab", *args], capture_output=True, text=True)


def run_main(capsys, *args):
    """cli.main in-process: its exit code and the bytes it printed, in the
    shape run_cli returns."""
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return subprocess.CompletedProcess(list(args), code, captured.out, captured.err)


class TestCanonicalJson:
    def test_float_formatting(self):
        assert format_float(1.0) == "1"
        assert format_float(math_pi := 3.14159265358979) == "3.14159265359"
        assert float(format_float(math_pi)) == pytest.approx(math_pi, rel=1e-11)

    def test_formatting_idempotent(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            x = float(rng.standard_normal() * 10.0 ** float(rng.integers(-8, 8)))
            once = format_float(x)
            assert format_float(float(once)) == once

    def test_structure(self):
        doc = {"b": 1, "a": [1.5, None, True], "c": "x\"y"}
        assert canonical_json(doc) == '{"b":1,"a":[1.5,null,true],"c":"x\\"y"}'

    def test_nonfinite_becomes_null(self):
        assert canonical_json({"ratio": float("inf")}) == '{"ratio":null}'

    def test_unwritable_values_refused(self):
        with pytest.raises(TypeError, match=r"^report keys must be strings, got 1$"):
            canonical_json({"a": {1: 2}})
        with pytest.raises(TypeError, match=r"^cannot serialize object$"):
            canonical_json([object()])

    @given(st.text(), st.text())
    @example('q"uo\\te', "tab\t nul\x00 del\x7f")
    @example("\u00e9l\u00e8ve \U0001f600", "\u2028 \ud800")
    def test_strings_written_as_json_dumps(self, key, value):
        assert canonical_json({key: value}) == "{" + json.dumps(key) + ":" + json.dumps(value) + "}"
        assert canonical_json([value]) == "[" + json.dumps(value) + "]"


class TestDivisorFiles:
    def test_round_trip_idempotent(self, tmp_path):
        divisor = Divisor(FockParams(1.25), ((0.5 + 0.25j, 2), (-1.0, 1)))
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        save_divisor(divisor, path_a)
        save_divisor(load_divisor(path_a), path_b)
        assert path_a.read_text() == path_b.read_text()

    def test_coincident_points_merged_with_warning(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(
            '{"alpha": 1, "points": [{"re": 0, "im": 0, "mult": 1}, {"re": 0, "im": 0, "mult": 2}]}'
        )
        with pytest.warns(UserWarning, match="merged"):
            divisor = load_divisor(path)
        assert divisor.entries == ((0j, 3),)

    def test_cli_prints_coincident_point_warning_as_one_line(self, tmp_path, monkeypatch, capsys):
        # the same stderr from any working directory: no path or line number
        path = tmp_path / "dup.json"
        path.write_text(
            '{"alpha": 1, "points": [{"re": 1, "im": 0, "mult": 1},'
            ' {"re": 1, "im": -0.0, "mult": 2}, {"re": 0, "im": 2, "mult": 1}]}'
        )
        for cwd in (tmp_path, tmp_path.parent):
            monkeypatch.chdir(cwd)
            assert cli.main(["gram", str(path)]) == 0
            assert capsys.readouterr().err == (
                "warning: coincident divisor points at (1.0, -0.0) merged;"
                " multiplicities summed\n"
            )

    def test_coincident_multiplicities_summed_past_int64(self, tmp_path, capsys):
        path = tmp_path / "sum.json"
        path.write_text(
            '{"alpha": 1, "points": [{"re": 0, "im": 0, "mult": 4611686018427387904},'
            ' {"re": 0, "im": 0, "mult": 4611686018427387904}]}'
        )
        assert cli.main(["gram", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == "schema error: points[1].mult: must be below 2**63"

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ('{"alpha": -1, "points": []}', "alpha"),
            ('{"alpha": 1, "points": [{"re": 0, "im": 0, "mult": 0}]}', "mult"),
            ('{"alpha": 1, "points": [{"re": 0, "im": 0, "mult": 1.5}]}', "mult"),
            ('{"alpha": 1, "points": [{"re": 0, "im": 0, "mult": 1000000000000000000000000000000}]}',
             r"points\[0\]\.mult"),
            ('{"alpha": 1, "points": [{"re": 0, "im": 0, "mult": 9223372036854775808}]}',
             r"points\[0\]\.mult"),
            ('{"alpha": 1, "points": [{"re": 0, "im": 0}]}', r"points\[0\]"),
            ('{"alpha": 1}', "top level"),
            ('{"alpha": 1, "points": {}}', "^points: expected a list$"),
            ('{"alpha": 1, "points": [{"re": 0, "im": 0, "mult": 1}', "line"),
        ],
    )
    def test_schema_violations(self, tmp_path, text, fragment):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(SchemaError, match=fragment):
            load_divisor(path)


class TestCsvWriters:
    def test_sweep_csv(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, [(5, 0.5, 2.0, 16.0), (10, 0.0, 2.0, float("inf"))])
        lines = path.read_text().splitlines()
        assert lines[0] == "N,smin,smax,ratio"
        assert lines[1] == "5,0.5,2,16"
        assert lines[2] == "10,0,2,inf"

    def test_points_csv(self, tmp_path):
        path = tmp_path / "pts.csv"
        write_points_csv(path, [1 + 2j, 0.25 - 0.5j])
        assert path.read_text() == "re,im\n1,2\n0.25,-0.5\n"


# coordinates that point lists repeat; the bits of each must survive the table
_POOL = [
    0.0, -0.0, float("nan"), -float("nan"), float("inf"), -float("inf"),
    5e-324, -2.5e-310, 1e300, -1e-300, 0.1, -0.02, 1 / 3, 2.0,
]


_finite_part = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _pool_points(pairs, dtype):
    z = np.empty(len(pairs), dtype=dtype)
    with np.errstate(over="ignore"):  # 1e300 is inf in complex64
        z.real = [re for re, _ in pairs]
        z.imag = [im for _, im in pairs]
    return z


class TestPointLists:
    """Point lists are written in one pass through a table of distinct
    coordinates, with the bytes of the per-value rule."""

    @staticmethod
    def points():
        rng = np.random.default_rng(9)
        z = rng.standard_normal(400) * 10.0 ** rng.integers(-12, 14, 400)
        z = z + 1j * np.round(rng.uniform(-20, 20, 400) / 0.02) * 0.02
        return np.concatenate([z, [0j, complex(-0.0, 0.0), 5e-324 - 1e300j]])

    def test_json_matches_per_value_payload(self):
        z = self.points()
        expected = canonical_json({"u": [complex_payload(p) for p in z]})
        assert canonical_json({"u": z}) == expected
        assert canonical_json({"u": z[:0]}) == '{"u":[]}'

    def test_json_nonfinite_points_become_null(self):
        z = np.array([1 + 2j, complex(float("inf"), 0.5), complex(0.0, float("nan"))])
        assert canonical_json(z) == (
            '[{"re":1,"im":2},{"re":null,"im":0.5},{"re":0,"im":null}]'
        )

    def test_csv_matches_per_value_rule(self, tmp_path):
        z = np.concatenate([self.points(), [complex(float("inf"), float("nan"))]])
        path = tmp_path / "pts.csv"
        write_points_csv(path, z)
        rows = [f"{format_float(p.real)},{format_float(p.imag)}" for p in z]
        assert path.read_text() == "\n".join(["re,im", *rows]) + "\n"
        write_points_csv(path, z[:0])
        assert path.read_text() == "re,im\n"

    @given(
        st.lists(st.tuples(st.sampled_from(_POOL), st.sampled_from(_POOL)), max_size=40),
        st.sampled_from([np.complex64, np.complex128, np.clongdouble]),
    )
    @example([(0.0, -0.0), (-0.0, 0.0), (0.0, 0.0)], np.complex128)
    @example([(float("nan"), -float("nan")), (-float("nan"), 1.0)], np.complex128)
    @example([], np.complex64)
    def test_table_matches_per_value_rule(self, pairs, dtype):
        z = _pool_points(pairs, dtype)
        assert np.signbit(z.real).tolist() == [np.signbit(re) for re, _ in pairs]
        # JSON writes non-finite points as null on its element path, so the
        # table serves its finite points; the CSV takes every point
        finite = z[np.isfinite(z)]
        expected = canonical_json({"u": [complex_payload(p) for p in finite]})
        assert canonical_json({"u": finite}) == expected
        rows = [f"{format_float(p.real)},{format_float(p.imag)}\n" for p in z]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "pts.csv"
            write_points_csv(path, z)
            assert path.read_text() == "".join(["re,im\n", *rows])


    @pytest.mark.parametrize("dtype", [np.complex64, np.clongdouble])
    def test_nonfinite_narrow_and_wide_dtypes_write_as_complex128(self, dtype):
        inf, nan = float("inf"), float("nan")
        pairs = [(1.0, 1.0), (nan, 0.5), (0.25, -nan), (inf, -inf), (-inf, 2.0), (-0.0, inf)]
        z = _pool_points(pairs, dtype)
        assert canonical_json({"u": z}) == canonical_json({"u": z.astype(np.complex128)}) == (
            '{"u":[{"re":1,"im":1},{"re":null,"im":0.5},{"re":0.25,"im":null},'
            '{"re":null,"im":null},{"re":null,"im":2},{"re":-0,"im":null}]}'
        )

    def test_wide_parts_beyond_double_range_widen_quietly(self, tmp_path):
        big = np.longdouble(1e300) ** 2  # finite wherever long double is wider
        z = np.empty(3, dtype=np.clongdouble)
        z.real = [1.0, big, -0.0]
        z.imag = [1.0, -big, big]
        inf = float("inf")
        narrow = np.array([1 + 1j, complex(inf, -inf), complex(-0.0, inf)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            text = canonical_json({"u": z})
            write_points_csv(tmp_path / "wide.csv", z)
        assert text == canonical_json({"u": narrow}) == (
            '{"u":[{"re":1,"im":1},{"re":null,"im":null},{"re":-0,"im":null}]}'
        )
        write_points_csv(tmp_path / "narrow.csv", narrow)
        assert (tmp_path / "wide.csv").read_text() == (tmp_path / "narrow.csv").read_text() == (
            "re,im\n1,1\ninf,-inf\n-0,inf\n"
        )

    @given(st.lists(st.builds(complex, _finite_part, _finite_part), max_size=20))
    @example([complex(-0.0, 5e-324), complex(1e300, -1e300), complex(-2.5e-310, -0.0)])
    def test_finite_arrays_and_scalars_write_as_payloads(self, values):
        # the CLI hands the writer complex arrays and Python complex numbers
        expected = canonical_json([complex_payload(v) for v in values])
        assert canonical_json(np.array(values, dtype=complex)) == expected
        assert canonical_json(values) == expected


# coordinates whose 12-digit form reads back as the same float, so that a
# divisor file round trip is exact; the pool makes them repeat
_exact_part = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, 0.5, -3.0]),
    st.builds(lambda k, e: float(f"{k}e{e}"), st.integers(-10**12 + 1, 10**12 - 1), st.integers(-330, 290)),
)
_mult = st.one_of(st.sampled_from([1, 2, 2**63 - 1]), st.integers(1, 2**63 - 1))


def _dict_walk_payload(divisor):
    # the per-point writer the array path replaced, kept as the reference
    return {
        "alpha": divisor.params.alpha,
        "points": [{"re": lam.real, "im": lam.imag, "mult": m} for lam, m in divisor.entries],
    }


@pytest.mark.bitwise
class TestDivisorRows:
    """A divisor's points are written as one point list with the bytes of
    the per-point dict walk, and read back as the same divisor."""

    @given(
        st.sampled_from([1.0, 0.25, 3.5]),
        st.lists(st.tuples(_exact_part, _exact_part, _mult), max_size=30,
                 unique_by=lambda t: complex(t[0], t[1])),
    )
    @example(1.0, [(0.0, -0.0, 1), (5e-324, 1e300, 2**63 - 1), (-1e300, -0.0, 2**63 - 1)])
    def test_rows_match_dict_walk_and_round_trip(self, alpha, rows):
        divisor = Divisor(FockParams(alpha), [(complex(re, im), m) for re, im, m in rows])
        text = canonical_json(divisor_payload(divisor))
        assert text == canonical_json(_dict_walk_payload(divisor))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "divisor.json"
            save_divisor(divisor, path)
            assert path.read_text() == text + "\n"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                loaded = load_divisor(path)
        assert loaded == divisor

    @given(st.lists(st.tuples(_finite_part, _finite_part, _mult), max_size=30,
                    unique_by=lambda t: complex(t[0], t[1])))
    def test_rows_of_any_finite_points_match_dict_walk(self, rows):
        divisor = Divisor(FockParams(1.0), [(complex(re, im), m) for re, im, m in rows])
        assert canonical_json(divisor_payload(divisor)) == canonical_json(_dict_walk_payload(divisor))

    def test_empty_divisor(self):
        assert canonical_json(divisor_payload(Divisor(FockParams(2.0), ()))) == '{"alpha":2,"points":[]}'

    def test_only_finite_points_reach_the_rows(self):
        with pytest.raises(ValueError, match="^divisor points must be finite$"):
            Divisor(FockParams(1.0), ((complex(float("nan"), 0.5), 2), (1j, 1)))
        largest = 1.7976931348623157e308
        divisor = Divisor(FockParams(1.0), ((complex(largest, 0.5), 2), (complex(-0.0, -5e-324), 3), (1j, 1)))
        text = canonical_json(divisor_payload(divisor))
        assert text == canonical_json(_dict_walk_payload(divisor)) == (
            '{"alpha":1,"points":[{"re":1.79769313486e+308,"im":0.5,"mult":2},'
            '{"re":-0,"im":-4.94065645841e-324,"mult":3},{"re":0,"im":1,"mult":1}]}'
        )


# parts a point list may hold, NaNs with their sign and payload bits among them
_NAN_PAYLOADS = [np.array(bits, np.uint64).view(np.float64).item() for bits in (
    0x7FF8000000000001, 0xFFF8000000000002, 0x7FF0000000000003, 0xFFFFFFFFFFFFFFFF,
)]
_any_part = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.5e-310, 1e300, -1e300, 1e-300, -1e-300,
                     float("inf"), -float("inf"), float("nan"), -float("nan"), *_NAN_PAYLOADS]),
    st.floats(),
)


@st.composite
def _point_arrays(draw, finite=False):
    """complex128 point lists: grid-ordered rows (runs of one imaginary part),
    lists drawn point by point, or both one after the other; possibly empty."""
    part = _finite_part if finite else _any_part
    step = draw(st.sampled_from([0.02, 0.1, 1 / 3, 2.0]) | _finite_part)
    cols = draw(st.integers(0, 12))
    rows = [(p, q) for q in range(-draw(st.integers(0, 6)), draw(st.integers(0, 6)))
            for p in range(-cols, cols + 1) if draw(st.booleans())]
    grid = [complex(step * p, step * q) for p, q in rows]
    if not all(map(np.isfinite, grid)):  # a huge step leaves the double range
        grid = []
    drawn = draw(st.lists(st.builds(complex, part, part), max_size=30))
    return np.array(draw(st.sampled_from([grid, drawn, grid + drawn, drawn + grid])), dtype=complex)


def _part(x: float, nonfinite: str | None = None) -> str:
    return format(x, ".12g") if nonfinite is None or math.isfinite(x) else nonfinite


@pytest.mark.bitwise
class TestPointRowsReference:
    """_point_rows writes every template as a per-point format(x, ".12g")
    does, and the JSON read off CSV rows is the JSON canonical_json writes."""

    @given(_point_arrays(), st.data())
    @example(np.array([], dtype=complex), None)
    @example(np.array([complex(-0.0, 0.0), 0j, complex(0.0, -0.0), complex(_NAN_PAYLOADS[0], float("nan"))]), None)
    def test_templates_match_per_point_reference(self, z, data):
        assert _point_rows('{"re":%s,"im":%s}', ",", z, nonfinite="null") == ",".join(
            '{"re":%s,"im":%s}' % (_part(p.real, "null"), _part(p.imag, "null")) for p in z.tolist()
        )
        assert _point_rows("%s,%s\n", "", z) == "".join(f"{_part(p.real)},{_part(p.imag)}\n" for p in z.tolist())
        drawn = data.draw(st.lists(_mult, min_size=z.size, max_size=z.size)) if data else [2**63 - 1] * z.size
        mults = np.array(drawn, np.int64)
        mults[: z.size // 2] = mults[:1]  # a run of one multiplicity
        assert _point_rows('{"re":%s,"im":%s,"mult":%s}', ",", z, mults) == ",".join(
            '{"re":%s,"im":%s,"mult":%d}' % (_part(p.real), _part(p.imag), m) for p, m in zip(z.tolist(), mults.tolist())
        )

    @given(_point_arrays(finite=True))
    @example(np.array([], dtype=complex))
    @example(np.array([complex(-0.0, 5e-324), complex(1e300, -1e-300), complex(-2.5e-310, -0.0)]))
    def test_json_read_off_csv_rows_equals_canonical_json(self, z):
        with tempfile.TemporaryDirectory() as tmp:
            rows = write_points_csv(Path(tmp) / "pts.csv", z)
            assert (Path(tmp) / "pts.csv").read_text() == "re,im\n" + rows
        derived = _csv_rows_json(rows)
        assert derived == canonical_json(z)
        assert canonical_json({"u": derived}) == canonical_json({"u": z})


def _counting_point_rows(monkeypatch):
    """Count the calls of the point-list writer from here on."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return _point_rows(*args, **kwargs)

    monkeypatch.setattr("focklab.reports._point_rows", counted)
    monkeypatch.setattr("focklab.cli._point_rows", counted)  # a report's uncovered lists
    return calls


class TestDivisorPayloadOnce:
    """A divisor turns into JSON in one place: generate writes its file and
    its report from one formatting pass, and the writer knows no domain type."""

    @pytest.mark.parametrize("family, window", [
        ("lattice", "4"), ("lattice", "7.5"), ("covering-rings", "6"), ("disjoint-rings", "10"),
    ])
    def test_generate_formats_once_and_file_equals_report(
        self, family, window, tmp_path, monkeypatch, capsys
    ):
        out = tmp_path / "divisor.json"
        calls = _counting_point_rows(monkeypatch)
        assert cli.main(["generate", family, "--window", window, "--out", str(out)]) == 0
        assert len(calls) == 1
        _, sep, tail = capsys.readouterr().out.partition('"divisor":')
        assert sep and tail == out.read_text()[:-1] + "}\n"

    def test_reading_command_formats_its_divisor_once(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "divisor.json"
        save_divisor(generate_disjoint_rings(1.0, 1.0, 6.0)[0], path)
        calls = _counting_point_rows(monkeypatch)
        assert cli.main(["gram", str(path)]) == 0
        assert len(calls) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["inputs"]["divisor"] == json.loads(path.read_text())

    def test_save_returns_the_payload_it_wrote(self, tmp_path):
        divisor = Divisor(FockParams(0.5), ((0.5 - 0.25j, 3), (complex(-0.0, 1e300), 1)))
        payload = save_divisor(divisor, tmp_path / "d.json")
        assert (tmp_path / "d.json").read_text() == canonical_json(payload) + "\n"
        assert canonical_json(payload) == canonical_json(_dict_walk_payload(divisor))

    def test_prebuilt_payload_written_verbatim_in_dicts_and_lists(self):
        payload = divisor_payload(Divisor(FockParams(2.0), ((1j, 2), (-3.5, 1))))
        text = canonical_json(payload)
        assert text == '{"alpha":2,"points":[{"re":0,"im":1,"mult":2},{"re":-3.5,"im":0,"mult":1}]}'
        assert canonical_json({"d": payload, "e": [payload, (payload,)]}) == (
            '{"d":' + text + ',"e":[' + text + ",[" + text + "]]}"
        )
        # the same text as a plain string is a JSON string, escaped
        rows = str(payload["points"])
        assert canonical_json([rows]) == "[" + json.dumps(rows) + "]"

    def test_bare_divisor_refused(self):
        divisor = Divisor(FockParams(1.0), ((0j, 1),))
        for obj in (divisor, {"points": divisor}, [divisor]):
            with pytest.raises(TypeError, match=r"^cannot serialize Divisor$"):
                canonical_json(obj)


class TestOversizedGrid:
    """A probe grid over the cell budget is refused before any grid is built."""

    @pytest.fixture(autouse=True)
    def no_grid(self, monkeypatch):
        def refuse(window):
            raise AssertionError(f"grid built for {window}")

        monkeypatch.setattr(Window, "_square", refuse)

    def test_check_geometry(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        save_divisor(Divisor(FockParams(1.0), ((0.0, 1),)), path)
        code = cli.main(["check-geometry", str(path), "--window", "5", "--grid-step", "1e-6"])
        assert code == 3
        assert capsys.readouterr().err == (
            "precondition error: step 1e-06 on a disc of radius 5.0 needs more than 4194304 grid cells\n"
        )

    def test_generate_covering_rings(self, tmp_path, capsys):
        out = tmp_path / "cov.json"
        code = cli.main(
            ["generate", "covering-rings", "--c", "1e-9", "--window", "4", "--out", str(out)]
        )
        assert code == 3
        assert capsys.readouterr().err == (
            "precondition error: step 1e-09 on a disc of radius 4.0 needs more than 4194304 grid cells\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("extra", [["--window", "1e300", "--spacing", "1e-300"], ["--window", "1e6"]])
    def test_generate_lattice(self, extra, tmp_path, capsys):
        out = tmp_path / "lat.json"
        start = time.perf_counter()
        code = cli.main(["generate", "lattice", *extra, "--out", str(out)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        square = {
            "1e300": "step 1e-300 on a disc of radius 1e+300",
            "1e6": "step 1.0 on a disc of radius 1000000.0",
        }
        assert captured.err == f"precondition error: {square[extra[1]]} needs more than 4194304 grid cells\n"
        assert not out.exists()
        assert elapsed < 1.0

    def test_negative_lattice_radius_is_empty(self, tmp_path, capsys):
        out = tmp_path / "lat.json"
        assert cli.main(["generate", "lattice", "--window=-1", "--out", str(out)]) == 0
        assert capsys.readouterr().out == (
            '{"tool":{"name":"focklab","version":"0.1.0"},"command":"generate","inputs":'
            '{"family":"lattice","alpha":1,"c":1,"spacing":1,"mult":1,"window_radius":-1},'
            '"metadata":{"family":"lattice","alpha":1,"spacing":1,"mult":1,"radius":-1,'
            '"count":0},"divisor":{"alpha":1,"points":[]}}\n'
        )
        assert out.read_text() == '{"alpha":1,"points":[]}\n'


class TestGeneratorRefusals:
    """Disjoint rings over the point budget, and a generated divisor that
    fails its contract, exit 3 with one stderr line and write no file."""

    def test_disjoint_rings_over_point_budget(self, tmp_path, capsys, monkeypatch):
        def refuse(*_, **__):
            raise AssertionError("rings laid out for a refused input")

        monkeypatch.setattr(generators, "_rings", refuse)
        out = tmp_path / "dis.json"
        start = time.perf_counter()
        code = cli.main(["generate", "disjoint-rings", "--window", "1e5", "--out", str(out)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            f"precondition error: disjoint rings to radius 100000 hold more than "
            f"{generators.MAX_RING_POINTS} points\n"
        )
        assert not out.exists()
        assert elapsed < 0.5

    def test_point_budget_boundary(self, monkeypatch):
        # disjoint rings to radius 150 hold 751 points
        monkeypatch.setattr(generators, "MAX_RING_POINTS", 751)
        assert len(generators.generate_disjoint_rings(1.0, 1.0, 150.0)[0].entries) == 751
        monkeypatch.setattr(generators, "MAX_RING_POINTS", 750)
        with pytest.raises(ValueError, match="more than 750 points"):
            generators.generate_disjoint_rings(1.0, 1.0, 150.0)

    @pytest.mark.parametrize("family", ["covering-rings", "disjoint-rings"])
    def test_contract_failure(self, family, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(generators, "coverage_defect", lambda *_: np.array([1.5 + 0.5j]))
        monkeypatch.setattr(generators, "pairwise_disjoint", lambda *_: (False, (0, 1)))
        out = tmp_path / "div.json"
        code = cli.main(["generate", family, "--window", "4", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith(f"precondition error: {family} generator violated its")
        assert captured.err.count("\n") == 1
        assert not out.exists()


class TestGridStep:
    @pytest.mark.parametrize("step", ["0", "-0.0", "-0.1"])
    def test_step_outside_range_refused(self, step, tmp_path, capsys):
        path = tmp_path / "one.json"
        save_divisor(Divisor(FockParams(1.0), ((0.0, 1),)), path)
        code = cli.main(["check-geometry", str(path), "--window", "5", f"--grid-step={step}"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            "precondition error: grid_step must satisfy 0 < grid_step <= radius/10\n"
        )

    @pytest.mark.parametrize(
        "args,message",
        [
            (
                ["check-geometry", "one.json", "--window", "1e-322"],
                "window radius 1e-322: its default grid step radius/100 underflows to 0",
            ),
            (
                ["check-geometry", "one.json", "--window", "2e-322"],
                "window radius 2e-322: its default grid step radius/100 underflows to 0",
            ),
            (
                ["generate", "covering-rings", "--window", "1e-322", "--out", "div.json"],
                "radius 1e-322: the contract's grid step radius/40 underflows to 0",
            ),
        ],
        ids=["check-geometry-1e-322", "check-geometry-2e-322", "covering-rings-1e-322"],
    )
    def test_underflowed_derived_step_names_the_radius(self, args, message, tmp_path, capsys, monkeypatch):
        # the user passed no grid step, so the refusal names the radius they gave
        monkeypatch.chdir(tmp_path)
        save_divisor(Divisor(FockParams(1.0), ((0.0, 1),)), "one.json")
        code = cli.main(args)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == f"precondition error: {message}\n"
        assert not (tmp_path / "div.json").exists()


class TestNonFiniteInputs:
    """A non-finite C, window or spacing is refused with exit code 3."""

    def test_check_geometry_c_list(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        save_divisor(Divisor(FockParams(1.0), ((0.0, 1),)), path)
        code = cli.main(["check-geometry", str(path), "--window", "5", "--c-list", "nan"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "c_list must be finite" in captured.err

    @pytest.mark.parametrize(
        "args",
        [
            ["covering-rings", "--c", "inf", "--window", "4"],
            ["covering-rings", "--window", "inf"],
            ["disjoint-rings", "--c", "inf", "--window", "4"],
            ["disjoint-rings", "--window", "inf"],  # its ring loop would never end
            ["lattice", "--window", "inf"],
            ["lattice", "--spacing", "inf", "--window", "4"],
            # an option the family does not read, echoed in the report
            ["lattice", "--c", "nan", "--window", "4"],
            ["lattice", "--c", "inf", "--window", "4"],
            ["lattice", "--c=-inf", "--window", "4"],
            ["covering-rings", "--spacing", "nan", "--window", "4"],
            ["covering-rings", "--spacing", "inf", "--window", "4"],
            ["disjoint-rings", "--spacing", "nan", "--window", "4"],
            ["disjoint-rings", "--spacing=-inf", "--window", "4"],
        ],
    )
    def test_generate(self, args, tmp_path, capsys, monkeypatch):
        def refuse(*_, **__):
            raise AssertionError("rings laid out for a refused input")

        monkeypatch.setattr(generators, "_rings", refuse)
        out = tmp_path / "div.json"
        assert cli.main(["generate", *args, "--out", str(out)]) == 3
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("family", ["covering-rings", "disjoint-rings"])
    def test_generate_read_c_keeps_its_rule(self, family, tmp_path, capsys):
        out = tmp_path / "div.json"
        assert cli.main(["generate", family, "--c", "nan", "--window", "4", "--out", str(out)]) == 3
        assert capsys.readouterr().err == "precondition error: c must be positive\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        [["check-geometry"], ["uniqueness", "--degree", "4"]],
        ids=["check-geometry", "uniqueness"],
    )
    def test_window(self, command, tmp_path, capsys):
        path = tmp_path / "one.json"
        save_divisor(Divisor(FockParams(1.0), ((0.0, 1),)), path)
        code = cli.main([command[0], str(path), *command[1:], "--window", "inf"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "precondition error: window radius must be finite\n"

    @pytest.mark.parametrize("rcond", ["nan", "inf"])
    def test_interpolate_rcond(self, rcond, tmp_path, capsys):
        path, values = tmp_path / "one.json", tmp_path / "values.json"
        save_divisor(Divisor(FockParams(1.0), ((0.0, 1),)), path)
        values.write_text('{"values": [{"re": 1, "im": 0}]}')
        code = cli.main(["interpolate", str(path), str(values), "--rcond", rcond])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        # a NaN is not positive, an infinity is not finite
        rule = {"nan": "positive", "inf": "finite"}[rcond]
        assert captured.err == f"precondition error: rcond must be {rule}\n"


class TestOversizedMatrix:
    """A matrix over the entry budget is refused with exit 3 and one stderr
    line before its labels or any matrix are built: n x n entries for gram
    and interpolate, n x (degree + 1) for frame-bounds and, for the square
    null-space basis of uniqueness, (degree + 1) x (degree + 1)."""

    # two points of multiplicity 3: a 6 x 6 Gram, a 6 x 6 analysis matrix at
    # degree 5 and a 9 x 9 null-space basis at degree 8
    ARGV = {
        "gram": ["gram", "{d}"],
        "interpolate": ["interpolate", "{d}", "{values}"],
        "frame-bounds": ["frame-bounds", "{d}", "--degree", "5"],
        "uniqueness": ["uniqueness", "{d}", "--degree", "8", "--window", "3"],
    }
    ENTRIES = {"gram": 36, "interpolate": 36, "frame-bounds": 36, "uniqueness": 81}

    def _argv(self, command, tmp_path):
        path, values = tmp_path / "two.json", tmp_path / "values.json"
        save_divisor(Divisor(FockParams(1.0), ((0.0, 3), (2.0 + 1.0j, 3))), path)
        values.write_text(json.dumps({"values": [{"re": 1.0, "im": 0.0}] * 6}))
        return [a.format(d=path, values=values) for a in self.ARGV[command]]

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_at_budget_runs(self, command, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "MAX_MATRIX_ENTRIES", self.ENTRIES[command])
        assert cli.main(self._argv(command, tmp_path)) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_one_entry_over_budget_refused_before_labels(
        self, command, tmp_path, monkeypatch, capsys
    ):
        def refuse(divisor):
            raise AssertionError("labels built for a refused matrix")

        argv = self._argv(command, tmp_path)
        monkeypatch.setattr(cli, "MAX_MATRIX_ENTRIES", self.ENTRIES[command] - 1)
        monkeypatch.setattr(Divisor, "atom_labels", refuse)
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("precondition error: ") and "entries" in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["gram"],
        ["frame-bounds", "--degree", "1000000000"],
        ["uniqueness", "--degree", "2048", "--window", "3"],
    ])
    def test_default_budget(self, argv, tmp_path, capsys):
        # 2048 x 2048 entries is the largest matrix allowed: a 2049-atom Gram
        # and a degree-2048 null-space basis are one row and column over it
        assert cli.MAX_MATRIX_ENTRIES == 2048**2
        path = tmp_path / "big.json"
        save_divisor(Divisor(FockParams(1.0), ((0.0, 2049 if argv == ["gram"] else 1),)), path)
        start = time.perf_counter()
        assert cli.main([argv[0], str(path), *argv[1:]]) == 3
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("precondition error: ") and "entries" in captured.err


class TestOutOfRangeInputs:
    """Multiplicities beyond int64 and arithmetic beyond the double range exit
    with a one-line error instead of a traceback or a silent success."""

    def test_generate_lattice_huge_multiplicity(self, tmp_path, capsys):
        out = tmp_path / "lat.json"
        argv = ["generate", "lattice", "--window", "4", "--mult", "100000000000000000000000"]
        assert cli.main([*argv, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("precondition error: multiplicities must be integers")
        assert not out.exists()

    @pytest.mark.filterwarnings("default::RuntimeWarning")  # numpy overflows on the way
    @pytest.mark.parametrize(
        "argv",
        [["gram"], ["frame-bounds", "--degree", "5"], ["uniqueness", "--degree", "40", "--window", "3"]],
    )
    def test_overflow_is_a_precondition_error(self, argv, tmp_path, capsys):
        path = tmp_path / "far.json"
        save_divisor(Divisor(FockParams(1.0), ((1e308 + 1e308j, 1), (0.0, 2))), path)
        code = cli.main([argv[0], str(path), *argv[1:]])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith("precondition error: floating-point overflow")

    @pytest.mark.parametrize("field", ["alpha", "re", "im"])
    def test_divisor_integer_beyond_double_range_is_schema_error(self, field, tmp_path, capsys):
        numbers = {"alpha": "1", "re": "0", "im": "0", field: "1" + "0" * 400}
        path = tmp_path / "huge.json"
        path.write_text(
            f'{{"alpha": {numbers["alpha"]}, "points":'
            f' [{{"re": {numbers["re"]}, "im": {numbers["im"]}, "mult": 1}}]}}'
        )
        assert cli.main(["gram", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        name = field if field == "alpha" else f"points[0].{field}"
        assert captured.err == f"schema error: {name}: must be finite\n"


class TestCliSurface:
    """Each subcommand through cli.main in-process.  The console's own bytes
    are pinned by the CLI byte corpus (tests/corpus/manifest.json) and
    TestUsageErrors' console test."""

    @pytest.fixture()
    def lattice_file(self, tmp_path, capsys):
        result = run_main(
            capsys, "generate", "lattice", "--spacing", "1", "--mult", "1", "--window", "3",
            "--out", str(tmp_path / "lat.json"),
        )
        assert result.returncode == 0
        return tmp_path / "lat.json"

    def test_generate_report_echoes_family(self, lattice_file):
        divisor = load_divisor(lattice_file)
        assert len(divisor.entries) == 29

    def test_check_geometry_deterministic(self, lattice_file, capsys):
        args = (
            "check-geometry", str(lattice_file), "--window", "3",
            "--grid-step", "0.1", "--c-list", "0.25,0.5,1",
        )
        first = run_main(capsys, *args)
        second = run_main(capsys, *args)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        doc = json.loads(first.stdout)
        assert doc["verdicts"]["padded_cover"]["holds"] is True
        assert doc["verdicts"]["finite_overlap_bound"] == 4

    def test_generate_deterministic(self, tmp_path, capsys):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        r1 = run_main(capsys, "generate", "covering-rings", "--c", "0.5", "--window", "4", "--out", str(out_a))
        r2 = run_main(capsys, "generate", "covering-rings", "--c", "0.5", "--window", "4", "--out", str(out_b))
        assert r1.returncode == r2.returncode == 0
        assert r1.stdout == r2.stdout
        assert out_a.read_text() == out_b.read_text()

    def test_parser_built_once_at_import(self, tmp_path, monkeypatch, capsys):
        # every subcommand runs on the parser built at import, and a second
        # run in the same process prints the same bytes
        lattice_file = tmp_path / "lat.json"
        save_divisor(generate_lattice(1.0, 1.0, 1, 3.0)[0], lattice_file)
        monkeypatch.setattr(argparse, "ArgumentParser", mock.Mock(side_effect=AssertionError("rebuilt")))
        values = tmp_path / "values.json"
        values.write_text(json.dumps({"values": [{"re": i % 3, "im": i % 2} for i in range(29)]}))
        argvs = [
            ["generate", "covering-rings", "--window", "3", "--out", str(tmp_path / "rings.json")],
            ["check-geometry", str(lattice_file), "--window", "3", "--defects-csv", str(tmp_path / "d")],
            ["frame-bounds", str(lattice_file), "--degree-sweep", "20:60:20", "--csv", str(tmp_path / "s.csv")],
            ["gram", str(lattice_file)],
            ["interpolate", str(lattice_file), str(values), "--dump-atoms"],
            ["uniqueness", str(lattice_file), "--degree", "40", "--window", "3"],
        ]
        for argv in argvs:
            assert cli.main(argv) == 0
            first = capsys.readouterr()
            assert cli.main(argv) == 0
            assert capsys.readouterr() == first
            assert first.err == "" and json.loads(first.out)["command"] == argv[0]

    def test_frame_bounds_sweep_csv(self, lattice_file, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        result = run_main(
            capsys, "frame-bounds", str(lattice_file), "--degree-sweep", "2:8:2", "--csv", str(csv_path)
        )
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert [s["degree"] for s in doc["summaries"]] == [2, 4, 6, 8]
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "N,smin,smax,ratio"
        assert len(lines) == 5

    def test_frame_bounds_single_degree(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text('{"alpha": 1, "points": [{"re": 0, "im": 0, "mult": 6}]}')
        result = run_main(capsys, "frame-bounds", str(path), "--degree", "5")
        doc = json.loads(result.stdout)
        assert doc["summaries"][0]["smin"] == pytest.approx(1.0, abs=1e-10)
        assert doc["summaries"][0]["ratio"] == pytest.approx(1.0, abs=1e-9)

    def test_gram_and_interpolate(self, tmp_path, capsys):
        divisor_path = tmp_path / "two.json"
        divisor_path.write_text(
            '{"alpha": 1, "points": [{"re": 0, "im": 0, "mult": 1}, {"re": 4, "im": 0, "mult": 1}]}'
        )
        gram_doc = json.loads(run_main(capsys, "gram", str(divisor_path)).stdout)
        assert gram_doc["spectrum"]["size"] == 2
        assert gram_doc["spectrum"]["condition"] == pytest.approx(1.0, abs=1e-3)

        values_path = tmp_path / "vals.json"
        values_path.write_text('{"values": [{"re": 1, "im": 0}, {"re": 0, "im": 0}]}')
        result = run_main(
            capsys, "interpolate", str(divisor_path), str(values_path), "--dump-atoms"
        )
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["solution"]["residual"] <= 1e-10
        assert len(doc["solution"]["atoms"]) == 2

    def test_uniqueness_subcommand(self, tmp_path, capsys):
        path = tmp_path / "four.json"
        path.write_text('{"alpha": 1, "points": [{"re": 0, "im": 0, "mult": 4}]}')
        result = run_main(capsys, "uniqueness", str(path), "--degree", "8", "--window", "2")
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["hole_mass"] == pytest.approx(0.371163, abs=1e-5)

    def test_schema_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"alpha": 0, "points": []}')
        result = run_main(capsys, "gram", str(path))
        assert result.returncode == 2
        assert "schema error" in result.stderr

    def test_precondition_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "four.json"
        path.write_text('{"alpha": 1, "points": [{"re": 0, "im": 0, "mult": 4}]}')
        result = run_main(capsys, "uniqueness", str(path), "--degree", "3", "--window", "2")
        assert result.returncode == 3
        assert "precondition error" in result.stderr

    def test_values_length_mismatch_is_schema_error(self, tmp_path, capsys):
        divisor_path = tmp_path / "one.json"
        divisor_path.write_text('{"alpha": 1, "points": [{"re": 0, "im": 0, "mult": 2}]}')
        values_path = tmp_path / "vals.json"
        values_path.write_text('{"values": [{"re": 1, "im": 0}]}')
        result = run_main(capsys, "interpolate", str(divisor_path), str(values_path))
        assert result.returncode == 2

    def test_defects_csv_emitted(self, lattice_file, tmp_path, capsys):
        prefix = tmp_path / "defects"
        result = run_main(
            capsys, "check-geometry", str(lattice_file), "--window", "3", "--grid-step", "0.1",
            "--c-list", "0.5", "--defects-csv", str(prefix),
        )
        assert result.returncode == 0
        csv_file = tmp_path / "defects_c0.5.csv"
        assert csv_file.exists()
        assert csv_file.read_text().splitlines()[0] == "re,im"


class TestDefectCsvs:
    """--defects-csv writes one file per distinct C, with the report's
    uncovered rows, and refuses distinct Cs that would share a file."""

    @pytest.fixture()
    def lattice_file(self, tmp_path):
        path = tmp_path / "lat.json"
        save_divisor(generate_lattice(1.0, 1.0, 1, 3.0)[0], path)
        return path

    def test_csvs_equal_report_rows(self, lattice_file, tmp_path, monkeypatch, capsys):
        written = []

        def recording(path, points):
            written.append(path)
            return write_points_csv(path, points)

        monkeypatch.setattr(cli, "write_points_csv", recording)
        prefix = tmp_path / "defects"
        code = cli.main([
            "check-geometry", str(lattice_file), "--window", "3", "--grid-step", "0.1",
            "--c-list", "0.25,0.5,0.5,1", "--defects-csv", str(prefix),
        ])
        assert code == 0
        # the numbers as printed, so the CSV must carry the report's very digits
        shrunk = json.loads(capsys.readouterr().out, parse_float=str, parse_int=str)["verdicts"][
            "shrunk_cover"
        ]
        assert written == [f"{prefix}_c{c}.csv" for c in ("0.25", "0.5", "1")]
        counts = [int(result["uncovered_count"]) for result in shrunk]
        assert counts == sorted(counts) and counts[-1] > 0
        assert shrunk[1] == shrunk[2]
        for result in shrunk:
            rows = [f"{p['re']},{p['im']}" for p in result["uncovered"]]
            assert len(rows) == int(result["uncovered_count"])
            csv_file = Path(f"{prefix}_c{result['c']}.csv")
            assert csv_file.read_text().splitlines() == ["re,im", *rows]

    def test_colliding_names_refused_before_sweep(
        self, lattice_file, tmp_path, monkeypatch, capsys
    ):
        def refuse(*_):
            raise AssertionError("sweep run for a refused C list")

        monkeypatch.setattr(cli, "theorem_verdicts", refuse)
        prefix = tmp_path / "defects"
        code = cli.main([
            "check-geometry", str(lattice_file), "--window", "3", "--c-list",
            "0.1,0.1000000000001", "--defects-csv", str(prefix),
        ])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "C = 0.1 and C = 0.1000000000001" in captured.err
        assert not list(tmp_path.glob("defects*"))

    def test_uncovered_lists_over_budget_refused(self, tmp_path, capsys):
        # no disc covers anything: each C lists all 3.14 M disc points of the
        # 2001 x 2001 grid, so the second list passes the budget
        path = tmp_path / "empty.json"
        save_divisor(Divisor(FockParams(1.0), ()), path)
        code = cli.main([
            "check-geometry", str(path), "--window", "10", "--grid-step", "0.01",
            "--c-list", "0.5,1", "--defects-csv", str(tmp_path / "defects"),
        ])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "precondition error: the uncovered lists would hold more than 4194304 grid points\n"
        assert list(tmp_path.iterdir()) == [path]


class TestDefectRowsOnce:
    """Each uncovered list is formatted once, as its CSV rows, and the report
    reads its JSON off them: stdout is the same bytes with --defects-csv,
    which writes the rows to files, and without it, which formats each
    distinct list alone (the lists of a repeated C are one array)."""

    @pytest.mark.parametrize("family, argv, lists, files", [
        # the benchmark's defect-emitting job, with a repeated C
        ("lattice", ["--window", "4", "--grid-step", "0.02", "--c-list", "0.25,0.5,0.5,1"], 4, 3),
        # an empty list beside two long ones
        ("covering-rings", ["--window", "8", "--grid-step", "0.05", "--c-list", "1,2,3",
                            "--hole-radius", "2"], 3, 3),
    ])
    def test_stdout_same_with_and_without_csvs(
        self, family, argv, lists, files, tmp_path, monkeypatch, capsys
    ):
        path = tmp_path / "divisor.json"
        assert cli.main(["generate", family, "--window", argv[1], "--out", str(path)]) == 0
        capsys.readouterr()
        calls = _counting_point_rows(monkeypatch)
        assert cli.main(["check-geometry", str(path), *argv]) == 0
        plain = capsys.readouterr()
        # each distinct list (a repeated C shares one), then the divisor echo
        assert len(calls) == files + 1
        del calls[:]
        prefix = tmp_path / "defects"
        assert cli.main(["check-geometry", str(path), *argv, "--defects-csv", str(prefix)]) == 0
        assert capsys.readouterr() == plain
        assert len(calls) == files + 1  # each file's rows, then the divisor echo
        assert len(list(tmp_path.glob("defects_c*.csv"))) == files
        shrunk = json.loads(plain.out)["verdicts"]["shrunk_cover"]
        assert len(shrunk) == lists and shrunk[-1]["uncovered_count"] > 1000


class TestFileErrors:
    """Unreadable inputs are schema errors (exit 2) and unwritable outputs exit
    3, each with one stderr line and no traceback; an output whose directory
    is missing is refused before any computation."""

    @pytest.fixture()
    def lattice_file(self, tmp_path):
        path = tmp_path / "lat.json"
        save_divisor(generate_lattice(1.0, 1.0, 1, 3.0)[0], path)
        return path

    @pytest.fixture()
    def no_compute(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("computation run for a refused output")

        for name in ("generate_lattice", "theorem_verdicts", "analysis_matrix"):
            monkeypatch.setattr(cli, name, refuse)

    @pytest.mark.parametrize("name", ["missing.json", "adir", "latin1.json"])
    def test_unreadable_input_is_schema_error(self, name, tmp_path, capsys):
        (tmp_path / "adir").mkdir()
        (tmp_path / "latin1.json").write_bytes(b'{"alpha": 1, "points": [], "\xe9": 0}')
        path = tmp_path / name
        code = cli.main(["gram", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"schema error: {path}: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["generate", "lattice", "--window", "3", "--out", "{missing}/lat.json"],
        ["check-geometry", "{lattice}", "--window", "3", "--defects-csv", "{missing}/d"],
        ["frame-bounds", "{lattice}", "--degree", "4", "--csv", "{missing}/sweep.csv"],
        ["frame-bounds", "{lattice}", "--degree", "4", "--csv", "{lattice}/sweep.csv"],
    ])
    def test_missing_output_directory_refused_before_compute(
        self, argv, lattice_file, tmp_path, no_compute, capsys
    ):
        missing = tmp_path / "nodir"
        before = sorted(tmp_path.rglob("*"))
        code = cli.main([a.format(missing=missing, lattice=lattice_file) for a in argv])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("precondition error: ")
        assert "is not an existing directory" in captured.err
        assert captured.err.count("\n") == 1
        assert sorted(tmp_path.rglob("*")) == before

    def test_unwritable_output_is_one_line(self, lattice_file, tmp_path, capsys):
        target = tmp_path / "sweep.csv"
        target.mkdir()
        code = cli.main(["frame-bounds", str(lattice_file), "--degree", "4", "--csv", str(target)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("precondition error: ") and str(target) in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv,target", [
        (["generate", "lattice", "--window", "3", "--out", "{out}"], "out"),
        (["frame-bounds", "{lattice}", "--degree", "4", "--csv", "{out}"], "out"),
        (["check-geometry", "{lattice}", "--window", "3", "--defects-csv", "{out}"], "out_c0.5.csv"),
    ])
    def test_directory_output_refused_before_compute(
        self, argv, target, lattice_file, tmp_path, no_compute, capsys
    ):
        (tmp_path / target).mkdir()
        before = sorted(tmp_path.rglob("*"))
        code = cli.main([a.format(out=tmp_path / "out", lattice=lattice_file) for a in argv])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == f"precondition error: {tmp_path / target}: is a directory, not a file\n"
        assert sorted(tmp_path.rglob("*")) == before

    def test_write_failure_is_one_line(self, lattice_file, tmp_path, monkeypatch, capsys):
        # an output that passes the checks but cannot be written
        target = tmp_path / "sweep.csv"

        def denied(path, rows):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(cli, "write_sweep_csv", denied)
        code = cli.main(["frame-bounds", str(lattice_file), "--degree", "4", "--csv", str(target)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == f"precondition error: [Errno 13] Permission denied: '{target}'\n"


class TestReportProvenance:
    def test_digests_pinned(self):
        # pinned literals: report bytes must not drift
        from focklab import gram_matrix

        p1, p125 = FockParams(1.0), FockParams(1.25)
        assert gram_matrix([(0.0, 0), (1.0 + 1j, 2)], p1).digest() == "047580af90b6"
        gram = gram_matrix([(0.5 - 0.25j, 0), (0.5 - 0.25j, 1), (-3.0, 0)], p125)
        assert gram.digest() == "022631596b72"
        assert Divisor(p125, ((0.5 + 0.25j, 2), (-1.0, 1))).digest() == "1c16207ce028"
        assert Divisor(p1, ((0.0, 1),)).digest() == "a037f5595df3"

    def test_gram_command_decomposes_once(self, tmp_path, monkeypatch, capsys):
        from focklab import cli, gram_matrix, riesz_bounds

        path = tmp_path / "three.json"
        divisor = Divisor(FockParams(1.0), ((0.0, 2), (1.5 - 0.5j, 1)))
        save_divisor(divisor, path)
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a):
            calls.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        assert cli.main(["gram", str(path)]) == 0
        assert calls == [(3, 3)]
        spectrum = json.loads(capsys.readouterr().out)["spectrum"]
        monkeypatch.undo()
        gram = gram_matrix(divisor.atom_labels(), divisor.params)
        expected = riesz_bounds(gram)
        assert expected["size"] == 3
        assert np.array_equal(expected["eigenvalues"], np.linalg.eigvalsh(gram.entries))
        assert spectrum == json.loads(canonical_json(expected))


class TestFarPoints:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_check_geometry_is_quiet(self, tmp_path, capsys):
        # the index box of a point near the double range is empty, and its
        # distance to another meets no disc: both overflow to inf, as they should
        far, near = tmp_path / "far.json", tmp_path / "near.json"
        save_divisor(Divisor(FockParams(1.0), ((1.7e308 + 0j, 1), (-1.7e308 + 0j, 1), (0j, 1))), far)
        save_divisor(Divisor(FockParams(1.0), ((0j, 1),)), near)
        reports = []
        for path in (far, near):
            assert cli.main(["check-geometry", str(path), "--window", "3"]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            reports.append(captured.out)
        # the far divisor's report bytes are pinned by the corpus entry
        # check-geometry-far-points-on-the-axis
        assert json.loads(reports[0])["verdicts"] == json.loads(reports[1])["verdicts"]


class TestFrameBoundsSweep:
    def test_negative_degree_refused_before_csv(self, tmp_path, capsys):
        path, csv_path = tmp_path / "lat.json", tmp_path / "sweep.csv"
        save_divisor(generate_lattice(1.0, 1.0, 1, 3.0)[0], path)
        argv = ["frame-bounds", str(path), "--degree-sweep=-10:20:10", "--csv", str(csv_path)]
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "precondition error: degree must be >= 0\n"
        assert not csv_path.exists()

    # -1:50:51 lists the degree -1 alone; -1:50:1 ends at degree 50; the last is
    # also over the entry budget, and gets the same message
    @pytest.mark.parametrize("sweep", ["-1:50:51", "-1:50:1", "-1:1000000000000000:1"])
    def test_negative_start_refused_before_any_matrix(self, sweep, tmp_path, monkeypatch, capsys):
        def refuse(divisor, degree):
            raise AssertionError(f"degree {degree} matrix built for a refused sweep")

        path = tmp_path / "one.json"
        save_divisor(Divisor(FockParams(1.0), ((0.0, 1),)), path)
        monkeypatch.setattr(cli, "analysis_matrix", refuse)
        assert cli.main(["frame-bounds", str(path), f"--degree-sweep={sweep}"]) == 3
        assert capsys.readouterr() == ("", "precondition error: degree must be >= 0\n")

    # the last two fit one matrix of the largest degree, but not all the sweep's matrices
    @pytest.mark.parametrize(
        "sweep", ["0:1000000000000000:1", "5:4000000000:3", "0:4194302:1", "0:2895:1"]
    )
    def test_oversized_sweep_refused_before_listing(self, sweep, tmp_path, capsys):
        # rows x (d + 1), summed over the sweep's degrees, is checked on the range,
        # before any degree is listed
        path, csv_path = tmp_path / "one.json", tmp_path / "sweep.csv"
        save_divisor(Divisor(FockParams(1.0), ((0.0, 1),)), path)
        start = time.perf_counter()
        code = cli.main(["frame-bounds", str(path), "--degree-sweep", sweep, "--csv", str(csv_path)])
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err.startswith("precondition error: a 1 x ") and err.endswith(" entries\n")
        assert err.count("\n") == 1
        assert not csv_path.exists()

    @pytest.mark.parametrize(
        "generate",
        [lambda: generate_covering_rings(1.0, 1.0, 8.0), lambda: generate_lattice(1.0, 1.0, 3, 3.0)],
        ids=["covering-rings", "lattice"],
    )
    def test_summaries_equal_fresh_frame_bounds(self, generate, tmp_path, capsys):
        path = tmp_path / "divisor.json"
        save_divisor(generate()[0], path)
        assert cli.main(["frame-bounds", str(path), "--degree-sweep", "10:120:10"]) == 0
        summaries = json.loads(capsys.readouterr().out)["summaries"]
        divisor = load_divisor(path)
        expected = [frame_bounds(analysis_matrix(divisor, degree)) for degree in range(10, 121, 10)]
        assert summaries == json.loads(canonical_json(expected))


# Runs in a fresh interpreter: the sweep's raw summaries through the CLI's
# frame-bounds handler against the handler's own --degree summaries and fresh
# frame_bounds, field by field through repr (exact for floats), with the
# column count of each QR made.
_SWEEP_BITS = """
import json, sys
import numpy as np
from focklab import analysis_matrix, cli, frame_bounds, load_divisor
path, sweep = sys.argv[1:]
qr, qr_cols = np.linalg.qr, []
def counted_qr(a, mode):
    qr_cols.append(a.shape[1])
    return qr(a, mode=mode)
np.linalg.qr = counted_qr
divisor = load_divisor(path)
def reprs(summary):
    return {k: repr(v) for k, v in summary.items()}
def summaries(*option):
    args = cli._PARSER.parse_args(["frame-bounds", path, *option])
    return [reprs(s) for s in args.func(args, divisor)["summaries"]]
def fresh(degree):
    return reprs(frame_bounds(analysis_matrix(divisor, degree)))
swept = summaries("--degree-sweep", sweep)
differ = [
    s["degree"] for s in swept
    if [s] != summaries("--degree", s["degree"]) or s != fresh(int(s["degree"]))
]
print(json.dumps({"checked": len(swept), "differ": differ, "qr_cols": qr_cols}))
"""


class TestSweepSharedFactor:
    """A sweep's tall prefixes of at most 128 columns take their singular
    values from one shared R factor, which under single-threaded BLAS keeps
    every bit of a fresh svd."""

    # the QR's width: the widest prefix p = d + 1 <= 128 with rows >= int(17p / 9)
    @pytest.mark.parametrize(
        "generate, sweep, qr_cols",
        [
            (lambda: generate_covering_rings(1.0, 1.0, 10.0), "10:120:10", [121]),
            (lambda: generate_lattice(1.0, 1.0, 3, 3.0), "10:200:10", [41]),
            (lambda: generate_covering_rings(1.0, 1.0, 8.0), "10:300:10", [121]),
            (lambda: generate_disjoint_rings(1.0, 0.05, 20.0), "1:127:1", [104]),
        ],
        ids=["covering-R10-all-shared", "lattice-87-rows", "covering-R8-past-128", "disjoint-rounding-smin"],
    )
    def test_single_thread_summaries_equal_fresh_bitwise(self, generate, sweep, qr_cols, tmp_path):
        path = tmp_path / "divisor.json"
        save_divisor(generate()[0], path)
        env = {**os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1")}
        result = subprocess.run(
            [sys.executable, "-c", _SWEEP_BITS, str(path), sweep], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        start, stop, step = (int(p) for p in sweep.split(":"))
        checked = len(range(start, stop + 1, step))
        assert json.loads(result.stdout) == {"checked": checked, "differ": [], "qr_cols": qr_cols}

    @pytest.mark.parametrize("option", ["--degree=5", "--degree-sweep=1:20:1"])
    def test_empty_divisor_has_no_rows(self, option, tmp_path, capsys):
        path = tmp_path / "empty.json"
        save_divisor(Divisor(FockParams(1.0), ()), path)
        assert cli.main(["frame-bounds", str(path), option]) == 3
        assert capsys.readouterr() == ("", "precondition error: analysis matrix has no measurement rows\n")

    # 1:20:1 has no tall prefix; 0:20:1 has one, degree 0, and one alone is not shared
    @pytest.mark.parametrize("sweep", ["1:20:1", "0:20:1"])
    def test_one_row_sweep_makes_no_qr(self, sweep, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("QR made for a sweep with fewer than two tall prefixes")

        path = tmp_path / "one.json"
        save_divisor(Divisor(FockParams(1.0), ((0.5 + 0.25j, 1),)), path)
        divisor = load_divisor(path)
        start, stop, step = (int(p) for p in sweep.split(":"))
        expected = [frame_bounds(analysis_matrix(divisor, d)) for d in range(start, stop + 1, step)]
        monkeypatch.setattr(np.linalg, "qr", refuse)
        assert cli.main(["frame-bounds", str(path), "--degree-sweep", sweep]) == 0
        summaries = json.loads(capsys.readouterr().out)["summaries"]
        assert summaries == json.loads(canonical_json(expected))

    def test_csv_rows_equal_summaries_across_the_boundary(self, tmp_path, capsys):
        # 87 rows: degree 45 (p = 46) is the last tall prefix, degree 46 the first wide one
        path, csv_path = tmp_path / "lattice.json", tmp_path / "sweep.csv"
        save_divisor(generate_lattice(1.0, 1.0, 3, 3.0)[0], path)
        argv = ["frame-bounds", str(path), "--degree-sweep", "40:52:1", "--csv", str(csv_path)]
        assert cli.main(argv) == 0
        summaries = json.loads(capsys.readouterr().out)["summaries"]
        assert [s["degree"] for s in summaries] == list(range(40, 53))
        rows = [
            ",".join([str(s["degree"]), *(format_float(s[k]) for k in ("smin", "smax", "ratio"))])
            for s in summaries
        ]
        assert csv_path.read_text().splitlines() == ["N,smin,smax,ratio", *rows]


class TestOptionLists:
    """An option's list of numbers that does not parse is a schema error."""

    @pytest.mark.parametrize(
        "argv,err",
        [
            (
                ["check-geometry", "{path}", "--window", "3", "--c-list", "abc"],
                "schema error: --c-list: could not convert string to float: 'abc'\n",
            ),
            (
                ["frame-bounds", "{path}", "--degree-sweep", "a:b:c"],
                "schema error: --degree-sweep: invalid literal for int() with base 10: 'a'\n",
            ),
            (
                ["check-geometry", "{path}", "--window", "3", "--c-list", ","],
                "schema error: --c-list: expected comma-separated positive values\n",
            ),
        ],
        ids=["c-list", "degree-sweep", "c-list-empty"],
    )
    def test_unparsable_list(self, argv, err, tmp_path, capsys):
        path = tmp_path / "one.json"
        save_divisor(Divisor(FockParams(1.0), ((0.0, 1),)), path)
        assert cli.main([arg.format(path=path) for arg in argv]) == 2
        assert capsys.readouterr() == ("", err)


def test_interpolate_dump_atoms_lists_the_interpolant(tmp_path, capsys):
    # one atom per divisor label in divisor order, written like any report value
    divisor = Divisor(FockParams(1.0), ((complex(0, -2), 3), (0.0, 2), (3 + 1j, 1)))
    path, values_path = tmp_path / "div.json", tmp_path / "values.json"
    save_divisor(divisor, path)
    values = [{"re": 0.5 * i, "im": 0.25 * (i % 2)} for i in range(6)]
    values_path.write_text(json.dumps({"values": values}))
    assert cli.main(["interpolate", str(path), str(values_path), "--dump-atoms"]) == 0
    out = capsys.readouterr().out
    atoms = json.loads(out)["solution"]["atoms"]
    assert [list(atom) for atom in atoms] == [["re", "im", "k", "coeff"]] * 6
    labels = divisor.atom_labels()
    assert [(a["re"], a["im"], a["k"]) for a in atoms] == [(z.real, z.imag, k) for z, k in labels]
    solution = min_norm_interpolate(divisor, load_values(values_path, labels))
    expected = [
        {"re": a.lam.real, "im": a.lam.imag, "k": a.k, "coeff": a.coeff}
        for a in solution.function.atoms
    ]
    assert out.endswith('"atoms":' + canonical_json(expected) + "}}\n")


def test_uniqueness_window_below_double_range_has_no_mass(tmp_path, capsys):
    # alpha*R^2 underflows to 0.0, and the window holds no mass at all, down
    # to the least subnormal radius
    path = tmp_path / "lat.json"
    assert cli.main(["generate", "lattice", "--window", "3", "--out", str(path)]) == 0
    capsys.readouterr()
    for window in ("1e-170", "1e-322", "5e-324"):
        assert cli.main(["uniqueness", str(path), "--degree", "40", "--window", window]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.endswith(f'"window_radius":{format_float(float(window))}}},"hole_mass":0}}\n')


@pytest.mark.parametrize(
    "family, window",
    [(["--window", "3"], "1e160"), (["--alpha", "1e10", "--spacing", "1e-5", "--window", "3e-5"], "1e150")],
    ids=["square-overflows", "alpha-times-square-overflows"],
)
def test_uniqueness_window_beyond_double_range_holds_all_mass(family, window, tmp_path, capsys):
    # alpha*R^2 leaves the double range, and the window holds all the mass
    path = tmp_path / "lat.json"
    assert cli.main(["generate", "lattice", *family, "--out", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["uniqueness", str(path), "--degree", "40", "--window", window]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.endswith(f'"window_radius":{format_float(float(window))}}},"hole_mass":1}}\n')


def test_uniqueness_negative_degree_refused(tmp_path, capsys):
    path = tmp_path / "lat.json"
    save_divisor(generate_lattice(1.0, 1.0, 1, 3.0)[0], path)
    assert cli.main(["uniqueness", str(path), "--degree", "-1", "--window", "3"]) == 3
    assert capsys.readouterr() == ("", "precondition error: degree must be >= 0\n")


class TestValuesFile:
    @pytest.fixture()
    def divisor_path(self, tmp_path):
        path = tmp_path / "two.json"
        path.write_text('{"alpha": 1, "points": [{"re": 0, "im": 0, "mult": 2}]}')
        return path

    @pytest.mark.parametrize(
        "values,field",
        [
            ('[{"re": NaN, "im": 0}, {"re": 1, "im": 0}]', r"values\[0\]\.re"),
            ('[{"re": 1, "im": 0}, {"re": 0, "im": Infinity}]', r"values\[1\]\.im"),
            ('[{"re": -Infinity, "im": 0}, {"re": 1, "im": 0}]', r"values\[0\]\.re"),
            ('[{"re": 1, "im": "x"}, {"re": 1, "im": 0}]', r"values\[0\]\.im"),
        ],
        ids=["nan-re", "infinity-im", "minus-infinity-re", "string-im"],
    )
    def test_bad_numbers_are_schema_errors(self, divisor_path, tmp_path, values, field, capsys):
        from focklab import cli

        values_path = tmp_path / "vals.json"
        values_path.write_text(f'{{"values": {values}}}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["interpolate", str(divisor_path), str(values_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert re.search(f"schema error: {field}: ", err)

    @pytest.mark.parametrize(
        "values,err",
        [
            ("{}", "values: expected a list"),
            ('[{"re": 1, "im": 0}]', "values: expected 2 entries (one per divisor label), got 1"),
        ],
        ids=["not-a-list", "one-entry-short"],
    )
    def test_values_shape_is_schema_error(self, divisor_path, tmp_path, values, err, capsys):
        values_path = tmp_path / "vals.json"
        values_path.write_text(f'{{"values": {values}}}')
        assert cli.main(["interpolate", str(divisor_path), str(values_path)]) == 2
        assert capsys.readouterr() == ("", f"schema error: {err}\n")

    @pytest.mark.parametrize("part", ["re", "im"])
    def test_integer_beyond_double_range_is_schema_error(self, divisor_path, tmp_path, part, capsys):
        second = {"re": "1", "im": "0", part: "1" + "0" * 400}
        values_path = tmp_path / "vals.json"
        values_path.write_text(
            f'{{"values": [{{"re": 1, "im": 0}}, {{"re": {second["re"]}, "im": {second["im"]}}}]}}'
        )
        assert cli.main(["interpolate", str(divisor_path), str(values_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"schema error: values[1].{part}: must be finite\n"


CORPUS_EXPECTED = Path(__file__).parent / "corpus" / "expected"


def _sha256(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _stored_sha256(entry: str, name: str) -> str:
    """The sha256 of output NAME of the corpus entry ENTRY: of its stored
    bytes, or the digest stored in their place."""
    stored = CORPUS_EXPECTED / entry / name
    if stored.is_file():
        return _sha256(stored.read_bytes())
    return json.loads(stored.with_name(f"{stored.name}.sha256").read_text())["sha256"]


class TestOutputBytesPinned:
    """Whole CLI outputs, run in-process in a directory of their own, against
    the corpus entry that stores the same invocation's bytes (the one byte
    store): however the writers change, the reports, divisor files and
    defect CSVs keep their bytes."""

    @pytest.mark.parametrize(
        "argv,entry",
        [
            (["lattice", "--window", "20"], "generate-lattice-window-20"),
            (["covering-rings", "--window", "30", "--c", "0.97"], "generate-covering-rings-window-30"),
            (["disjoint-rings", "--window", "150", "--c", "0.97"], "generate-disjoint-rings-window-150"),
            (["lattice", "--alpha", "2", "--spacing", "0.7", "--mult", "2", "--window", "4.5"],
             "generate-lattice-alpha2-spacing-mult2"),
        ],
        ids=["lattice", "covering-rings", "disjoint-rings", "lattice-alpha-2"],
    )
    def test_generate(self, argv, entry, tmp_path, capsys):
        out = tmp_path / "divisor.json"
        assert cli.main(["generate", *argv, "--out", str(out)]) == 0
        assert _sha256(capsys.readouterr().out) == _stored_sha256(entry, "stdout")
        assert _sha256(out.read_bytes()) == _stored_sha256(entry, "files/d.json")

    def test_check_geometry_with_defects(self, tmp_path, capsys):
        lattice, prefix = tmp_path / "lat.json", tmp_path / "defects"
        assert cli.main(["generate", "lattice", "--window", "4", "--out", str(lattice)]) == 0
        capsys.readouterr()
        argv = ["check-geometry", str(lattice), "--window", "4", "--grid-step", "0.02",
                "--c-list", "0.25,0.5,1", "--defects-csv", str(prefix)]
        assert cli.main(argv) == 0
        entry = "check-geometry-lattice-fine-defects"
        assert _sha256(capsys.readouterr().out) == _stored_sha256(entry, "stdout")
        for c in ("0.25", "0.5", "1"):
            name = f"defects_c{c}.csv"
            assert _sha256((tmp_path / name).read_bytes()) == _stored_sha256(entry, f"files/{name}")

    # covering rings: a padded-cover witness and a hole; disjoint rings:
    # disjointness witnesses and uncovered points
    @pytest.mark.parametrize(
        "family,window,options,entry",
        [
            ("covering-rings", "8",
             ["--grid-step", "0.05", "--c-list", "0.25,0.5,1", "--hole-radius", "2", "--defects-csv"],
             "ci-check-geometry-rings"),
            ("disjoint-rings", "10", ["--grid-step", "0.1"], "check-geometry-disjoint-rings-window-10"),
            # the default grid step, radius/100
            ("lattice", "8", ["--hole-radius", "2"], "check-geometry-lattice-default-step-hole"),
        ],
        ids=["covering-rings", "disjoint-rings", "lattice-default-step"],
    )
    def test_check_geometry_rings(self, family, window, options, entry, tmp_path, capsys):
        divisor, prefix = tmp_path / "rings.json", tmp_path / "defects"
        assert cli.main(["generate", family, "--window", window, "--out", str(divisor)]) == 0
        capsys.readouterr()
        csvs = options[-1] == "--defects-csv"
        if csvs:
            options = [*options, str(prefix)]
        assert cli.main(["check-geometry", str(divisor), "--window", window, *options]) == 0
        assert _sha256(capsys.readouterr().out) == _stored_sha256(entry, "stdout")
        if csvs:
            for c in ("0.25", "0.5", "1"):
                stored = _stored_sha256(entry, f"files/rings-defects_c{c}.csv")
                assert _sha256((tmp_path / f"defects_c{c}.csv").read_bytes()) == stored


class TestSpectralReportShapes:
    """The spectral reports on disjoint rings at window 10 (11 atoms): keys
    in report order at every level, as list(d) of the parsed JSON (dict
    equality ignores order), and the exact sizes, degrees, flags and digests.
    No LAPACK number is pinned, so these hold on any host."""

    SUMMARY = ["degree", "smin", "smax", "ratio", "rank_deficient", "divisor_digest"]
    DIVISOR_DIGEST, LABEL_DIGEST = "bb93a1e03dfa", "3385894fd947"

    @pytest.fixture
    def rings(self, tmp_path, capsys):
        path = tmp_path / "rings.json"
        assert cli.main(["generate", "disjoint-rings", "--window", "10", "--out", str(path)]) == 0
        capsys.readouterr()
        return path

    @staticmethod
    def report(capsys, *argv, block: str, inputs: list) -> dict:
        assert cli.main([str(a) for a in argv]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        assert list(report) == ["tool", "command", "inputs", block]
        assert list(report["tool"]) == ["name", "version"]
        assert list(report["inputs"]) == ["divisor", *inputs]
        divisor = report["inputs"]["divisor"]
        assert list(divisor) == ["alpha", "points"]
        assert [list(p) for p in divisor["points"]] == [["re", "im", "mult"]] * len(divisor["points"])
        assert sum(p["mult"] for p in divisor["points"]) == 11
        return report

    def test_gram(self, rings, capsys):
        spectrum = self.report(capsys, "gram", rings, block="spectrum", inputs=[])["spectrum"]
        assert list(spectrum) == ["size", "eigenvalues", "smin", "smax", "condition", "divisor_digest"]
        assert spectrum["size"] == len(spectrum["eigenvalues"]) == 11
        assert spectrum["divisor_digest"] == self.LABEL_DIGEST

    def test_frame_bounds_single_degree(self, rings, capsys):
        report = self.report(capsys, "frame-bounds", rings, "--degree", 40, block="summaries", inputs=["degrees"])
        assert report["inputs"]["degrees"] == [40]
        assert [list(s) for s in report["summaries"]] == [self.SUMMARY]
        [summary] = report["summaries"]
        assert (summary["degree"], summary["rank_deficient"]) == (40, True)
        assert summary["divisor_digest"] == self.DIVISOR_DIGEST

    def test_frame_bounds_sweep_csv(self, rings, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        argv = ["frame-bounds", rings, "--degree-sweep", "10:40:10", "--csv", csv_path]
        report = self.report(capsys, *argv, block="summaries", inputs=["degrees"])
        summaries = report["summaries"]
        assert report["inputs"]["degrees"] == [10, 20, 30, 40]
        assert [list(s) for s in summaries] == [self.SUMMARY] * 4
        # 11 rows: degree 10 is square, the wider ones have a kernel
        assert [(s["degree"], s["rank_deficient"]) for s in summaries] == [
            (10, False), (20, True), (30, True), (40, True)
        ]
        assert {s["divisor_digest"] for s in summaries} == {self.DIVISOR_DIGEST}
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "N,smin,smax,ratio"
        assert [line.split(",")[0] for line in lines[1:]] == ["10", "20", "30", "40"]

    def test_interpolate_dump_atoms(self, rings, tmp_path, capsys):
        values = tmp_path / "values.json"
        values.write_text(json.dumps({"values": [{"re": i % 3, "im": i % 2} for i in range(11)]}))
        argv = ["interpolate", rings, values, "--dump-atoms"]
        report = self.report(capsys, *argv, block="solution", inputs=["values", "rcond"])
        assert [list(v) for v in report["inputs"]["values"]] == [["re", "im"]] * 11
        solution = report["solution"]
        assert list(solution) == ["norm", "residual", "gram_condition", "truncated", "atoms"]
        assert [list(a) for a in solution["atoms"]] == [["re", "im", "k", "coeff"]] * 11
        assert [list(a["coeff"]) for a in solution["atoms"]] == [["re", "im"]] * 11

    def test_uniqueness(self, rings, capsys):
        argv = ["uniqueness", rings, "--degree", 40, "--window", 4]
        report = self.report(capsys, *argv, block="hole_mass", inputs=["degree", "window_radius"])
        assert (report["inputs"]["degree"], report["inputs"]["window_radius"]) == (40, 4)


# numbers as a command line may spell them: NaN, infinities, zeros of both
# signs, negatives, huge and tiny values, and text that is no number at all
_float_text = st.one_of(
    st.sampled_from(["0.5", "1", "2", "3", "4"]),
    st.sampled_from(["nan", "inf", "-inf", "0", "-0.0", "-1", "1e-300", "1e308", "1e999", "abc", "", "0x1p3"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
_int_text = st.one_of(
    st.sampled_from(["0", "-1", "2", "5", "1e3", "abc", "", "99999999999999999999999999"]),
    st.integers(-(10**30), 10**30).map(str),
)
_bound = st.one_of(st.integers(-20, 40), st.integers(-(10**30), 10**30))
_sweep_text = st.one_of(
    st.builds(lambda a, b, c: f"{a}:{b}:{c}", _bound, _bound, _bound),
    st.sampled_from(["", "1:2", "1:2:3:4", "a:b:c", "0:1000000000000000:1", "5:4000000000:3"]),
)
_c_list_text = st.one_of(
    st.lists(_float_text, min_size=0, max_size=4).map(",".join),
    st.sampled_from(["0.25,0.5,1", "1,0.5", ",", "0.3"]),
)


def _option(name, values):
    # an option given or left to its default; "=" keeps a leading "-" a value
    return st.one_of(st.just([]), values.map(lambda v: [f"{name}={v}"]))


@st.composite
def cli_argvs(draw):
    """An argument vector for one of the six subcommands, with {divisor},
    {values}, {out} and {dir} standing for files the test provides."""
    command = draw(
        st.sampled_from(["generate", "check-geometry", "frame-bounds", "gram", "interpolate", "uniqueness"])
    )
    divisor = draw(st.sampled_from(["{divisor}", "{empty}", "{missing}", "{dir}"]))
    out = draw(st.sampled_from(["{out}", "{dir}", "{missing}/x.json"]))
    parts = []
    if command == "generate":
        parts = [[draw(st.sampled_from(["lattice", "covering-rings", "disjoint-rings"]))], [f"--out={out}"]]
        parts.append(draw(st.one_of(st.just([]), _float_text.map(lambda v: [f"--window={v}"]))))
        for name, values in (("--alpha", _float_text), ("--spacing", _float_text),
                             ("--mult", _int_text), ("--c", _float_text)):
            parts.append(draw(_option(name, values)))
    elif command == "check-geometry":
        parts = [[divisor], draw(_float_text.map(lambda v: [f"--window={v}"]))]
        for name, values in (("--grid-step", _float_text), ("--c-list", _c_list_text),
                             ("--hole-radius", _float_text),
                             ("--defects-csv", st.sampled_from(["{dir}/defects", "{missing}/d"]))):
            parts.append(draw(_option(name, values)))
    elif command == "frame-bounds":
        degree = st.one_of(_int_text.map(lambda v: [f"--degree={v}"]),
                           _sweep_text.map(lambda v: [f"--degree-sweep={v}"]))
        parts = [[divisor], draw(degree), draw(_option("--csv", st.just(out)))]
    elif command == "gram":
        parts = [[divisor]]
    elif command == "interpolate":
        parts = [[divisor, draw(st.sampled_from(["{values}", "{divisor}", "{missing}"]))],
                 draw(_option("--rcond", _float_text)),
                 draw(st.sampled_from([[], ["--dump-atoms"]]))]
    else:
        parts = [[divisor], draw(_int_text.map(lambda v: [f"--degree={v}"])),
                 draw(_float_text.map(lambda v: [f"--window={v}"]))]
    return [command, *(arg for part in parts for arg in part)]


class TestCliNeverExitsOne:
    """Drawn argument vectors end in exit 0, 2 or 3 with no traceback: every
    failure is a documented exit code, never an uncaught exception."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cli")
        save_divisor(Divisor(FockParams(1.0), ((0.0, 1), (1.5 - 0.5j, 2))), root / "divisor.json")
        save_divisor(Divisor(FockParams(2.0), ()), root / "empty.json")
        (root / "values.json").write_text(json.dumps({"values": [{"re": 1.0, "im": -0.5}] * 3}))
        (root / "dir").mkdir()
        return {
            "divisor": root / "divisor.json", "empty": root / "empty.json",
            "values": root / "values.json", "dir": root / "dir", "out": root / "out.json",
            "missing": root / "missing",
        }

    @pytest.mark.filterwarnings("default::RuntimeWarning")  # printed as warning lines
    @settings(max_examples=300, deadline=None)
    @given(argv=cli_argvs())
    @example(argv=["frame-bounds", "{divisor}", "--degree-sweep=0:1000000000000000:1"])
    @example(argv=["frame-bounds", "{divisor}", "--degree-sweep="])
    def test_exit_code_is_documented(self, argv, files):
        argv = [arg.format(**files) for arg in argv]
        err = io.StringIO()
        # budgets small enough that every accepted input runs in milliseconds
        with mock.patch.object(core, "MAX_GRID_CELLS", 2**16), \
                mock.patch.object(cli, "MAX_MATRIX_ENTRIES", 2**10), \
                mock.patch.object(generators, "MAX_RING_POINTS", 2**8), \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)  # a usage error too is returned, not raised
        assert code in (0, 2, 3), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code:  # one error line, after any warnings
            *warned, last = err.getvalue().splitlines()
            assert last.startswith(("schema error: ", "precondition error: ")), (argv, last)
            assert all(line.startswith("warning: ") for line in warned), (argv, warned)


class TestUsageErrors:
    """A malformed command line is one schema-error line on stderr with exit
    2, returned by main; --help prints argparse's help and exits 0."""

    @pytest.fixture
    def divisor_file(self, tmp_path):
        path = tmp_path / "d.json"
        save_divisor(Divisor(FockParams(1.0), ((0.0, 2),)), path)
        return path

    def test_negative_sweep_start_as_its_own_argument(self, divisor_file, capsys):
        # argparse reads -3:10:1 as an option, so --degree-sweep has no value
        assert cli.main(["frame-bounds", str(divisor_file), "--degree-sweep", "-3:10:1"]) == 2
        assert capsys.readouterr() == ("", "schema error: argument --degree-sweep: expected one argument\n")

    def test_negative_sweep_start_after_equals(self, divisor_file, capsys):
        assert cli.main(["frame-bounds", str(divisor_file), "--degree-sweep=-3:10:1"]) == 3
        assert capsys.readouterr() == ("", "precondition error: degree must be >= 0\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "the following arguments are required: command"),
            (["gram", "{path}", "--verbose"], "unrecognized arguments: --verbose"),
            (["frame-bounds", "{path}", "--degree", "2.5"], "argument --degree: invalid int value: '2.5'"),
            (["uniqueness", "{path}", "--degree", "3"], "the following arguments are required: --window"),
        ],
        ids=["no-command", "unknown-option", "fractional-degree", "missing-option"],
    )
    def test_one_line_exit_2(self, argv, message, divisor_file, capsys):
        assert cli.main([arg.format(path=divisor_file) for arg in argv]) == 2
        assert capsys.readouterr() == ("", f"schema error: {message}\n")

    def test_one_line_from_the_console(self, divisor_file, capsys):
        # `python -m focklab` prints the bytes main does in-process and exits
        # with its code: a report (0), a usage error (2), a precondition error (3)
        for argv, code in [
            (["gram", str(divisor_file)], 0),
            (["frame-bounds", str(divisor_file), "--degree-sweep", "-3:10:1"], 2),
            (["frame-bounds", str(divisor_file), "--degree-sweep=-3:10:1"], 3),
        ]:
            assert cli.main(argv) == code
            in_process = capsys.readouterr()
            result = run_cli(*argv)
            assert result.returncode == code
            assert (result.stdout, result.stderr) == (in_process.out, in_process.err)

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gram", "--help"])
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: focklab gram [-h] divisor\n") and err == ""


def csv_cell(value) -> str:
    # the cell-by-cell spelling of the sweep writer: integers by str, any
    # infinity as inf, other floats by format_float
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    x = float(value)
    if math.isinf(x):
        return "inf"
    return format_float(x)


# what a sweep row holds: a degree within the matrix budget, singular values
# (signed zeros and subnormals among them) and a ratio that may be inf
_sweep_value = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.5e-310, math.inf, math.nan]),
    st.floats(min_value=-1e308, allow_nan=False),
)
_sweep_degree = st.one_of(st.integers(0, 4_194_303), st.integers(0, 4_194_303).map(np.int64))


@pytest.mark.bitwise
class TestSweepCsvReference:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_sweep_degree, _sweep_value, _sweep_value, _sweep_value), max_size=8))
    def test_matches_cell_by_cell_writer(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "sweep.csv"
            write_sweep_csv(path, rows)
            lines = ["N,smin,smax,ratio", *(",".join(map(csv_cell, row)) for row in rows)]
            assert path.read_text() == "\n".join(lines) + "\n"


class TestSweepOverflow:
    # a window so wide that its squared grid distances pass the double range
    # (1e160 squared): they are infinite and lie in no disc, quietly; at 1e150
    # the squares stay finite
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("window", ["1e160", "1e150"])
    def test_check_geometry_is_quiet(self, window, tmp_path, capsys):
        path = tmp_path / "lat.json"
        assert cli.main(["generate", "lattice", "--window", "3", "--out", str(path)]) == 0
        capsys.readouterr()
        assert cli.main(["check-geometry", str(path), "--window", window]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        verdicts = json.loads(out)["verdicts"]
        if window == "1e160":
            assert verdicts["finite_overlap_bound"] == 1
            shrunk = [(s["c"], s["holds"], s["uncovered_count"]) for s in verdicts["shrunk_cover"]]
            assert shrunk == [(0.25, False, 31416), (0.5, False, 31416), (1, False, 31417)]
            assert verdicts["bare_cover"]["holds"] is False
            assert verdicts["padded_cover"]["holds"] is False
