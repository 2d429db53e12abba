import json
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
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
    generate_lattice,
    load_divisor,
    save_divisor,
)
from focklab import generators
from focklab.reports import complex_payload, format_float, write_points_csv, write_sweep_csv


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "focklab", *args], capture_output=True, text=True, cwd=cwd
    )


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

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ('{"alpha": -1, "points": []}', "alpha"),
            ('{"alpha": 1, "points": [{"re": 0, "im": 0, "mult": 0}]}', "mult"),
            ('{"alpha": 1, "points": [{"re": 0, "im": 0, "mult": 1.5}]}', "mult"),
            ('{"alpha": 1, "points": [{"re": 0, "im": 0}]}', r"points\[0\]"),
            ('{"alpha": 1}', "top level"),
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
        assert "grid cells" in capsys.readouterr().err

    def test_generate_covering_rings(self, tmp_path, capsys):
        out = tmp_path / "cov.json"
        code = cli.main(
            ["generate", "covering-rings", "--c", "1e-9", "--window", "4", "--out", str(out)]
        )
        assert code == 3
        assert "grid cells" in capsys.readouterr().err
        assert not out.exists()


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
        ],
    )
    def test_generate(self, args, tmp_path, capsys, monkeypatch):
        def refuse(*_):
            raise AssertionError("rings laid out for a refused input")

        monkeypatch.setattr(generators, "_ring_points", refuse)
        out = tmp_path / "div.json"
        assert cli.main(["generate", *args, "--out", str(out)]) == 3
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestCliSurface:
    @pytest.fixture()
    def lattice_file(self, tmp_path):
        result = run_cli(
            "generate", "lattice", "--spacing", "1", "--mult", "1", "--window", "3",
            "--out", str(tmp_path / "lat.json"),
        )
        assert result.returncode == 0
        return tmp_path / "lat.json"

    def test_generate_report_echoes_family(self, lattice_file):
        divisor = load_divisor(lattice_file)
        assert len(divisor.entries) == 29

    def test_check_geometry_deterministic(self, lattice_file):
        args = (
            "check-geometry", str(lattice_file), "--window", "3",
            "--grid-step", "0.1", "--c-list", "0.25,0.5,1",
        )
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        doc = json.loads(first.stdout)
        assert doc["verdicts"]["padded_cover"]["holds"] is True
        assert doc["verdicts"]["finite_overlap_bound"] == 4

    def test_generate_deterministic(self, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        r1 = run_cli("generate", "covering-rings", "--c", "0.5", "--window", "4", "--out", str(out_a))
        r2 = run_cli("generate", "covering-rings", "--c", "0.5", "--window", "4", "--out", str(out_b))
        assert r1.returncode == r2.returncode == 0
        assert r1.stdout == r2.stdout
        assert out_a.read_text() == out_b.read_text()

    def test_frame_bounds_sweep_csv(self, lattice_file, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        result = run_cli(
            "frame-bounds", str(lattice_file), "--degree-sweep", "2:8:2", "--csv", str(csv_path)
        )
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert [s["degree"] for s in doc["summaries"]] == [2, 4, 6, 8]
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "N,smin,smax,ratio"
        assert len(lines) == 5

    def test_frame_bounds_single_degree(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text('{"alpha": 1, "points": [{"re": 0, "im": 0, "mult": 6}]}')
        result = run_cli("frame-bounds", str(path), "--degree", "5")
        doc = json.loads(result.stdout)
        assert doc["summaries"][0]["smin"] == pytest.approx(1.0, abs=1e-10)
        assert doc["summaries"][0]["ratio"] == pytest.approx(1.0, abs=1e-9)

    def test_gram_and_interpolate(self, tmp_path):
        divisor_path = tmp_path / "two.json"
        divisor_path.write_text(
            '{"alpha": 1, "points": [{"re": 0, "im": 0, "mult": 1}, {"re": 4, "im": 0, "mult": 1}]}'
        )
        gram_doc = json.loads(run_cli("gram", str(divisor_path)).stdout)
        assert gram_doc["spectrum"]["size"] == 2
        assert gram_doc["spectrum"]["condition"] == pytest.approx(1.0, abs=1e-3)

        values_path = tmp_path / "vals.json"
        values_path.write_text('{"values": [{"re": 1, "im": 0}, {"re": 0, "im": 0}]}')
        result = run_cli(
            "interpolate", str(divisor_path), str(values_path), "--dump-atoms"
        )
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["solution"]["residual"] <= 1e-10
        assert len(doc["solution"]["atoms"]) == 2

    def test_uniqueness_subcommand(self, tmp_path):
        path = tmp_path / "four.json"
        path.write_text('{"alpha": 1, "points": [{"re": 0, "im": 0, "mult": 4}]}')
        result = run_cli("uniqueness", str(path), "--degree", "8", "--window", "2")
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["hole_mass"] == pytest.approx(0.371163, abs=1e-5)

    def test_schema_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"alpha": 0, "points": []}')
        result = run_cli("gram", str(path))
        assert result.returncode == 2
        assert "schema error" in result.stderr

    def test_precondition_error_exit_code(self, tmp_path):
        path = tmp_path / "four.json"
        path.write_text('{"alpha": 1, "points": [{"re": 0, "im": 0, "mult": 4}]}')
        result = run_cli("uniqueness", str(path), "--degree", "3", "--window", "2")
        assert result.returncode == 3
        assert "precondition error" in result.stderr

    def test_values_length_mismatch_is_schema_error(self, tmp_path):
        divisor_path = tmp_path / "one.json"
        divisor_path.write_text('{"alpha": 1, "points": [{"re": 0, "im": 0, "mult": 2}]}')
        values_path = tmp_path / "vals.json"
        values_path.write_text('{"values": [{"re": 1, "im": 0}]}')
        result = run_cli("interpolate", str(divisor_path), str(values_path))
        assert result.returncode == 2

    def test_defects_csv_emitted(self, lattice_file, tmp_path):
        prefix = tmp_path / "defects"
        result = run_cli(
            "check-geometry", str(lattice_file), "--window", "3", "--grid-step", "0.1",
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
            write_points_csv(path, points)

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
        summary = riesz_bounds(gram)
        expected = json.loads(canonical_json({
            "size": 3,
            "eigenvalues": [float(w) for w in np.linalg.eigvalsh(gram.entries)],
            "smin": summary.smin,
            "smax": summary.smax,
            "condition": summary.ratio,
            "divisor_digest": summary.divisor_digest,
        }))
        assert spectrum == expected


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
        expected = []
        for degree in range(10, 121, 10):
            summary = frame_bounds(analysis_matrix(divisor, degree))
            expected.append({
                "degree": summary.degree,
                "smin": summary.smin,
                "smax": summary.smax,
                "ratio": summary.ratio,
                "rank_deficient": summary.rank_deficient,
                "divisor_digest": summary.divisor_digest,
            })
        assert summaries == json.loads(canonical_json(expected))


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
