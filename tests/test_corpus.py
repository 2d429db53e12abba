"""The CLI byte corpus (tests/corpus/): every invocation of its manifest,
run in one subprocess, against the stored stdout, stderr, exit code and
written files.  `python tests/corpus/regenerate.py` rewrites the answers."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

CORPUS = Path(__file__).parent / "corpus"
_spec = importlib.util.spec_from_file_location("corpus_regenerate", CORPUS / "regenerate.py")
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)


def _rejected(expected: Path, got: Path) -> dict[str, list[str]]:
    found = corpus.differences(expected, got)
    return {name: bad for name, lines in found.items() if (bad := [text for text, ok in lines if not ok])}


def test_every_invocation_gives_its_stored_bytes(tmp_path):
    env = {**os.environ, **corpus.RUN_ENV}
    result = subprocess.run(
        [sys.executable, str(CORPUS / "regenerate.py"), "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert not _rejected(corpus.EXPECTED, tmp_path)


def test_manifest_runs_every_subcommand():
    commands = {entry["argv"][0] for entry in corpus.load_manifest() if entry["argv"]}
    assert {"generate", "check-geometry", "frame-bounds", "gram", "interpolate", "uniqueness"} <= commands


def _report(smin: float, digest: str = "1beb62a47154") -> str:
    spectrum = {"size": 2, "smin": smin, "smax": 1.5, "divisor_digest": digest}
    return json.dumps({"command": "gram", "spectrum": spectrum}, separators=(",", ":"))


class TestHostRule:
    """Bytes agree exactly; a report whose bytes differ agrees only where
    every moved field is LAPACK-backed and within checks.compare."""

    def _trees(self, tmp_path, want: str, got: str, name: str = "stdout"):
        for root, text in (("want", want), ("got", got)):
            (tmp_path / root / "case").mkdir(parents=True)
            (tmp_path / root / "case" / name).write_text(text)
        return tmp_path / "want", tmp_path / "got"

    def test_equal_bytes_agree(self, tmp_path):
        assert corpus.differences(*self._trees(tmp_path, _report(0.5), _report(0.5))) == {}

    def test_lapack_field_within_tolerance_agrees(self, tmp_path):
        trees = self._trees(tmp_path, _report(0.5), _report(0.5 + 1e-13))
        assert corpus.differences(*trees) == {"case": [("stdout: .spectrum.smin", True)]}

    def test_lapack_field_beyond_tolerance_is_refused(self, tmp_path):
        assert _rejected(*self._trees(tmp_path, _report(0.5), _report(0.5001)))

    def test_other_field_is_refused(self, tmp_path):
        assert _rejected(*self._trees(tmp_path, _report(0.5), _report(0.5, "e033bd07a23d")))

    @pytest.mark.parametrize("name", ["stderr", "exit_code"])
    def test_stderr_and_exit_code_are_bytes(self, tmp_path, name):
        assert _rejected(*self._trees(tmp_path, _report(0.5), _report(0.5 + 1e-13), name))

    def test_large_output_compared_by_its_reduction(self, tmp_path):
        eigenvalues = [1.0 + i / 7 for i in range(400)]
        want = json.dumps({"spectrum": {"eigenvalues": eigenvalues}})
        got = json.dumps({"spectrum": {"eigenvalues": [*eigenvalues[:-1], eigenvalues[-1] * (1 + 1e-12)]}})
        (tmp_path / "run" / "case").mkdir(parents=True)
        (tmp_path / "run" / "case" / "stdout").write_text(want)
        corpus.store(tmp_path / "run", tmp_path / "stored")
        assert (tmp_path / "stored" / "case" / "stdout.sha256").is_file()
        (tmp_path / "run" / "case" / "stdout").write_text(got)
        assert corpus.differences(tmp_path / "stored", tmp_path / "run") == {
            "case": [("stdout: .spectrum.eigenvalues[399]", True)]
        }

    def test_missing_and_extra_outputs_are_refused(self, tmp_path):
        want, got = self._trees(tmp_path, "a", "a")
        (want / "case" / "stderr").write_text("")
        (got / "case" / "files").mkdir()
        (got / "case" / "files" / "x.csv").write_text("re,im\n")
        assert _rejected(want, got) == {"case": ["stderr: not written", "files/x.csv: not expected"]}
