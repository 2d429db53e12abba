"""The CLI byte corpus: every invocation of manifest.json, run in one process.

    python tests/corpus/regenerate.py            # rewrite expected/, print what moved
    python tests/corpus/regenerate.py --out DIR  # write every output to DIR, nothing else

Each manifest entry names an invocation, its argv (after `focklab`) and the
recipes of its input files.  It runs through `focklab.cli.main` in-process,
in a fresh directory that holds only its inputs, so every path it sees is
relative.  BLAS runs on one thread and argparse wraps at 80 columns, so the
bytes do not depend on the host's core count or terminal.  Each invocation
leaves `NAME/exit_code`, `NAME/stdout`, `NAME/stderr` and `NAME/files/...`
(every file it wrote), in full under --out.  Under expected/ an output of
more than INLINE_BYTES is stored as `<file>.sha256`: its digest, its size
and its reduction by perfbench/checks.py, in which long point lists are
themselves digests.  A zero exit with anything on stderr but the `warning:`
lines its entry lists fails the run (exit 1).

Input recipes:
  {"generate": [ARGS...]}  the file `focklab generate ARGS... --out FILE` writes
  {"json": VALUE}          VALUE as JSON text
  {"text": STRING}         STRING as UTF-8 text
  {"hex": HEX}             raw bytes
  {"values_for": FILE}     one value {re: i % 3, im: i % 2} per label of the
                           divisor FILE (an input listed before it)
  {"dir": true}            an empty directory
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
MANIFEST = HERE / "manifest.json"
EXPECTED = HERE / "expected"
# outputs above this size are stored as digest plus reduction
INLINE_BYTES = 4096
# the environment of every run, set before numpy is first imported
RUN_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "COLUMNS": "80"}
# The report fields README *Conventions* names as LAPACK-backed, whose last
# printed digits can move with the host: a report whose bytes differ passes
# only if every moved field is one of these and checks.compare accepts it.
LAPACK_FIELDS = frozenset(
    {"eigenvalues", "smin", "smax", "condition", "ratio", "norm", "residual", "gram_condition", "coeff", "hole_mass"}
)


def _load_checks():
    spec = importlib.util.spec_from_file_location("corpus_checks", ROOT / "perfbench" / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load_checks()


def load_manifest() -> list[dict]:
    entries = json.loads(MANIFEST.read_text())
    names = [e["name"] for e in entries]
    if len(set(names)) != len(names):
        raise SystemExit("manifest: invocation names must be unique")
    return entries


# ------------------------------------------------------------------ running


def _call(argv) -> tuple[int, str, str]:
    from focklab import cli  # from src/ of this checkout, put first on sys.path by main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's own exit
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _write_inputs(inputs: dict, work: Path, generated: dict) -> None:
    for name, recipe in inputs.items():
        path = work / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if "generate" in recipe:
            key = json.dumps(recipe["generate"])
            if key not in generated:  # each recipe is generated once per run
                with tempfile.TemporaryDirectory() as tmp:
                    code, _, err = _call(["generate", *recipe["generate"], "--out", f"{tmp}/out.json"])
                    if code:
                        raise SystemExit(f"input recipe {key} failed: {err}")
                    generated[key] = Path(tmp, "out.json").read_bytes()
            path.write_bytes(generated[key])
        elif "json" in recipe:
            path.write_text(json.dumps(recipe["json"]))
        elif "text" in recipe:
            path.write_text(recipe["text"], encoding="utf-8")
        elif "hex" in recipe:
            path.write_bytes(bytes.fromhex(recipe["hex"]))
        elif "values_for" in recipe:
            n = sum(p["mult"] for p in json.loads((work / recipe["values_for"]).read_text())["points"])
            path.write_text(json.dumps({"values": [{"re": i % 3, "im": i % 2} for i in range(n)]}))
        elif recipe.get("dir"):
            path.mkdir()
        else:
            raise SystemExit(f"input {name}: unknown recipe {recipe}")


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def run(entries: list[dict], out: Path) -> list[str]:
    """Run every invocation, writing its outputs under out/NAME; returns
    the invocations that exited 0 with unlisted stderr lines."""
    problems, generated = [], {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for entry in entries:
            work = Path(tmp, entry["name"])
            work.mkdir()
            _write_inputs(entry.get("inputs", {}), work, generated)
            before = _files(work)
            os.chdir(work)
            try:
                code, stdout, stderr = _call(entry["argv"])
            finally:
                os.chdir(cwd)
            written = {k: v for k, v in _files(work).items() if before.get(k) != v}
            dest = out / entry["name"]
            dest.mkdir(parents=True)
            (dest / "exit_code").write_text(f"{code}\n")
            (dest / "stdout").write_text(stdout)
            (dest / "stderr").write_text(stderr)
            for rel, data in written.items():
                (dest / "files" / rel).parent.mkdir(parents=True, exist_ok=True)
                (dest / "files" / rel).write_bytes(data)
            allowed = [f"warning: {w}" for w in entry.get("warnings", [])]
            if code == 0 and stderr.splitlines() != allowed:
                problems.append(f"{entry['name']}: exit 0 with stderr {stderr!r}")
    return problems


# ---------------------------------------------------------------- comparing


def _parse(text: str):
    """A report as JSON, or a CSV as a list of rows keyed by its header; None
    for anything else."""
    try:
        return json.loads(text)
    except ValueError:
        pass
    lines = text.splitlines()
    if not lines or "," not in lines[0]:
        return None
    header = lines[0].split(",")
    try:
        return [dict(zip(header, (_number(cell) for cell in line.split(",")))) for line in lines[1:]]
    except ValueError:
        return None


def _number(cell: str):
    try:
        return int(cell)
    except ValueError:
        return float(cell)


def _reduce(text: str):
    doc = _parse(text)
    return None if doc is None else checks.reduce_report(doc)


def stored_form(data: bytes) -> tuple[str, bytes]:
    """The suffix and the bytes under which an output is stored in expected/."""
    if len(data) <= INLINE_BYTES:
        return "", data
    stub = {
        "bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
        "reduced": _reduce(data.decode("utf-8", "replace")),
    }
    return ".sha256", (json.dumps(stub, indent=1) + "\n").encode()


def moved_fields(want, got, path: str = "") -> list[str]:
    """The paths of the leaves where two parsed documents differ."""
    if isinstance(want, dict) and isinstance(got, dict) and list(want) == list(got):
        return [p for k in want for p in moved_fields(want[k], got[k], f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        return [p for i, (w, g) in enumerate(zip(want, got)) for p in moved_fields(w, g, f"{path}[{i}]")]
    return [] if type(want) is type(got) and want == got else [path or "."]


def _lapack_backed(path: str) -> bool:
    keys = [k for k in re.findall(r"\.(\w+)", path) if k not in ("re", "im")]
    return bool(keys) and keys[-1] in LAPACK_FIELDS


def _stored(expected: Path) -> dict[str, tuple[str, bytes]]:
    """Each stored output of one invocation: its name, its suffix and bytes."""
    stored = {}
    for rel, data in _files(expected).items():
        name = rel[: -len(".sha256")] if rel.endswith(".sha256") else rel
        stored[name] = (rel[len(name) :], data)
    return stored


def _moved_output(rel: str, suffix: str, stored: bytes, data: bytes) -> tuple[list[str], bool]:
    """What moved in one output, and whether the host rule accepts it: two
    reports (or CSVs) whose bytes differ agree only when every moved field
    is LAPACK-backed and checks.compare accepts their reductions."""
    if stored_form(data) == (suffix, stored):
        return [], True
    want = json.loads(stored)["reduced"] if suffix else _reduce(stored.decode("utf-8", "replace"))
    got = _reduce(data.decode("utf-8", "replace"))
    if rel in ("exit_code", "stderr") or want is None or got is None:
        return ["bytes"], False
    moved = moved_fields(want, got) or ["bytes"]
    return moved, all(map(_lapack_backed, moved)) and not checks.compare(want, got)


def differences(expected: Path, got: Path) -> dict[str, list[tuple[str, bool]]]:
    """Per invocation whose outputs moved, one line per moved output (its
    name and its moved fields) and whether the host rule accepts it."""
    names = sorted({p.name for p in expected.iterdir()} | {p.name for p in got.iterdir()})
    found = {}
    for name in names:
        want = _stored(expected / name) if (expected / name).is_dir() else {}
        have = _files(got / name) if (got / name).is_dir() else {}
        lines = [(f"{rel}: not written", False) for rel in want if rel not in have]
        lines += [(f"{rel}: not expected", False) for rel in have if rel not in want]
        for rel in [r for r in want if r in have]:
            moved, ok = _moved_output(rel, *want[rel], have[rel])
            if moved:
                shown = ", ".join(moved[:6]) + (f" and {len(moved) - 6} more" if len(moved) > 6 else "")
                lines.append((f"{rel}: {shown}", ok))
        if lines:
            found[name] = lines
    return found


def store(got: Path, expected: Path) -> None:
    """Rewrite expected/ from a run's outputs."""
    if expected.exists():
        shutil.rmtree(expected)
    for rel, data in _files(got).items():
        suffix, stored = stored_form(data)
        path = expected / (rel + suffix)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(stored)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="write the outputs here and leave expected/ as it is")
    args = parser.parse_args(argv)
    os.environ.update(RUN_ENV)
    sys.path.insert(0, str(ROOT / "src"))
    entries = load_manifest()
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        problems = run(entries, args.out.resolve())
    else:
        with tempfile.TemporaryDirectory() as tmp:
            problems = run(entries, Path(tmp))
            old = differences(EXPECTED, Path(tmp)) if EXPECTED.is_dir() else {}
            for name, lines in old.items():
                print(f"{name}: " + "; ".join(text + ("" if ok else " (beyond the host rule)") for text, ok in lines))
            store(Path(tmp), EXPECTED)
            print(f"{len(entries)} invocations, {len(old)} moved")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
