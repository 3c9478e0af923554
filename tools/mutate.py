"""Mutation gate: every listed one-line mutant of ``src/`` must fail the tests.

Each mutant replaces one exact line of a package module.  It is applied to a
fresh temporary copy of ``src/``, ``tests/``, ``demos/`` and
``pyproject.toml``, and the tier-1 command runs there with ``-x``, so the run
stops at the first failing test; a mutant that names ``tests`` runs only
those.  A mutant is killed when the run fails.  A run that outlasts
``TIMEOUT_S`` is stopped and counted as killed, but listed as a timeout, since
no test fails fast on it.  The report gives each mutant's verdict, seconds
and the first test that failed.

Exits 1 if a mutant survives or a listed line does not occur exactly once in
its file, else 0.  Uses the standard library only.

    python3 tools/mutate.py
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "demos", "pyproject.toml")
TIER1 = ["-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
# Wall-clock limit per mutant run, in seconds; the unmutated tier-1 run takes
# about 40 s on 2 cores.
TIMEOUT_S = 180


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repository root
    line: str  # the exact line, indentation included
    replacement: str
    why: str
    tests: tuple[str, ...] = ()  # pytest node ids to run instead of all of tier-1


MUTANTS = [
    Mutant(
        "zero-row-dropped", "src/pcaforge/construct.py",
        '    developed, zero = len(scaled) * n, int(action.kind == "frobenius")',
        "    developed, zero = len(scaled) * n, 0",
        "the affine group's difference count loses the zero row of its constant rows",
    ),
    Mutant(
        "last-c0-skipped", "src/pcaforge/construct.py",
        "    for c0 in range(k - t + 1):",
        "    for c0 in range(k - t):",
        "the difference count skips the t-sets whose first column is k - t",
    ),
    Mutant(
        "gather-skips-first-row", "src/pcaforge/coverage.py",
        "        counts[lo : lo + step] = _count(ranks, vt)",
        "        counts[lo : lo + step] = _count(ranks[:, 1:], vt)",
        "every kernel count ignores the first row it gathers",
    ),
    Mutant(
        "head-recount-off-by-one", "src/pcaforge/coverage.py",
        "        short = np.flatnonzero(counts < vt) if head < n else ()",
        "        short = np.flatnonzero(counts < vt - 1) if head < n else ()",
        "a t-set one tuple short in the head is not recounted on all rows",
    ),
    Mutant(
        "allowed-without-snap", "src/pcaforge/coverage.py",
        "    return math.floor(_snap(epsilon * math.comb(k, t)))",
        "    return math.floor(epsilon * math.comb(k, t))",
        "an epsilon * C(k,t) a rounding error below an integer allows one defect too few",
    ),
    Mutant(
        "derand-ties-to-largest", "src/pcaforge/construct.py",
        "            row[j] = s = int(np.argmax(weight @ children[start + v * prefix[i]]))",
        "            row[j] = s = v - 1 - int(np.argmax("
        "(weight @ children[start + v * prefix[i]])[::-1]))",
        "the derandomizer breaks ties toward the largest symbol",
    ),
    Mutant(
        "recount-skips-one-tset", "src/pcaforge/construct.py",
        "        short[ranks] = _count_tsets(cells, v, tsets) < m",
        "        short[ranks[:-1]] = _count_tsets(cells, v, tsets[:-1]) < m",
        "Moser-Tardos leaves the last t-set through a resampled defect stale",
    ),
    Mutant(
        "frobenius-without-translations", "src/pcaforge/galois.py",
        "    perms = field.add[field.mul[1:, None, :], np.arange(v)[None, :, None]].reshape(-1, v)",
        "    perms = field.add[field.mul[1:, None, :], 0 * np.arange(v)[None, :, None]]"
        ".reshape(-1, v)",
        "the affine group lists x -> a*x v times instead of x -> a*x + b; only the "
        "tests that hold the package to the tests' orbit enumerator run",
        tests=(
            "tests/test_galois.py::TestOrbits",
            "tests/test_galois.py::TestDevelop::test_coverage_identity",
            "tests/test_galois.py::TestDevelopmentLemma",
            "tests/test_galois.py::TestConstantRows::test_covers_short_orbit_everywhere",
            "tests/test_acceptance.py::test_c07_development_identity",
            "tests/test_acceptance.py::test_c08_orbit_structure_closed_forms",
            "tests/test_coverage_kernel.py::TestClassScans",
        ),
    ),
]


def _mutated(m: Mutant, source: str) -> str | None:
    """``source`` with the mutant's line replaced, or None unless the line
    occurs exactly once."""
    lines = source.split("\n")
    if lines.count(m.line) != 1:
        return None
    lines[lines.index(m.line)] = m.replacement
    return "\n".join(lines)


def _run(m: Mutant, work: Path) -> tuple[str, float, str]:
    """The verdict, the seconds and the first failing test of one mutant."""
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, work / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy(src, work / name)
    path = work / m.file
    path.write_text(_mutated(m, path.read_text(encoding="utf-8")), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *TIER1, *m.tests], cwd=work, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # pytest and any process a test started
        proc.communicate()
        return "timeout", time.perf_counter() - start, "-"
    seconds = time.perf_counter() - start
    if proc.returncode == 0:
        return "SURVIVED", seconds, "-"
    first = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", out, re.MULTILINE)
    return "killed", seconds, first.group(1) if first else f"exit {proc.returncode}"


def main() -> int:
    unmatched = [m.name for m in MUTANTS
                 if _mutated(m, (ROOT / m.file).read_text(encoding="utf-8")) is None]
    for name in unmatched:
        print(f"error: the line of mutant {name} does not occur exactly once", file=sys.stderr)
    if unmatched:
        return 1
    survived = 0
    for m in MUTANTS:
        with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
            verdict, seconds, first = _run(m, Path(tmp))
        survived += verdict == "SURVIVED"
        print(f"{verdict:<9}{seconds:7.1f} s  {m.name:<32}{first}", flush=True)
        print(f"{'':<20}{m.why}", flush=True)
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
