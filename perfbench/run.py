"""pcaforge benchmark: four CLI workloads driven in a closed loop.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mt-resample --seed 1 --seconds 28 --trace 0

One client calls ``pcaforge.cli.main(argv)`` in this process and sends the
next op only when the previous one returns; there are no worker threads or
processes apart from the short interpreter starts that measure ``setup_s``.
Every op's output is re-read from disk and re-checked by ``checks`` before the
run ends.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end metrics
with ``--trace 0``, per-layer metrics (from ``spans``) with ``--trace 1``.
A record with the environment, one sha256 per output array and, for traced
runs, every span is written to ``perfbench/out/``.

The workloads are defined in ``BENCHMARK.json`` at the repository root, which
also says why each was chosen.  ``--tiny`` shrinks every workload for
``perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_STARTS = 7
EXIT_NO_PROGRAM = 2
CHILD_TIMEOUT = 120


@dataclass
class Op:
    """One CLI call and the check of its output.

    ``check`` raises ``checks.CheckFailed`` on a wrong output and otherwise
    returns the op's emitted rows over its bound's rows, or None for ops that
    build nothing.  ``writes`` are the files the op must write; they are
    deleted before each call, so a check never reads an earlier op's file.
    """

    argv: list[str]
    check: Callable[[int | None, str, str], float | None]
    writes: tuple[Path, ...] = ()


class Run:
    """State of one benchmark run: inputs, checks, outputs seen."""

    def __init__(self, workload: str, seed: int, tiny: bool, work: Path, pcaforge):
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.tiny = tiny
        self.work = work
        self.pcaforge = pcaforge
        self.checked: set[str] = set()
        self.outputs: dict[str, str] = {}
        self.refusals = 0
        self.rows_over_bound: float | None = None

    # -- op factories --------------------------------------------------------------

    def generate(self, tag: str, alg: str, t: int, k: int, v: int, *,
                 m: int | None = None, epsilon: float = 0.0, seed: int = 0,
                 refusal_ok: bool = False) -> Op:
        out = self.work / f"{tag}.pca"
        report = self.work / f"{tag}.json"
        argv = ["generate", "--alg", alg, "--t", str(t), "--k", str(k), "--v", str(v)]
        if m is not None:
            argv += ["--m", str(m)]
        if epsilon:
            argv += ["--epsilon", str(epsilon)]
        argv += ["--seed", str(seed), "--out", str(out), "--report", str(report)]
        want_m = v**t if m is None else m

        def check(rc: int | None, stdout: str, stderr: str) -> float | None:
            if refusal_ok and rc == 2 and "CapacityExceeded" in stderr:
                self.refusals += 1
                return None
            if rc != 0:
                raise checks.CheckFailed(f"exit code {rc}: {stderr.strip()[-300:]}")
            data = out.read_bytes()
            sha = hashlib.sha256(data).hexdigest()
            self.outputs[" ".join(argv[:-4])] = sha
            record = json.loads(report.read_text())
            if sha not in self.checked:
                cells, file_v, claims = checks.parse_array(out)
                want = {"t": t, "m": want_m}
                if epsilon:
                    want["epsilon"] = epsilon
                if claims != want or file_v != v or cells.shape[1] != k:
                    raise checks.CheckFailed(f"{tag}: header {claims}, v={file_v} != {want}")
                if record["n_rows"] != cells.shape[0]:
                    raise checks.CheckFailed(f"{tag}: report rows differ from the file's")
                checks.check_claims(cells, v, t, want_m, epsilon)
                self.checked.add(sha)
            return record["n_rows"] / record["bound"]["n_rows"]

        return Op(argv, check, (out, report))

    # -- workloads ---------------------------------------------------------------

    def prepare(self) -> None:
        """Inputs made before timing starts."""
        if self.workload in ("mt-resample", "develop"):
            # A fixed pool of builder seeds in an order set by the workload
            # seed.  Resamples and restarts differ from one builder seed to
            # the next; with a fixed pool every run does the same work, so
            # the figures follow the program and not the seeds drawn.
            pool = {"mt-resample": 10, "develop": 4}[self.workload]
            self.builder_seeds = list(range(2 if self.tiny else pool))
            self.rng.shuffle(self.builder_seeds)
        elif self.workload == "verify-file":
            self.verify_op = self.prepare_verify_file()
        elif self.workload == "derand":
            # The over-capacity request of the roadmap's derandomizer item.
            # Refusing it with CapacityExceeded is today's documented result;
            # a later builder that accepts it must emit a verified array.
            self.probe = self.generate("probe", "derand", 2, 10, 3, epsilon=0.5,
                                       seed=self.rng.randrange(2**32), refusal_ok=True)

    def prepare_verify_file(self) -> Op:
        """Have a child process write the seeded input file and work out the
        verdict it must get; the child's memory is not this process's peak."""
        path = self.work / "verify-input.pca"
        cmd = [sys.executable, str(HERE / "verify_input.py"),
               "--seed", str(self.rng.randrange(2**63)), "--out", str(path)]
        if self.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
        want = json.loads(proc.stdout)
        n, t, m, epsilon, q = (want[key] for key in ("rows", "t", "m", "epsilon", "q"))
        defects, allowed = want["defects"], want["allowed"]
        want_rc = 0 if defects <= allowed else 1
        want_lines = {
            f"rows={n} cols={want['cols']} v={want['v']} t={t}",
            f"min_count={want['min_count']}",
            f"defects(m={m})={defects}",
            f"apca(m={m}, epsilon={epsilon}): {'pass' if want_rc == 0 else 'FAIL'} "
            f"({defects} defective, {allowed} allowed)",
            f"completeness(q={q})={want['completeness']:.6g}",
        }
        # The file's rows against the row count the bound gives for the claim
        # it is verified against: a constant of the workload, which no change
        # to verify can move.
        self.rows_over_bound = n / self.pcaforge.bound_apca(t, want["v"], m, epsilon).n_rows

        def check(rc: int | None, stdout: str, stderr: str) -> None:
            if rc != want_rc:
                raise checks.CheckFailed(f"verify exit code {rc}, expected {want_rc}: {stderr}")
            missing = want_lines - set(stdout.splitlines())
            if missing:
                raise checks.CheckFailed(f"verify output lacks {sorted(missing)}")

        argv = ["verify", "--in", str(path), "--t", str(t), "--m", str(m),
                "--epsilon", str(epsilon), "--q", str(q)]
        return Op(argv, check)

    def round(self) -> list[Op]:
        """The ops of one round; a run is a whole number of rounds."""
        if self.workload == "mt-resample":
            t, k, v, m = (2, 8, 2, 3) if self.tiny else (3, 60, 3, 26)
            return [self.generate("mt", "mt", t, k, v, m=m, seed=seed)
                    for seed in self.builder_seeds]
        if self.workload == "develop":
            if self.tiny:
                specs = [("frobenius", 2, 10, 4, 0.1), ("cyclic", 2, 10, 3, 0.1)]
            else:
                specs = [("frobenius", 2, 60, 64, 0.05), ("frobenius", 3, 30, 8, 0.1),
                         ("cyclic", 2, 60, 16, 0.05)]
            return [self.generate(f"{alg}-{t}-{v}", alg, t, k, v, epsilon=eps, seed=seed)
                    for seed in self.builder_seeds for alg, t, k, v, eps in specs]
        if self.workload == "verify-file":
            return [self.verify_op]
        k = 6 if self.tiny else 16
        return [self.generate("derand", "derand", 2, k, 2, epsilon=0.05,
                              seed=self.rng.randrange(2**32))]


def call_cli(pcaforge, argv: list[str]) -> tuple[float, int | None, str, str]:
    """Run one op through the public entry point; returns (seconds, rc, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = pcaforge.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an op that raises is a failed op, not a failed run
            rc = None
            traceback.print_exc()
        seconds = perf_counter() - start
    return seconds, rc, out.getvalue(), err.getvalue()


def measure_setup() -> float:
    """Median wall time of a cold interpreter start plus ``import pcaforge.cli``."""
    cmd = [sys.executable, "-c", "import pcaforge.cli"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # The first start writes bytecode caches; its timeout catches a hanging
    # import.  The timed starts wait without a timeout, because waiting with
    # one polls in steps of up to 50 ms and would round every time up.
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=120)
    times = []
    for _ in range(SETUP_STARTS):
        start = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(perf_counter() - start)
    return statistics.median(times)


def environment() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def import_pcaforge():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "pcaforge" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import pcaforge
    import pcaforge.cli

    if Path(pcaforge.__file__).resolve().parent != SRC / "pcaforge":
        return None
    return pcaforge


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("mt-resample", "develop", "verify-file", "derand"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every op (self-test)")
    args = parser.parse_args(argv)

    pcaforge = import_pcaforge()
    if pcaforge is None:
        print(f"error: no pcaforge sources under {SRC}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    env = environment()
    env["loadavg_start"] = os.getloadavg()
    setup_s = measure_setup() if args.trace == 0 else None

    OUT.mkdir(exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    times: list[float] = []
    traced_times: list[float] = []
    ratios: list[float] = []
    failures: list[str] = []
    attempted = verified = 0
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        run = Run(args.workload, args.seed, args.tiny, Path(tmp), pcaforge)
        run.prepare()

        def execute(op: Op, traced: bool) -> tuple[float, bool]:
            """Run and check one op; returns its seconds and whether it held."""
            nonlocal attempted
            attempted += 1
            for path in op.writes:
                path.unlink(missing_ok=True)
            if traced:
                tracer.op = len(traced_times)
                tracer.install()
            try:
                seconds, rc, out, err = call_cli(pcaforge, op.argv)
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                seconds = tracer.op_seconds(tracer.op)
            try:
                ratio = op.check(rc, out, err)
            except (checks.CheckFailed, OSError, ValueError, KeyError) as exc:
                failures.append(f"{' '.join(op.argv[:3])}: {type(exc).__name__}: {exc}")
                return seconds, False
            if ratio is not None and not traced:
                ratios.append(ratio)
            return seconds, True

        if args.workload == "derand":
            execute(run.probe, traced=False)
        start = perf_counter()
        round_seconds: list[float] = []
        while True:
            round_start = perf_counter()
            for op in run.round():
                seconds, ok = execute(op, traced=False)
                times.append(seconds)
                verified += ok
                if tracer is not None:
                    traced_times.append(execute(op, traced=True)[0])
            round_seconds.append(perf_counter() - round_start)
            # Start another round only if it should end nearer the deadline.
            if perf_counter() - start + statistics.mean(round_seconds) / 2 >= args.seconds:
                break
        outputs = run.outputs
        refusals = run.refusals
        rows_over_bound = (statistics.mean(ratios) if ratios else run.rows_over_bound)

    env["loadavg_end"] = os.getloadavg()
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (verified / sum(times), "1/s"),
            "op_p50_s": (statistics.median(times), "s"),
            "rows_over_bound": (rows_over_bound, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        layer = tracer.layer_metrics(len(traced_times))
        metrics = {name: (value, spans.UNITS[name]) for name, value in layer.items()}
        metrics["construct.derand_refusals"] = (refusals, "count")
        metrics["trace.overhead_frac"] = (
            statistics.median(traced_times) / statistics.median(times) - 1, "ratio")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "environment": env,
        "ops": len(times), "op_seconds": times, "traced_op_seconds": traced_times,
        "failures": failures, "outputs_sha256": outputs,
    }
    if tracer is not None:
        record["span_fields"] = ["op", "name", "start", "end", "parent"]
        record["spans"] = tracer.spans
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n")
    print(json.dumps({"record": str(path.relative_to(ROOT)), "environment": env,
                      "failures": failures[:5]}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
