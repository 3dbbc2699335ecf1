"""End-to-end benchmark of the starpart CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's instances from the seed, then either (trace 0)
times the ``starpart`` commands as separate processes for S seconds of
whole rounds, or (trace 1) runs the same commands once in a traced child
process.  Every answer is checked by ``checks.py``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import checks
import instances
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

CHILD_TIMEOUT_S = 150

# workload -> (objective checked, extra solve flags)
WORKLOADS = {
    "star-sparse": ("star", []),
    "ind-dense-cap": ("ind", ["--objective", "ind"]),
    "hyper-dfs": ("star", ["--algo", "dfs"]),
    "approx-wind": ("approx", []),
}

# Imports the CLI and parses every file: what each command pays before its algorithm.
SETUP_CODE = (
    "import sys, starpart.cli\n"
    "from starpart.instance_io import parse_instance\n"
    "for path in sys.argv[1:]:\n"
    "    with open(path, encoding='utf-8') as fh:\n"
    "        parse_instance(fh.read())\n"
)


class Child:
    """Runs ``python3 ARGS`` with starpart on the path, one process at a time."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.attempted = 0
        self.failed = 0

    def run(self, args: list[str]) -> tuple[float, int, float, str]:
        """Wall seconds, exit code, peak RSS in MB and output of one child."""
        self.attempted += 1
        out_path = self.workdir / "child.out"
        with open(out_path, "wb") as out:
            start = time.perf_counter()
            pid = os.posix_spawn(
                sys.executable,
                [sys.executable] + args,
                self.env,
                file_actions=[
                    (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                    (os.POSIX_SPAWN_DUP2, out.fileno(), 2),
                ],
            )
            status, usage = _wait(pid)
            elapsed = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            self.failed += 1
        return elapsed, code, usage.ru_maxrss / 1024.0, out_path.read_text(encoding="utf-8")


def _alarm(signum, frame):
    raise TimeoutError("a child process ran too long")


def _wait(pid: int):
    """Reap one child with its own resource usage; kill it if it hangs."""
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
    except TimeoutError:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        signal.alarm(0)
    return status, usage


def _solution_path(workdir: Path, i: int) -> Path:
    return workdir / f"solution{i}.sol"


def prepare(workload: str, seed: int, workdir: Path) -> tuple[list, list[dict]]:
    """Write the instance files and return the instances and their jobs.

    A job is a solve command and a verify command (starpart arguments);
    ``{value}`` in a verify command stands for the value the solve printed.
    """
    objective, flags = WORKLOADS[workload]
    insts = instances.GENERATORS[workload](seed)
    jobs = []
    for i, inst in enumerate(insts):
        path = workdir / f"instance{i}.txt"
        path.write_text(instances.format_instance(inst), encoding="utf-8")
        if objective == "approx":
            # approx writes no solution, so verify checks the MILP optimum.
            opt, heads = checks.wind_optimum(inst)
            inst.optimum = opt
            ref = workdir / f"optimum{i}.sol"
            ref.write_text(checks.format_heads(inst, heads, opt), encoding="utf-8")
            solve = ["approx", str(path), "--objective", "wind"]
            verify = ["verify", str(path), str(ref), "--objective", "ind", "--bound", str(opt)]
        else:
            sol = _solution_path(workdir, i)
            solve = ["solve", str(path), "--out", str(sol)] + flags
            verify = ["verify", str(path), str(sol), "--bound", "{value}"]
            if objective == "ind":
                verify += ["--objective", "ind"]
        jobs.append({"solve": solve, "verify": verify})
    return insts, jobs


class Checker:
    """Checks each job's outputs; optimality proofs are made once per value."""

    def __init__(self, workload: str, insts, workdir: Path):
        self.objective = WORKLOADS[workload][0]
        self.insts = insts
        self.workdir = workdir
        self.proved: set[tuple[int, int]] = set()

    def solve(self, i: int, output: str) -> int:
        inst = self.insts[i]
        printed = checks.read_value(output)
        if self.objective == "approx":
            checks.check_approx(printed, inst.optimum)
            return printed
        text = _solution_path(self.workdir, i).read_text(encoding="utf-8")
        value = checks.check_witness(inst, text, self.objective, printed)
        if (i, value) not in self.proved:
            checks.check_optimal(inst, self.objective, value)
            self.proved.add((i, value))
        if inst.planted_max is not None and value > inst.planted_max:
            raise checks.CheckFailed(f"value {value} above the planted maximum {inst.planted_max}")
        return value

    def verify(self, i: int, value: int, output: str) -> None:
        optimum = self.insts[i].optimum
        expected = value if optimum is None else optimum
        if f"ok value {expected}" not in output.splitlines():
            raise checks.CheckFailed(f"verify did not confirm value {expected}: {output!r}")

    def approx_orientation(self, i: int, heads: list[int], value: int) -> None:
        inst = self.insts[i]
        if checks.weighted_ind_value(inst, heads) != value:
            raise checks.CheckFailed("approx2_wind's orientation does not give its value")
        checks.check_approx(value, inst.optimum)


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise checks.CheckFailed(what)


def _command(argv: list[str], value: int | None = None) -> list[str]:
    args = [str(value) if a == "{value}" else a for a in argv]
    return ["-m", "starpart.cli"] + args


def timed_run(child: Child, workload: str, insts, jobs, workdir: Path, seconds: float) -> dict:
    checker = Checker(workload, insts, workdir)
    files = [str(workdir / f"instance{i}.txt") for i in range(len(insts))]
    setup_cmd = ["-c", SETUP_CODE] + files

    # One untimed pass fills the bytecode and file caches.
    _, code, _, out = child.run(setup_cmd)
    _require(code == 0, f"set-up process failed: {out}")

    # Each round sets up once and runs every job, so set-up samples are
    # spread over the run like the command samples.
    setup = []
    solve_t = [[] for _ in jobs]
    verify_t = [[] for _ in jobs]
    peak_mb = 0.0
    start = time.perf_counter()
    while True:
        elapsed, code, _, out = child.run(setup_cmd)
        _require(code == 0, f"set-up process failed: {out}")
        setup.append(elapsed)
        for i, job in enumerate(jobs):
            elapsed, code, rss, out = child.run(_command(job["solve"]))
            _require(code == 0, f"solve exited {code}: {out}")
            value = checker.solve(i, out)
            solve_t[i].append(elapsed)
            peak_mb = max(peak_mb, rss)
            elapsed, code, _, out = child.run(_command(job["verify"], value))
            _require(code == 0, f"verify exited {code}: {out}")
            checker.verify(i, value, out)
            verify_t[i].append(elapsed)
        if time.perf_counter() - start >= seconds:
            break

    solve_s = sum(statistics.median(t) for t in solve_t)
    metrics = {
        "solve_s": (solve_s, "s"),
        "verify_s": (sum(statistics.median(t) for t in verify_t), "s"),
        "edges_per_s": (sum(inst.m for inst in insts) / solve_s, "edges/s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    return _result(child.attempted, child.failed, metrics)


def traced_run(child: Child, workload: str, insts, jobs, workdir: Path) -> dict:
    checker = Checker(workload, insts, workdir)
    plan = workdir / "plan.json"
    record_path = workdir / "trace.json"
    plan.write_text(json.dumps({"jobs": jobs}), encoding="utf-8")
    _, code, _, out = child.run([str(BENCH_DIR / "tracer.py"), str(plan), str(record_path)])
    _require(code == 0, f"traced run exited {code}: {out}")
    record = json.loads(record_path.read_text(encoding="utf-8"))

    # Both passes ran every command; the files on disk are the traced pass's.
    attempted = child.attempted + len(record["untraced_out"]) + len(record["traced_out"])
    for _, rc, output in record["untraced_out"] + record["traced_out"]:
        _require(rc == 0, f"in-process command returned {rc}: {output}")
    outputs = record["traced_out"]
    for i in range(len(jobs)):
        value = checker.solve(i, outputs[2 * i][2])
        checker.verify(i, value, outputs[2 * i + 1][2])
    if checker.objective == "approx":
        seen = len(record["approx_results"])
        _require(seen == len(jobs), f"approx2_wind ran {seen} times for {len(jobs)} instances")
        for i, (heads, value) in enumerate(record["approx_results"]):
            checker.approx_orientation(i, heads, value)
    return _result(attempted, 0, tracer.layer_metrics(record))


def _result(attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "starpart" / "cli.py").is_file():
        print(f"error: no starpart sources under {SRC}", file=sys.stderr)
        return 2

    workdir = OUT / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    child = Child(workdir)
    try:
        insts, jobs = prepare(args.workload, args.seed, workdir)
        if args.trace:
            result = traced_run(child, args.workload, insts, jobs, workdir)
        else:
            result = timed_run(child, args.workload, insts, jobs, workdir, args.seconds)
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        failed = max(child.failed, 1)
        print(json.dumps(_result(max(child.attempted, failed), failed, {}) | {"correct": False}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
