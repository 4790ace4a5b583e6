"""End-to-end benchmark of the ``slideprov`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is taken from
``src/``).  One generator process, with no threads, builds the workload's
inputs from the seed, then runs whole rounds of ``slideprov`` commands,
one process at a time, until they have run for ``--seconds``.  Every command's
exit code and report files are checked.  The last line of standard output
is a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1`` (commands then run under ``tracer.py``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer
from workloads import WORKLOADS

LAUNCH = "import sys; from slideprov.cli import main; sys.exit(main())"
COMMAND_TIMEOUT_S = 120
SETUP_SAMPLES = 3


class SetupFailed(Exception):
    pass


class CommandTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise CommandTimeout


class Runner:
    """Starts each command, waits for it, and keeps the run's tallies."""

    def __init__(self, src: Path, work: Path, trace: bool) -> None:
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("SLIDEPROV_")}
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        self.work = work
        self.trace = tracer.Totals() if trace else None
        self.log = work / "commands.log"
        self.attempted = self.failed = 0
        self.correct = True
        self.spent_s = 0.0  # every timed command; wall_s only those that passed
        self.wall_s = 0.0
        self.command_s: dict[str, list[float]] = {}
        self.slides = 0
        self.peak_rss_kb = 0

    def _spawn(self, cwd: Path, argv: list[str]) -> tuple[int, float, int, int]:
        """Run one command; return its exit code, wall time, max RSS (KB) and spawn time."""
        if self.trace is not None:
            cmd = [sys.executable, str(Path(__file__).with_name("tracer.py")),
                   str(self.work / "spans.bin"), *argv]
        else:
            cmd = [sys.executable, "-c", LAUNCH, *argv]
        with open(self.log, "ab") as log:
            log.write(f"$ slideprov {' '.join(argv)}\n".encode())
            log.flush()
            spawn_ns = time.time_ns()
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=cwd, env=self.env, stdout=log, stderr=log)
            signal.alarm(COMMAND_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except CommandTimeout:
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.alarm(0)
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, elapsed, usage.ru_maxrss, spawn_ns

    def setup_command(self, cwd: Path, argv: list[str]) -> None:
        """A command that builds inputs: untallied, and it must succeed."""
        code, _, _, _ = self._spawn(cwd, argv)
        if code != 0:
            tail = self.log.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise SetupFailed(f"set-up command {argv[0]} exited {code}:\n{tail}")

    def run(self, cwd: Path, argv: list[str], slides: int, check) -> None:
        """One timed command over ``slides`` slides that must exit 0, then ``check``
        of its outputs.  Only a command that passes both counts in the metrics."""
        code, elapsed, rss_kb, spawn_ns = self._spawn(cwd, argv)
        self.attempted += 1
        self.spent_s += elapsed
        try:
            if code != 0:
                raise checks.CheckFailed(f"exit {code}")
            check()
        except checks.CheckFailed as exc:
            self.failed += 1
            self.correct = False
            print(f"FAILED {argv[0]}: {exc}", file=sys.stderr)
            if self.trace is not None:
                for leftover in (self.work / "spans.bin", self.work / "spans.bin.json"):
                    leftover.unlink(missing_ok=True)
            return
        self.wall_s += elapsed
        self.command_s.setdefault(argv[0], []).append(elapsed)
        self.slides += slides
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        if self.trace is not None:
            self.trace.add(self.work / "spans.bin", argv[0], spawn_ns)


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(args: argparse.Namespace, src: Path, work: Path) -> dict:
    runner = Runner(src, work, bool(args.trace))
    warm = subprocess.run([sys.executable, "-c", "import slideprov.cli"], env=runner.env, cwd=work)
    if warm.returncode != 0:
        raise SetupFailed("cannot import slideprov.cli from the checkout")

    # Inputs are built before the first round and rebuilt in place before
    # every later round (and after the last, up to SETUP_SAMPLES builds).
    # The median of the builds is then not set by one slow build, usually
    # the first, which creates the files, and the builds sample the
    # machine's speed across the run the way the commands do.
    workload = WORKLOADS[args.workload](args.seed)
    inputs = work / "inputs"
    setup_s: list[float] = []

    def build() -> None:
        start = time.perf_counter()
        workload.setup(inputs, runner)
        setup_s.append(time.perf_counter() - start)

    build()
    try:
        workload.prepare()
    except checks.CheckFailed as exc:
        raise SetupFailed(f"set-up output is wrong: {exc}") from exc

    rounds = 0
    while rounds == 0 or runner.spent_s < args.seconds:
        if rounds and not args.trace:
            build()
        workload.round(runner)
        rounds += 1
    while not args.trace and len(setup_s) < SETUP_SAMPLES:
        build()

    if runner.trace is not None:
        metrics = tracer.layer_metrics(runner.trace, rounds)
        metrics["cli.wall_s"] = (runner.wall_s / rounds, "s")
    else:
        metrics = {
            "slides_per_s": (runner.slides / runner.wall_s if runner.wall_s else 0.0, "slides/s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (runner.peak_rss_kb / 1024, "MB"),
        }
    print(f"{args.workload} seed {args.seed}: {rounds} rounds, {runner.attempted} commands,"
          f" {runner.failed} failed, {runner.spent_s:.2f} s in commands;"
          f" first set-up {setup_s[0]:.3f} s, all set-ups {', '.join(f'{s:.3f}' for s in setup_s)} s")
    for command, times in runner.command_s.items():
        print(f"  {command:14s} {len(times):3d} x, median {statistics.median(times):.3f} s,"
              f" total {sum(times):.3f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    return {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "slideprov" / "cli.py").is_file():
        print(f"error: no slideprov sources under {src}; run from a checkout's root", file=sys.stderr)
        return 2
    work = root / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    # The generator makes no reference cycles; collections would only add
    # noise to set-up times.
    gc.disable()
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        result = measure(args, src, work)
    except (SetupFailed, CommandTimeout) as exc:
        print(f"error: {exc or 'a command ran past its time limit'}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
