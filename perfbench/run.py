"""End-to-end benchmark of the conesing CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is the checkout's own
``src/conesing``, launched as ``python3 -m conesing`` with ``src`` on
PYTHONPATH, one process per command (closed loop, one client).

``--trace 0`` times the workload's command list as subprocesses.  It
repeats the whole command list while another pass still fits in
``--seconds`` (at least one pass), and launches ``conesing --version``
before the first pass and after each pass: ``setup_s`` is the median
of these launches, the start-up every command pays.  Each command's
wall time, CPU time (user + system time of the command and every
process it waited for, such as ``enumerate --jobs`` workers) and peak
RSS (largest of one process of its tree) is the median over passes;
``wall_s`` and ``cpu_s`` sum these over the command list and
``peak_rss_mb`` is their largest.  ``ok_ratio`` is the share of
commands that exited 0 within the per-command timeout and passed their
output oracle (``oracles.py``).  Child processes run with
``OPENBLAS_NUM_THREADS=1``.

``--trace 1`` runs the same command list in this process through
``conesing.cli.main(argv)``, with ``enumerate --jobs 1``: once plainly,
then once with the timing wrappers of ``tracer.py`` installed.  It
reports the per-layer metrics of ``tracer.LAYER_METRICS`` and writes
every span to ``.bench_work/spans-<workload>-seed<seed>.tsv``.

The line before the result is a JSON record of the machine, the
inputs, the command lists, per-kind times and the sha256 of every
command's stdout.  The last line is the result object.  ``--smoke``
swaps in tiny inputs for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from oracles import Checker, artin_embedding_dimension
from tracer import LAYER_METRICS, Tracer, layer_metrics
from workloads import WORKLOADS, Command, Workload, build, cpu_count, write_files

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_BASE = ".bench_work"
SETUP_LAUNCHES = 5           # before the first pass, then 2 after each pass
IMPORT_LAUNCHES = 3
COMMAND_TIMEOUT_S = 90.0
RUN_DEADLINE_S = 160.0      # no command starts or runs past this point
E2E_METRICS = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
               ("peak_rss_mb", "MB"), ("ok_ratio", "ratio"))


class CommandTimeout(BaseException):
    """Raised in-process when a traced command overruns its timeout."""


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: Optional[int]           # None when the command was not run
    timed_out: bool
    stdout: str
    stderr: str


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("CONESING_SEED", None)
    # numpy's BLAS would start one spinning thread per CPU in every
    # command; the program does no BLAS work, so one thread suffices
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def launch(argv: List[str], env: Dict[str, str], timeout: float,
           out_path: str) -> Outcome:
    """Run ``python3 -m conesing argv`` in its own process group.

    The group is killed when the timeout expires.  ``os.wait4`` gives
    the rusage of the command together with every child it waited for.
    """
    err_path = out_path + ".err"
    timed_out = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "conesing", *argv],
                                stdout=out, stderr=err, env=env, cwd=ROOT,
                                start_new_session=True)

        def kill():
            timed_out.set()
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    # stray members of the group (none unless a command leaks workers)
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(proc.pid, signal.SIGKILL)
    with open(out_path, "r", encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, "r", encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Outcome(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                   rss_mb=usage.ru_maxrss / 1024.0, code=proc.returncode,
                   timed_out=timed_out.is_set(), stdout=stdout, stderr=stderr)


def skipped() -> Outcome:
    return Outcome(0.0, 0.0, 0.0, None, False, "", "skipped: run deadline")


class Runner:
    def __init__(self, workload: Workload, work: str, t_start: float):
        self.workload = workload
        self.work = work
        self.t_start = t_start
        self.env = child_env()

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.t_start)

    def timeout(self) -> float:
        return min(COMMAND_TIMEOUT_S, self.remaining())

    def subprocess_pass(self) -> List[Outcome]:
        outcomes = []
        for i, cmd in enumerate(self.workload.commands):
            if self.remaining() <= 0:
                outcomes.append(skipped())
                continue
            outcomes.append(launch(cmd.argv, self.env, self.timeout(),
                                   os.path.join(ROOT, self.work, f"cmd{i}.out")))
        return outcomes

    def in_process_pass(self, cli, tracer=None) -> List[Outcome]:
        outcomes = []
        for i, cmd in enumerate(self.workload.commands):
            if self.remaining() <= 0:
                outcomes.append(skipped())
                continue
            outcomes.append(self._in_process(cli, i, cmd, tracer))
            with open(os.path.join(ROOT, self.work, f"cmd{i}.out"), "w",
                      encoding="utf-8") as fh:
                fh.write(outcomes[-1].stdout)
        return outcomes

    def _in_process(self, cli, index: int, cmd: Command, tracer) -> Outcome:
        argv = in_process_argv(cmd)
        out, err = io.StringIO(), io.StringIO()
        timed_out = False
        code: Optional[int] = None

        def on_alarm(signum, frame):
            raise CommandTimeout()

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, max(self.timeout(), 0.001))
        if tracer is not None:
            tracer.command = index
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)    # looked up per call: traced or not
        except CommandTimeout:
            timed_out = True
        except Exception as exc:        # an escaped library error is a failure
            err.write(f"uncaught {type(exc).__name__}: {exc}\n")
            code = 1
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        return Outcome(wall_s=wall, cpu_s=0.0, rss_mb=0.0, code=code,
                       timed_out=timed_out, stdout=out.getvalue(),
                       stderr=err.getvalue())


def in_process_argv(cmd: Command) -> List[str]:
    """The traced run evaluates catalogs serially, in this process."""
    argv = list(cmd.argv)
    if cmd.kind == "enumerate" and "--jobs" in argv:
        argv[argv.index("--jobs") + 1] = "1"
    return argv


def judge(workload: Workload, checker: Checker,
          outcomes: List[Outcome]) -> List[Optional[str]]:
    """A failure reason per command, or None when it succeeded."""
    texts = {i: o.stdout for i, o in enumerate(outcomes)}
    reasons: List[Optional[str]] = []
    for i, (cmd, o) in enumerate(zip(workload.commands, outcomes)):
        if o.code is None:
            reasons.append(o.stderr)
        elif o.timed_out:
            reasons.append("timed out")
        elif o.code != 0:
            reasons.append(f"exit code {o.code}: {o.stderr.strip()[-300:]}")
        else:
            reasons.append(checker.check(cmd, o.stdout, texts))
    return reasons


def resolve_references(runner: Runner) -> Dict[str, int]:
    """Artin embedding dimensions of the presentation couples, from the
    blown-down graph ``resolve`` prints (set-up, not timed)."""
    embdims = {}
    for name, path in runner.workload.presentation_refs.items():
        o = launch(["resolve", "--couple", path], runner.env, runner.timeout(),
                   os.path.join(ROOT, runner.work, f"ref-{name}.out"))
        if o.code != 0 or o.timed_out:
            raise RuntimeError(f"resolve on {path} failed at set-up: {o.stderr}")
        embdims[name] = artin_embedding_dimension(json.loads(o.stdout)["blown_down"])
    return embdims


def launch_times(argv: List[str], env: Dict[str, str], count: int,
                  out_path: str) -> List[float]:
    times = []
    for _ in range(count):
        o = launch(argv, env, COMMAND_TIMEOUT_S, out_path)
        if o.code != 0:
            raise RuntimeError(f"set-up launch {argv} failed: {o.stderr}")
        times.append(o.wall_s)
    return times


def import_times(env: Dict[str, str], count: int) -> List[float]:
    code = ("import time; t = time.perf_counter(); import conesing.cli; "
            "print(time.perf_counter() - t)")
    out = []
    for _ in range(count):
        r = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                           capture_output=True, text=True, timeout=60, check=True)
        out.append(float(r.stdout))
    return out


def machine_record() -> dict:
    from importlib import metadata
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "conesing")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"nproc": cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "numpy": numpy_version,
            "commit": commit, "src_sha256": digest.hexdigest()}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def failure_lines(workload: Workload, reasons: List[Optional[str]]) -> List[str]:
    """One line per failed command; reasons cover one or more passes."""
    n = len(workload.commands)
    return [f"{' '.join(workload.commands[i % n].argv)}: {r}"
            for i, r in enumerate(reasons) if r is not None]


def per_kind(workload: Workload, walls: List[float]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for cmd, wall in zip(workload.commands, walls):
        out[cmd.kind] = out.get(cmd.kind, 0.0) + wall
    return out


def timed_run(runner: Runner, checker: Checker, seconds: float, record: dict):
    work_out = os.path.join(ROOT, runner.work, "setup.out")
    launch(["--version"], runner.env, COMMAND_TIMEOUT_S, work_out)  # warm caches
    setup = launch_times(["--version"], runner.env, SETUP_LAUNCHES, work_out)
    passes: List[List[Outcome]] = []
    reasons: List[Optional[str]] = []
    t0 = time.perf_counter()
    while True:
        outcomes = runner.subprocess_pass()
        passes.append(outcomes)
        reasons.extend(judge(runner.workload, checker, outcomes))
        setup += launch_times(["--version"], runner.env, 2, work_out)
        elapsed = time.perf_counter() - t0
        last = sum(o.wall_s for o in outcomes)
        if elapsed + last > seconds or runner.remaining() < 2 * last:
            break
    # per command, the median over passes: one slow stretch of the host
    # moves a single sample, not the sum
    by_command = list(zip(*passes))
    walls = [statistics.median(o.wall_s for o in runs) for runs in by_command]
    failed = sum(r is not None for r in reasons)
    attempted = len(reasons)
    record.update({
        "passes": len(passes),
        "setup_samples_s": setup,
        "pass_wall_s": [sum(o.wall_s for o in p) for p in passes],
        "command_wall_s": [[o.wall_s for o in runs] for runs in by_command],
        "command_cpu_s": [[o.cpu_s for o in runs] for runs in by_command],
        "per_kind_wall_s": per_kind(runner.workload, walls),
        "stdout_sha256": [sha256(o.stdout) for o in passes[-1]],
        "failures": failure_lines(runner.workload, reasons),
    })
    values = {"setup_s": statistics.median(setup),
              "wall_s": sum(walls),
              "cpu_s": sum(statistics.median(o.cpu_s for o in runs)
                           for runs in by_command),
              "peak_rss_mb": max(statistics.median(o.rss_mb for o in runs)
                                 for runs in by_command),
              "ok_ratio": (attempted - failed) / attempted}
    return attempted, failed, {name: (values[name], unit)
                               for name, unit in E2E_METRICS}


def traced_run(runner: Runner, checker: Checker, record: dict):
    imports = import_times(runner.env, IMPORT_LAUNCHES)
    sys.path.insert(0, SRC)
    from conesing import cli
    plain = runner.in_process_pass(cli)
    reasons = judge(runner.workload, checker, plain)
    tracer = Tracer()
    tracer.install()
    try:
        traced = runner.in_process_pass(cli, tracer)
    finally:
        tracer.uninstall()
    reasons += judge(runner.workload, checker, traced)
    spans_path = os.path.join(ROOT, WORK_BASE, f"spans-{runner.workload.name}"
                              f"-seed{runner.workload.seed}.tsv")
    tracer.write_spans(spans_path)
    values = layer_metrics(
        tracer, statistics.median(imports),
        traced_wall=sum(o.wall_s for o in traced),
        untraced_wall=sum(o.wall_s for o in plain),
        kind_times=per_kind(runner.workload, [o.wall_s for o in plain]))
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    record.update({
        "spans_file": os.path.relpath(spans_path, ROOT),
        "import_samples_s": imports,
        "stdout_sha256": [sha256(o.stdout) for o in traced],
        "failures": failure_lines(runner.workload, reasons),
    })
    metrics = {name: (values[name], units[name]) for name in units}
    failed = sum(r is not None for r in reasons)
    return len(reasons), failed, metrics


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    t_start = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "conesing", "__init__.py")):
        print(f"perfbench: no conesing package under {SRC}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    work = os.path.join(WORK_BASE, f"{args.workload}-seed{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        workload = build(args.workload, args.seed, work, smoke=args.smoke)
        write_files(workload, ROOT)
        runner = Runner(workload, work, t_start)
        checker = Checker(resolve_references(runner))
        record = {"workload": workload.name, "seed": workload.seed,
                  "smoke": args.smoke, "trace": args.trace,
                  "machine": machine_record(),
                  "closed_loop": "one client, one command at a time",
                  "command_timeout_s": COMMAND_TIMEOUT_S,
                  "commands": [["conesing", *c.argv] for c in workload.commands]}
        if args.trace:
            attempted, failed, metrics = traced_run(runner, checker, record)
        else:
            attempted, failed, metrics = timed_run(runner, checker,
                                                   args.seconds, record)
    finally:
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
