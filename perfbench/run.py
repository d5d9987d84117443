"""degenbell benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  With ``--trace 0`` it is a closed loop with
one client: passes of the workload's commands run back to back for about S
seconds, each command in its own cold child process
(``python -m degenbell.cli ...``), as a user runs them.  At most one child
runs at a time.  Times are reported at a reference CPU speed (see
"Calibrated time" below); peak RSS is the median over passes.  With
``--trace 1`` it runs the same argv once each in this process, plain, with
per-layer wrappers and under tracemalloc (see layers.py), and reports the
per-layer metrics; S does not apply there.

Every command's output is checked (see workloads.py); a nonzero exit, a
wrong verdict, a cross-route mismatch, a changed output digest within the
run or a timeout counts as a failed operation.  A planted defect (the
negative control) must be caught by the same checks.  The last stdout
line is the result object; the line before it records provenance, raw
times included.  Scratch files go to .bench_build/perfbench/ under the root.

Calibrated time.  On a shared host the speed of a core drifts by up to
2x within seconds and from minute to minute, with no steal time: other
tenants slow the core itself, so user CPU time drifts as much as wall
time.  This process and its children are therefore pinned to one CPU,
and before every child and after the last one this process times a fixed
calibration loop (``calibrate``) on that CPU.  Each child's wall and CPU
time is divided by the mean of the two calibrations around it, the
median of these ratios over the run is taken per command, and the sum
over the pass is scaled by REFERENCE_CALIBRATION_S.  A reported second is
thus a second on a machine where the calibration loop takes exactly
REFERENCE_CALIBRATION_S; the program's own speed moves it one to one,
the host's drift largely cancels.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from workloads import WORKLOADS

PROBES_PER_PASS = 3
# The calibration loop's time on the machine that reported times refer to;
# about its median on a shared 2-core Xeon KVM host.
REFERENCE_CALIBRATION_S = 0.050
COMMAND_TIMEOUT_S = 60.0
RUN_BUDGET_S = 170.0  # children are killed past this, so a run exits within 180 s
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mib": "MiB",
}


def _calibration_product():
    """A fixed sparse polynomial product: exponent 4-tuples to int and
    Fraction coefficients, the same kind of work as the program's kernel
    but none of its code."""
    a = {(i, j, k, 0): (i * 7919 + j * 104729 + k) ** 3 for i in range(9) for j in range(6) for k in range(4)}
    b = {
        (i, j, 0, k): Fraction(i + 1, j + 2) if (i + j) % 3 == 0 else i * j + 1
        for i in range(6)
        for j in range(5)
        for k in range(3)
    }
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2], ka[3] + kb[3])
            out[key] = out.get(key, 0) + ca * cb
    return out


def calibrate():
    """Wall seconds of one calibration product, with the collector off."""
    gc.disable()
    try:
        start = time.perf_counter()
        _calibration_product()
        return time.perf_counter() - start
    finally:
        gc.enable()


class ChildRunner:
    """Runs one child at a time with a wall-clock timeout and rusage."""

    def __init__(self, root, scratch):
        self.root = root
        self.scratch = scratch
        # a fixed, minimal environment: no DEGENBELL_WIDTH, no hash seed noise
        self.env = {
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONPATH": os.path.join(root, "src"),
            "PYTHONHASHSEED": "0",
            "LC_ALL": "C.UTF-8",
        }
        self._pid = None
        self._timed_out = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self._pid is not None:
            self._timed_out = True
            os.kill(self._pid, signal.SIGKILL)

    def run(self, cli_args, timeout):
        """Returns (exit code, wall s, cpu s, max RSS KiB, stdout bytes, stderr text).

        Stdout comes through a pipe, not a file, so that megabytes of output
        cause no disk writeback that could slow the next command.
        """
        err_path = os.path.join(self.scratch, "stderr")
        argv = [sys.executable, "-m", "degenbell.cli", *cli_args]
        with open(err_path, "wb") as err:
            self._timed_out = False
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=err, env=self.env, cwd=self.root
            )
            self._pid = proc.pid
            signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
            try:
                stdout = proc.stdout.read()  # until EOF: the child exited or was killed
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                self._pid = None
                proc.stdout.close()
            wall = time.perf_counter() - start
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        with open(err_path, "rb") as fh:
            stderr = fh.read().decode(errors="replace")
        if self._timed_out:
            rc = -1
            stderr += f"\ntimed out after {timeout:.1f} s"
        return rc, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, stdout, stderr


def _git_commit(root):
    """HEAD read from .git without running git; None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def _loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _probe(runner, deadline):
    """One cold `degenbell --help`: interpreter start, import of degenbell.cli
    and building the parser.  Returns (wall s, ok)."""
    rc, wall, _, _, stdout, _ = runner.run(["--help"], min(COMMAND_TIMEOUT_S, deadline - time.perf_counter()))
    return wall, rc == 0 and stdout.startswith(b"usage: degenbell")


def measure(runner, workload, seconds, deadline):
    """Closed loop over whole passes for about `seconds`, at least one pass.

    Set-up probes run before every pass rather than in one burst, so that
    they sample the same spread of machine states as the passes do.  A
    calibration runs before every child and after the last one; each
    sample is returned with the mean of the two around it.
    """
    start = time.perf_counter()
    _, ok = _probe(runner, deadline)  # may compile bytecode; users pay that once
    calibrations = [calibrate()]

    def bracketed(result):
        calibrations.append(calibrate())
        return result, (calibrations[-2] + calibrations[-1]) / 2

    setup_samples, attempted, failed = [], 1, int(not ok)
    first_digests = first_errors = outputs = None
    passes, failures = [], []
    while not passes or (
        # start a pass only if a typical one still ends within `seconds`
        time.perf_counter() - start + statistics.median(p["span_s"] for p in passes) <= seconds
        and time.perf_counter() < deadline
    ):
        pass_start = time.perf_counter()
        for _ in range(PROBES_PER_PASS):
            (wall, ok), cal = bracketed(_probe(runner, deadline))
            setup_samples.append((wall, cal))
            attempted += 1
            if not ok:
                failed += 1
                failures.append({"pass": len(passes), "argv": ["--help"], "error": "setup probe failed"})
        runs, cals = [], []
        for argv in workload.commands:
            remaining = deadline - time.perf_counter()
            run, cal = bracketed(runner.run(argv, min(COMMAND_TIMEOUT_S, remaining)))
            runs.append(run)
            cals.append(cal)
        digests = [hashlib.sha256(stdout).hexdigest() + f":{rc}" for rc, *_, stdout, _ in runs]
        if first_digests is None:
            first_digests = digests
            outputs = [(rc, stdout.decode(errors="replace")) for rc, *_, stdout, _ in runs]
            first_errors = workload.check(outputs)
        for i, (run, digest) in enumerate(zip(runs, digests)):
            error = first_errors[i]
            if run[0] == -1:
                error = run[5].strip().splitlines()[-1]
            elif digest != first_digests[i]:
                error = "output differs from the first pass"
            attempted += 1
            if error:
                failed += 1
                failures.append(
                    {"pass": len(passes), "argv": list(workload.commands[i]), "error": error, "stderr": run[5][-2000:]}
                )
        passes.append(
            {
                "wall_s": sum(r[1] for r in runs),
                "cpu_s": sum(r[2] for r in runs),
                "peak_rss_mib": max(r[3] for r in runs) / 1024,
                "command_wall_s": [r[1] for r in runs],
                "command_cpu_s": [r[2] for r in runs],
                "command_calibration_s": cals,
                "span_s": time.perf_counter() - pass_start,
            }
        )
    return setup_samples, passes, attempted, failed, failures, outputs


def at_reference_speed(samples):
    """Median of time / calibration over (time, calibration) samples, in
    seconds at REFERENCE_CALIBRATION_S."""
    return statistics.median(t / cal for t, cal in samples) * REFERENCE_CALIBRATION_S


def per_command(passes, key):
    """Each command's (time, calibration) samples over the passes."""
    return [
        list(zip(times, cals))
        for times, cals in zip(zip(*(p[key] for p in passes)), zip(*(p["command_calibration_s"] for p in passes)))
    ]


def negative_control(workload, outputs):
    """The checks must report the planted defect; returns the message they gave."""
    try:
        errors = workload.check(workload.corrupt(outputs))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"control could not be built: {exc!r}", False
    caught = [e for e in errors if e]
    return (caught[0] if caught else "planted defect passed the checks"), bool(caught)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # On SIGTERM, unwind so that ChildRunner.run kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "degenbell", "cli.py")):
        print("perfbench: run from the repository root (src/degenbell/cli.py not found)", file=sys.stderr)
        return 2
    scratch = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(scratch, exist_ok=True)

    # One CPU for this process and, by inheritance, its children, so that the
    # calibrations time the core the commands run on.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    began = time.perf_counter()
    deadline = began + RUN_BUDGET_S
    workload = WORKLOADS[args.workload](args.seed)
    provenance = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "loadavg_start": _loadavg(),
        "git_commit": _git_commit(root),
        "commands": [["degenbell", *cmd] for cmd in workload.commands],
    }

    if args.trace:
        from layers import traced_run

        raw, failures, problems, record, outputs = traced_run(root, workload)
        attempted = 3 * len(workload.commands)
        failed = len(failures)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in raw.items()}
        provenance["layer_map_problems"] = problems
        trace_path = os.path.join(scratch, f"trace-{workload.name}-{args.seed}.json")
        with open(trace_path, "w") as fh:
            json.dump(record, fh, indent=1)
        provenance["trace_file"] = os.path.relpath(trace_path, root)
    else:
        runner = ChildRunner(root, scratch)
        setup_samples, passes, attempted, failed, failures, outputs = measure(
            runner, workload, args.seconds, deadline
        )
        problems = []
        # A pass at reference speed: each command's median calibrated time.
        wall_s = sum(map(at_reference_speed, per_command(passes, "command_wall_s")))
        values = {
            "setup_s": at_reference_speed(setup_samples),
            "wall_s": wall_s,
            "cpu_s": sum(map(at_reference_speed, per_command(passes, "command_cpu_s"))),
            "items_per_s": workload.items / wall_s,
            "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
        provenance["items_per_pass"] = workload.items
        provenance["reference_calibration_s"] = REFERENCE_CALIBRATION_S
        provenance["raw_median_wall_s"] = statistics.median(p["wall_s"] for p in passes)
        provenance["raw_median_setup_s"] = statistics.median(wall for wall, _ in setup_samples)
        provenance["passes"] = passes
        provenance["setup_samples_s"] = setup_samples

    control_msg, control_ok = negative_control(workload, outputs)
    provenance["negative_control"] = {"caught": control_ok, "message": control_msg}
    provenance["failures"] = failures
    provenance["loadavg_end"] = _loadavg()
    provenance["elapsed_s"] = time.perf_counter() - began
    correct = failed == 0 and control_ok and not problems
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
