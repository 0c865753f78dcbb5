"""Helpers shared by the benchmark's workloads.

Every workload splits into a *parent* side (this process: makes the
inputs, starts the measured process, checks its answers) and a
*measured* process that runs the program and nothing else, so that
``peak_rss_mb`` and the timings see only the program's own work.
"""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: The checkout the benchmark runs from (``run.py`` is launched there).
ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: Scratch space for generated inputs, stores and result files.
WORK_ROOT = ROOT / ".perfbench-work"


class BenchError(RuntimeError):
    """The benchmark cannot run here (for example, no program to run)."""


def require_program():
    """Put the checkout's ``src`` first on ``sys.path`` and import the
    program from there; refuse to run against anything else."""
    package = SRC / "repro" / "__init__.py"
    if not package.is_file():
        raise BenchError(f"no program to measure: {package} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve() != package.resolve():
        raise BenchError(
            f"imported repro from {repro.__file__}, expected {package}"
        )
    return repro


def program_env(seed):
    """Environment of a measured process: the checkout's ``src`` on the
    path, and the string-hash seed pinned per benchmark seed, so one
    seed always lays out the program's sets and dicts the same way."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(seed % (2 ** 32))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def make_workdir(workload):
    path = WORK_ROOT / f"{workload}-{os.getpid()}"
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def remove_workdir(path):
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()  # only when no other run is using it
    except OSError:
        pass


def run_measured(argv, seed, timeout):
    """Run one measured child to completion; raise with its output on
    failure.  The child writes its results to a file, not stdout."""
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=program_env(seed),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        output, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{argv[0]} ran past {timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(
            f"{argv[0]} exited with {proc.returncode}:\n{output}"
        )


def percentiles_ms(values, qs=(50, 75, 90, 95, 98, 99)):
    """A latency distribution summary in ms, for the human-readable
    record: each percentile in ``qs`` with ten or more values beyond
    it."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return {f"p{q}": round(cuts[q - 1] * 1e3, 3) for q in qs
            if len(values) * (100 - q) >= 1000}


def p90_ms(latencies):
    """p90 of one run's operations, in ms: the gated ``latency_ms`` of
    the two closed-loop workloads.

    On a shared 2-vCPU virtual machine each vCPU switches between a
    fast and a slow phase (the same query takes 0.19 s or 0.32 s) for
    seconds to minutes at a time.  A closed loop's median flips between
    the two phases with the share of the run spent in each, and its
    mean slides with it; p90 sits in the slow phase whenever that phase
    covers a tenth of the run, which it nearly always does, so it is
    the steadiest figure from run to run.  Each run holds 100 or more
    operations, so ten or more lie beyond it.
    """
    return statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3


#: Set-up samples per run, all cold: the measured process's own set-up
#: plus fresh processes that repeat it.  The machine switches between
#: a fast and a slow phase every fraction of a second to a few seconds,
#: and one set-up lasts under a second, so a sample lands in one phase;
#: ``setup_s`` is the median of samples spread over the whole run.
SETUP_SAMPLES = 9


def setup_sample(script, workdir):
    """One cold set-up sample ``[import_s, rest_s]``, timed by a fresh
    ``script setup WORKDIR`` process that prints it as its last line."""
    proc = subprocess.run(
        [sys.executable, str(script), "setup", str(workdir)], cwd=ROOT,
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"{script} setup exited with {proc.returncode}:"
                         f"\n{proc.stdout}{proc.stderr}")
    return [float(x) for x in proc.stdout.split()[-2:]]


def window(seconds, take_sample, samples=SETUP_SAMPLES - 1):
    """Yield once per operation until the operations have used up
    ``seconds``.  Between operations, at ``samples`` evenly spaced
    moments of that time, call ``take_sample()``; its time does not
    count, so the window holds the same operations with or without it.
    A sample the window ends before is the caller's to take."""
    step = seconds / samples
    due = [step * (i + 0.5) for i in range(samples)]
    used = 0.0
    while used < seconds:
        started = time.perf_counter()
        yield
        used += time.perf_counter() - started
        if due and used >= due[0]:
            take_sample()
            due.pop(0)


def peak_rss_mb(pid="self"):
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for process {pid}")


def cpu_seconds(pid):
    """User plus system CPU time a live process has used, in seconds."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def digest_ticks(ticks):
    """SHA-256 of a ``(t, {object_id: (x, y)})`` tick sequence."""
    digest = hashlib.sha256()
    for t, snapshot in ticks:
        digest.update(repr((t, sorted(snapshot.items()))).encode())
    return digest.hexdigest()


def digest_bytes(data):
    return hashlib.sha256(data).hexdigest()


def source_digest():
    """SHA-256 over the program's source files: it stands in for the git
    sha in a checkout exported without its git metadata."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment():
    try:
        import numpy  # noqa: F401

        has_numpy = True
    except ImportError:
        has_numpy = False
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": has_numpy,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
    }
