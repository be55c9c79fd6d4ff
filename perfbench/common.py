"""Process set-up shared by the workloads: pinned BLAS threads, paths
inside the checkout, the machine record, and child-process cleanup."""

from __future__ import annotations

import atexit
import contextlib
import hashlib
import io
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time

BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _BLAS_VARS:  # before numpy loads, here and in every child
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")  # results, spans and scratch; git-ignored


class ProgramMissing(RuntimeError):
    pass


def require_program() -> None:
    """The benchmark runs the program from source in its own checkout."""
    if not os.path.isfile(os.path.join(SRC, "talentrank", "cli.py")):
        raise ProgramMissing(f"no talentrank sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> dict:
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join([SRC, BENCH_DIR])
    return env


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "talentrank")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def _commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_record() -> dict:
    """What a comparison must hold equal: interpreter, numpy and BLAS with
    its pinned thread count, cores, and the embedding kernel path."""
    import numpy as np
    from talentrank import _kernels

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "nproc": nproc(),
        "kernel_path": "numba" if _kernels.NUMBA_ENABLED else "numpy",
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


def peak_rss_mb_self() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_pid(pid: int) -> float:
    """High-water resident set of a live child, from /proc."""
    with open(f"/proc/{pid}/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


_children: list = []


def track(proc: subprocess.Popen) -> subprocess.Popen:
    _children.append(proc)
    return proc


def stop(proc: subprocess.Popen, timeout: float = 20.0) -> None:
    """Ask a child to stop, kill it if it does not, and reap it."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for stream in (proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()
    if proc in _children:
        _children.remove(proc)


@atexit.register
def stop_all() -> None:
    for proc in list(_children):
        stop(proc, timeout=5.0)


@contextlib.contextmanager
def workspace(label: str):
    """A fresh directory for one run's artifacts, removed afterwards; the
    program's `<path>.tmp` writes never meet another run's."""
    base = os.path.join(OUT, "tmp")
    os.makedirs(base, exist_ok=True)
    path = tempfile.mkdtemp(prefix=f"{label}-", dir=base)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


class StageFailed(RuntimeError):
    pass


def cli_stage(argv: list, tracer=None) -> float:
    """Run one `talentrank` subcommand in process; returns its wall time.
    Parsing, loading and the atomic writes are all inside the timing."""
    from talentrank import cli

    sink = io.StringIO()
    span = tracer.span(f"stage.{argv[0]}") if tracer else contextlib.nullcontext()
    with span, contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        rc = cli.run(argv)
        elapsed = time.perf_counter() - start
    if rc != 0:
        raise StageFailed(f"talentrank {' '.join(argv[:1])} exited {rc}")
    return elapsed


def timed_passes(seconds: float, run_pass) -> list:
    """Call `run_pass(i)` until the next call would end past `seconds` (at
    least once) and collect what it returns, the time of its measured
    unit; the projection uses the slowest whole call so far."""
    times = []
    slowest = 0.0
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        times.append(run_pass(len(times)))
        slowest = max(slowest, time.perf_counter() - began)
        if time.perf_counter() - start + slowest > seconds:
            return times
