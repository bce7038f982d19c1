"""What the run cost the machine, read from /proc and from Ray's session logs.

psutil is not available, so CPU time and resident memory come straight
from ``/proc/<pid>/stat`` and ``/proc/<pid>/status`` for the benchmark
process and every process below it (the Ray processes ``ray.init``
starts locally are its descendants).
"""

from __future__ import annotations

import glob
import os
import re
import shutil
import subprocess

_CLK_TCK = os.sysconf("SC_CLK_TCK")

# the two warnings that recur in every bench tail (ROADMAP item 5)
RECURRING_WARNINGS = (
    "Failed to hash the schemas",
    "has constructor arguments in the object store and max_restarts > 0",
)


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            raw = f.read()
    except OSError:  # the process ended while we walked /proc
        return None
    # comm may hold spaces; the fields after it start past the last ')'
    return raw[raw.rfind(")") + 2 :].split()


def process_tree(root: int | None = None) -> list[int]:
    """``root`` (default: this process) and all its live descendants."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                children.setdefault(int(fields[1]), []).append(int(entry))
    tree, todo = [], [root]
    while todo:
        pid = todo.pop()
        tree.append(pid)
        todo.extend(children.get(pid, ()))
    return tree


def cpu_seconds() -> dict[int, float]:
    """pid -> user+system CPU seconds, own plus reaped children's, for the tree."""
    out = {}
    for pid in process_tree():
        fields = _stat_fields(pid)
        if fields is not None:
            # utime, stime, cutime, cstime are stat fields 14-17
            out[pid] = sum(int(v) for v in fields[11:15]) / _CLK_TCK
    return out


def cpu_delta(before: dict[int, float], after: dict[int, float]) -> float:
    """CPU seconds the tree spent between two ``cpu_seconds`` snapshots."""
    return sum(v - before.get(pid, 0.0) for pid, v in after.items())


def peak_rss_mb() -> float:
    """Sum over the live tree of each process's peak resident set (VmHWM)."""
    total_kb = 0
    for pid in process_tree():
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024


def machine() -> dict:
    """CPU counts the run saw: ``nproc`` (honours OMP_NUM_THREADS) and the
    affinity mask."""
    nproc = None
    if shutil.which("nproc"):
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True, check=True).stdout)
    return {"nproc": nproc, "affinity_cpus": len(os.sched_getaffinity(0))}


def _log_files(session_dir: str) -> list[str]:
    """Worker stderr and core-worker logs of the session. Ray Data also
    copies each of its warnings into logs/ray-data/*.log; those copies are
    left out so that every warning counts once."""
    return [
        p
        for p in glob.glob(os.path.join(session_dir, "logs", "**", "*"), recursive=True)
        if os.path.isfile(p)
        and (
            (os.path.basename(p).startswith("worker-") and p.endswith(".err"))
            or (os.path.basename(p).startswith("python-core-") and p.endswith(".log"))
        )
    ]


def recurring_warnings(session_dir: str) -> int:
    """Lines in the session's logs that carry one of ``RECURRING_WARNINGS``."""
    n = 0
    for path in _log_files(session_dir):
        with open(path, errors="replace") as f:
            n += sum(1 for line in f if any(w in line for w in RECURRING_WARNINGS))
    return n


def spilled_mb(session_dir: str) -> float:
    """MiB the raylet spilled from the object store in this session (its
    ``Spilled N MiB`` lines are running totals; 0 when it never spilled)."""
    best = 0.0
    for path in glob.glob(os.path.join(session_dir, "logs", "raylet.out*")):
        with open(path, errors="replace") as f:
            for m in re.finditer(r"Spilled (\d+) MiB", f.read()):
                best = max(best, float(m.group(1)))
    return best
