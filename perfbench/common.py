"""Shared pieces of the benchmark: paths, run metadata, the span
recorder used by traced runs, and percentile and RSS helpers.

Nothing here imports the program under test at module level, so the
benchmark can report a missing program source before touching it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Iterator, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for the daemon's cache, traces and the counted-work
#: ledger; ignored by git and wiped per run where a cold start matters.
WORK = HERE / "_work"

#: Wall-clock backstop for one solve.  Fact budgets decide what is
#: decided; this only keeps a pathological input from wedging a run
#: (the kernel restarts its deadline clock on the retaint drain, so it
#: is not a budget, see NOTES.md).
BACKSTOP_SECONDS = 60.0


def program_present() -> bool:
    """True when the checkout holds the program the benchmark drives."""
    return (SRC / "repro" / "__init__.py").is_file()


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def source_digest() -> str:
    """Content hash of the program's Python sources: identifies the
    code in checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit_id() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_metadata(workload: str, seed: int, k: str, fact_budget: int) -> dict:
    """The fields recorded in every printed row."""
    return {
        "workload": workload,
        "commit": commit_id(),
        "source_digest": source_digest(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "seed": seed,
        "k": k,
        "fact_budget": fact_budget,
    }


def tail_percentile(values: list[float], q: float) -> Optional[float]:
    """The ``q`` quantile (nearest rank), or None unless at least ten
    samples lie beyond it."""
    n = len(values)
    if n == 0 or n * (1.0 - q) < 10:
        return None
    return sorted(values)[max(0, math.ceil(q * n) - 1)]


def peak_rss_mb_self() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Tracer:
    """In-memory spans (name, start, end, parent), written out at the
    end of a traced run as Chrome trace-event JSON."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus the part its direct
        children cover (children of one span never overlap)."""
        covered = [0.0] * len(self.spans)
        for record in self.spans:
            if record["parent"] is not None:
                covered[record["parent"]] += record["end"] - record["start"]
        totals: dict[str, float] = {}
        for index, record in enumerate(self.spans):
            own = record["end"] - record["start"] - covered[index]
            totals[record["name"]] = totals.get(record["name"], 0.0) + own
        return totals

    def chrome_trace(self) -> dict:
        pid = os.getpid()
        events = [
            {
                "name": record["name"],
                "cat": record["name"].split(".")[0],
                "ph": "X",
                "ts": round((record["start"] - self._origin) * 1e6, 3),
                "dur": round((record["end"] - record["start"]) * 1e6, 3),
                "pid": pid,
                "tid": 0,
                "args": {"id": index, "parent": record["parent"]},
            }
            for index, record in enumerate(self.spans)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


class NullTracer:
    """The untraced runs' stand-in: spans cost one no-op context."""

    def span(self, name: str):
        return nullcontext()
