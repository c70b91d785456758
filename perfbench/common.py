"""Shared plumbing: paths, seed derivation, statistics and the run record."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for store files; inside the checkout, listed in .gitignore.
WORK = os.path.join(ROOT, ".perfbench_work")


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (e.g. the program's sources are missing)."""


def ensure_repro_importable() -> None:
    """Put ``src`` on the import path, or fail when the program is absent."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchmarkError(f"no repro package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def work_dir(name: str) -> str:
    """A fresh scratch directory under the checkout's work area."""
    path = os.path.join(WORK, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ----------------------------------------------------------------------
# Seeds
# ----------------------------------------------------------------------
def derive_seed(seed: int, *labels: Any) -> int:
    """A 63-bit seed derived from the workload seed and a label path.

    Every input of every workload comes from here, so one workload seed
    fixes the whole run and distinct labels never share a stream.
    """
    text = json.dumps([int(seed), *labels], sort_keys=True)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def make_rng(seed: int, *labels: Any):
    import numpy as np

    return np.random.default_rng(derive_seed(seed, *labels))


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sample."""
    if not len(values):
        return 0.0
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)



def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def environment() -> Dict[str, Any]:
    """The machine facts recorded with every result."""
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
    }


# ----------------------------------------------------------------------
# The run record
# ----------------------------------------------------------------------
@dataclass
class Check:
    """Tally of output checks: every failure counts against ``attempted``."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def count(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    def absorb(self, other: "Check") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems[: 20 - len(self.problems)])


@dataclass
class Report:
    """What one workload run measured.

    ``headline`` holds the workload's own end-to-end metrics (named in
    the notes); ``metrics`` the end-to-end set every workload reports;
    ``layers`` the traced per-layer set every workload reports;
    ``layer_times`` the traced per-call timings of the layers this
    workload reaches; ``lines`` free-form report rows.
    """

    workload: str
    check: Check = field(default_factory=Check)
    headline: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    layers: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    layer_times: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    lines: List[str] = field(default_factory=list)

    def put(self, table: str, name: str, value: float, unit: str) -> None:
        getattr(self, table)[name] = {"value": float(value), "unit": unit}

    def note(self, text: str) -> None:
        self.lines.append(text)


def format_table(title: str, entries: Dict[str, Dict[str, Any]]) -> List[str]:
    lines = [title]
    for name, entry in entries.items():
        lines.append(f"  {name:<48} {entry['value']:>16.6g} {entry['unit']}")
    return lines


def result_line(check: Check, metrics: Dict[str, Dict[str, Any]]) -> str:
    return json.dumps(
        {
            "correct": check.failed == 0 and check.attempted > 0,
            "attempted": max(1, check.attempted),
            "failed": check.failed,
            "metrics": metrics,
        },
        sort_keys=False,
    )
