"""grazing-lab benchmark: time to verdicts on pinned experiments.

    python3 perfbench/run.py --workload {eps-sweep,duality,soft-mixture}
                             --seed N --seconds S --trace {0,1}

Run from the repository root. Each round of a workload runs in a fresh
single-threaded process (`worker.py`); rounds repeat until S seconds have
passed, and at least two rounds always run, so every figure is a median of
two or more. A few extra processes only set up, so set-up time is a median of
several samples in every run.

With --trace 0 the last line of standard output is one JSON object with the
end-to-end metrics (medians over rounds): wall_s, setup_s, cpu_s and
peak_rss_mib. With --trace 1 it holds the per-layer metrics of one traced
round, plus trace.overhead_s, the traced round's wall time minus the median
untraced one. Both carry the count of checks attempted and failed. Lines
before it, starting with '#', give each round's figures and the sha256 of
every report body.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_ROUNDS = 2          # untraced rounds per run, however long they take
SETUP_SAMPLES = 7       # set-up samples per run, round processes included
RUN_DEADLINE_S = 170.0  # no new round starts if it could end past this
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB"}


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    # the worker pins its own thread pools before importing numpy
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def run_worker(workload: str, seed: int, timeout: float, trace: bool = False,
               setup_only: bool = False) -> dict:
    """Start one worker; return its result with the measured set-up time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "1" if trace else "0"]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    deadline = start + timeout
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, bufsize=0, env=_env(), cwd=ROOT)
    try:
        first = _read_line(proc.stdout.fileno(), deadline)
        setup_s = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload}: worker passed its {timeout:.0f} s deadline") from exc
    if proc.returncode != 0 or first != b"READY":
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    if setup_only:
        return {"setup_s": setup_s}
    lines = rest.decode().splitlines()
    if not lines:
        raise BenchError(f"{workload}: worker printed no result")
    result = json.loads(lines[-1])
    result["setup_s"] = setup_s
    return result


def _read_line(fd: int, deadline: float) -> bytes:
    """One line from a pipe, unbuffered, so the rest stays for communicate()."""
    out = bytearray()
    while True:
        ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.perf_counter()))
        if not ready:
            raise BenchError("no READY line before the deadline")
        ch = os.read(fd, 1)
        if not ch or ch == b"\n":
            return bytes(out)
        out += ch


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "grazing_lab" / "__init__.py").is_file():
        print(f"error: no grazing_lab sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    t0 = time.perf_counter()

    def left() -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - t0)

    try:
        rounds = []
        t_rounds = time.perf_counter()
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - t_rounds < args.seconds:
            if (len(rounds) >= MIN_ROUNDS
                    and rounds[-1]["wall_s"] + rounds[-1]["setup_s"] > left() - 30.0):
                break
            rounds.append(run_worker(args.workload, args.seed, left()))
        setup = [r["setup_s"] for r in rounds]
        while len(setup) < SETUP_SAMPLES:
            setup.append(run_worker(args.workload, args.seed, left(), setup_only=True)["setup_s"])
        traced = None
        if args.trace:
            traced = run_worker(args.workload, args.seed, left(), trace=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    checks = [c for r in rounds + ([traced] if traced else []) for c in r["checks"]]
    failed = [c for c in checks if not c["ok"]]
    correct = all(c["known_fault"] for c in failed)

    for i, r in enumerate(rounds + ([traced] if traced else [])):
        kind = "traced" if r is traced else "untraced"
        print(f"# round {i} ({kind}): wall_s={r['wall_s']:.4f} cpu_s={r['cpu_s']:.4f} "
              f"setup_s={r['setup_s']:.4f} peak_rss_mib={r['peak_rss_mib']:.1f}")
        for exp, digest in r["body_sha256"].items():
            print(f"# body_sha256 {exp} {kind} {digest}")
    for c in failed:
        tag = "known fault" if c["known_fault"] else "FAILED"
        print(f"# {tag}: {c['name']}: measured={c['measured']} limit={c['limit']}")
    print(f"# setup_s samples: {' '.join(f'{s:.4f}' for s in setup)}")

    if args.trace:
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = (traced["wall_s"]
                                      - statistics.median(r["wall_s"] for r in rounds))
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in layers.items()}
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "setup_s": statistics.median(setup),
            "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in rounds),
        }
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}
    print(json.dumps({"correct": correct, "attempted": len(checks), "failed": len(failed),
                      "metrics": metrics}, allow_nan=False))
    return 0 if correct else 1


def _layer_unit(name: str) -> str:
    if name.endswith(".node_rate"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s") or ".run_s." in name:
        return "s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
