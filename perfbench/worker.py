"""One round of one workload in a fresh, single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N [--trace 0|1] [--setup-only]

`run.py` starts this with `src` on PYTHONPATH. The worker imports
grazing_lab, validates the workload's configs and builds their kernels, then
prints `READY` (the parent times set-up up to that line). It then runs every
config through `grazing_lab.cli.run`, timing wall and CPU from the first run
to the last verdict, checks the reports, and prints one JSON line.
"""

from __future__ import annotations

import os

# pin every thread pool before numpy is imported
THREAD_PINS = {"GRAZING_LAB_THREADS": "1", "OMP_NUM_THREADS": "1",
               "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import grazing_lab
    from grazing_lab import cli
    from grazing_lab.quadrature import QuadratureSpec

    src = (ROOT / "src").resolve()
    if src not in Path(grazing_lab.__file__).resolve().parents:
        print(f"error: grazing_lab imported from {grazing_lab.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    import workloads

    configs = workloads.configs(args.workload, args.seed)
    for cfg in configs:
        valid = cli.validate_config(cfg)
        cli.build_kernel(valid, QuadratureSpec(**valid["quadrature"]))
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    reports = {}
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    for cfg in configs:
        reports[cfg["experiment"]] = cli.run(cfg)
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        layers = tracer.layer_metrics()
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}.npz")

    checks = workloads.check(args.workload, reports)
    out = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mib": peak_rss_mib,
        "checks": [c.as_dict() for c in checks],
        "body_sha256": {exp: hashlib.sha256(rep.body_bytes()).hexdigest()
                        for exp, rep in reports.items()},
        "layers": layers,
    }
    print(json.dumps(out, allow_nan=False), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
