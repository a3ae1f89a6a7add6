"""Golden report bodies: the byte-identity gate of the five perfbench configs
and of seven light configs the CI steps run.

Each file in tests/golden holds one pinned config (a perfbench config at
seed 1, or a CI step's config as the step writes it), the body its run wrote (`Report.body_bytes`, parsed), the body's
sha256, and the numpy, scipy and Python versions and the machine it was
taken on. A rerun must match every numeric leaf of the recorded body within
REL relative, with an absolute floor ABS for the leaves that are roundoff
(residuals near 1e-16), and every other leaf exactly. Where the versions and
machine match, the rerun's sha256 must match too; elsewhere that comparison
is skipped, saying why, since numpy's SIMD exp and log may differ in the last
bit between builds.

A change that moves a body on purpose re-records every file from its own
config:

    PYTHONPATH=src python tests/test_golden.py

and the diff of tests/golden is the body move.
"""

import hashlib
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from grazing_lab import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
# the five perfbench configs, named after their experiments, then the CI
# steps' configs: the light and the support-free projection (whose body
# carries the failing grid-norm line), the mixture study and compactness, the
# one-Gaussian compactness at pair_nodes 5, the four-route limit_check, and
# the default experiment, identities, of the console-script smoke run
NAMES = ("limit_check", "dissipation_study", "metric_affine", "projection", "compactness",
         "projection_light", "projection_support_free", "dissipation_study_mixture",
         "compactness_mixture", "compactness_gaussian", "limit_check_four_routes", "identities")
REL = 1e-9
ABS = 1e-12


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(), "machine": platform.machine()}


def canonical(body) -> bytes:
    """The bytes `Report.body_bytes` writes for a parsed body."""
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


def load(name: str) -> dict:
    return json.loads((GOLDEN / f"{name}.json").read_text())


def mismatches(want, got, path: str = "body") -> list[str]:
    """Where got differs from want: a number by more than
    max(REL * max(|want|, |got|), ABS), any other leaf at all, or the shape."""
    if isinstance(want, dict) or isinstance(got, dict):
        if not (isinstance(want, dict) and isinstance(got, dict)) or want.keys() != got.keys():
            return [f"{path}: keys differ"]
        return [m for k in want for m in mismatches(want[k], got[k], f"{path}.{k}")]
    if isinstance(want, list) or isinstance(got, list):
        if not (isinstance(want, list) and isinstance(got, list)) or len(want) != len(got):
            return [f"{path}: lengths differ"]
        return [m for i, (a, b) in enumerate(zip(want, got)) for m in mismatches(a, b, f"{path}[{i}]")]

    def number(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    if number(want) and number(got):
        if abs(want - got) <= max(REL * max(abs(want), abs(got)), ABS):
            return []
    elif want == got:
        return []
    return [f"{path}: {want!r} -> {got!r}"]


@pytest.fixture(scope="module")
def rerun():
    """The body bytes of each golden config, run once per module."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = cli.run(load(name)["config"]).body_bytes()
        return cache[name]

    return get


def test_golden_files_are_canonical():
    """Each file's body serializes to the bytes its sha256 names, and the
    file is named after its config's experiment."""
    for name in NAMES:
        golden = load(name)
        experiment = golden["config"]["experiment"]
        assert name == experiment or name.startswith(experiment + "_"), name
        assert hashlib.sha256(canonical(golden["body"])).hexdigest() == golden["sha256"], name


@pytest.mark.parametrize("name", NAMES)
def test_golden_values(name, rerun):
    got = json.loads(rerun(name))
    assert mismatches(load(name)["body"], got) == []


@pytest.mark.parametrize("name", NAMES)
def test_golden_bytes(name, rerun):
    golden = load(name)
    if golden["versions"] != versions():
        pytest.skip(f"recorded on {golden['versions']}, running on {versions()}: "
                    f"the bits need not agree, so only the values are compared")
    assert hashlib.sha256(rerun(name)).hexdigest() == golden["sha256"]


def test_one_ulp_fails_the_bytes_not_the_values():
    """A one-ulp move of one row's number changes the sha256 but stays
    within the value bound; a move of 10 REL fails both."""
    golden = load("projection")
    row = golden["body"]["rows"][0]
    key = "norm_projected_V_sq"
    for step, values_pass in ((math.nextafter(row[key], math.inf), True),
                              (row[key] * (1.0 + 10 * REL), False)):
        moved = json.loads(json.dumps(golden["body"]))
        moved["rows"][0][key] = step
        assert hashlib.sha256(canonical(moved)).hexdigest() != golden["sha256"]
        assert (mismatches(golden["body"], moved) == []) == values_pass


def record() -> None:
    """Rerun each golden config and rewrite its file."""
    for name in NAMES:
        path = GOLDEN / f"{name}.json"
        config = load(name)["config"]
        body = cli.run(config).body_bytes()
        path.write_text(json.dumps({"config": config, "body": json.loads(body),
                                    "sha256": hashlib.sha256(body).hexdigest(),
                                    "versions": versions()}, sort_keys=True, indent=1) + "\n")
        print(name, hashlib.sha256(body).hexdigest()[:16], file=sys.stderr)


if __name__ == "__main__":
    record()
