"""Which defs under src/grazing_lab the pinned runs reach, for the gate in
test_golden.

src_defs lists every def of a package by its syntax tree, nested defs and
methods included, each named by its module and the classes and defs around
it (operators.PairChunk.dbar_forms) and keyed by its file and first line: the
line of its first decorator when it has one, which is the first line of its
code object. profiled records the code objects called while it is open in
the calling thread, and fails a run that starts a thread, naming it, since
that thread's calls would go unseen; clear_caches empties the package's
functools caches first, so a run's reach does not depend on what ran before.
gate compares the two against ALLOWED, the defs that no pinned run reaches
on purpose, each with its reason.
"""

import ast
import os
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "grazing_lab"

_TRACER = "perfbench/tracer.py binds it by name; it goes once the tracer wraps what runs"
_REFUSAL = "a refusal's constructor, run only on an invalid input"

ALLOWED = {
    # tracer-bound
    "operators.boltzmann_weak": _TRACER,
    "operators.landau_weak": _TRACER,
    "dissipation.boltzmann_dissipation": _TRACER,
    "dissipation.boltzmann_action": _TRACER,
    "dissipation.metric_affine_boltzmann": _TRACER,
    "dissipation.landau_action": _TRACER,
    "dissipation.metric_affine_landau": _TRACER,
    "quadrature.integrate_r6": _TRACER,
    "functions.GaussianMixture.gradient": _TRACER,
    # named API
    "dissipation.landau_dissipation": "the API call of README's quick start",
    # the first-order weak form
    "operators._landau_weak_values.first": "the first-order Landau weak form, which "
                                           "acceptance criterion 04 compares",
    "operators._landau_weak_values.first.term": "the pair term of the first-order Landau "
                                                "weak form",
    # entry points, refusals and import-time code
    "cli.main": "the console script's entry point",
    "cli.Report.all_pass": "the verdict main returns as its exit status",
    "compactness.CompactnessError.__init__": _REFUSAL,
    "functions.FunctionError.__init__": _REFUSAL,
    "kernels.KernelError.__init__": _REFUSAL,
    "operators._memoised": "a decorator, run when operators is imported",
    "operators._shared": "builds SwappedNode's properties when operators is imported",
}


def src_defs(root: Path) -> dict[tuple[str, int], str]:
    """{(file, first line): qualified name} of every def in root's modules."""
    defs = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                defs[(str(path), first)] = name
            walk(child, path, name)

    for path in sorted(root.resolve().glob("*.py")):
        walk(ast.parse(path.read_text()), path, path.stem)
    return defs


def clear_caches() -> None:
    """Empty every functools cache of grazing_lab's loaded modules, so that a
    run calls each cached def it needs instead of reading an earlier call's
    result."""
    for name, module in list(sys.modules.items()):
        if name.startswith("grazing_lab."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@contextmanager
def profiled(codes: set):
    """Add to codes the code object of every Python call made in this thread
    while open. Starting a thread meanwhile raises RuntimeError naming it:
    the profiler does not see that thread's calls, so a def reached only
    there would read as unreached."""
    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    def refuse(thread):
        raise RuntimeError(f"thread {thread.name!r} started under the reachability profiler, "
                           f"which sees only the calling thread")

    before = sys.getprofile(), threading.Thread.start
    sys.setprofile(hook)
    threading.Thread.start = refuse
    try:
        yield codes
    finally:
        sys.setprofile(before[0])
        threading.Thread.start = before[1]


def gate(defs: dict[tuple[str, int], str], codes: set, allowed: dict[str, str]) -> list[str]:
    """One line per fault, naming the def: a def no run reaches that is not
    allowed, an allowed name with no def, and an allowed def a run reaches."""
    reached = {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in codes}
    unreached = {name for key, name in defs.items() if key not in reached}
    faults = [f"{name}: no pinned run reaches it, and it is not on the allow-list"
              for name in sorted(unreached - set(allowed))]
    for name in sorted(allowed):
        if name not in defs.values():
            faults.append(f"{name}: on the allow-list, but no such def exists")
        elif name not in unreached:
            faults.append(f"{name}: on the allow-list, but a pinned run reaches it")
    return faults
