"""Per-layer spans and counts, recorded from outside the program.

`install` wraps the public functions of each grazing_lab layer in place:
every module attribute that is the original function is replaced, so names
imported with `from .x import f` (collision_sweep in dissipation and
compactness, pair_reduce in dissipation, pairwise_sum in operators, kernels
and compactness, integrate_r6 in compactness) are timed too. Class methods
are patched on the class. Nothing is added inside the program.

Each wrapped call records a span (name, parent, start, end) in compact
arrays; self time is a span's duration minus its children's. Counts (pairs,
nodes, points, elements) are taken from arguments and results. The spans
stay in memory until `write` saves them. The recorder assumes one thread,
which is how the benchmark runs the program.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import fields, replace

import numpy as np


def _lead(a) -> tuple:
    """Leading shape of an array of 3-vectors."""
    return np.shape(a)[:-1]


def _points(*arrays) -> int:
    return int(np.prod(np.broadcast_shapes(*(_lead(a) for a in arrays)), dtype=np.int64))


def _replace_everywhere(original, replacement) -> list[str]:
    """Rebind every grazing_lab module attribute that is `original`, so names
    imported with `from .x import f` are replaced too; return where."""
    where = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not mod_name.startswith("grazing_lab"):
            continue
        for key, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, key, replacement)
                where.append(f"{mod_name}.{key}")
    return where


class Tracer:
    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, child seconds]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, inclusive s, self s
        self.counts = defaultdict(int)
        self._depth = defaultdict(int)
        self.patched: dict[str, list[str]] = {}

    # -- recording ----------------------------------------------------------

    def wrap(self, name: str, fn, count=None, outermost: str | None = None):
        """Wrap `fn` in a span called `name`.

        count(args, kwargs, result) -> {counter: amount} adds to the counters.
        With `outermost`, calls nested inside another call of the same
        category pass straight through, so each evaluation counts once.
        """
        ids = self._ids
        if name not in ids:
            ids[name] = len(self.names)
            self.names.append(name)
        name_id = ids[name]
        stack, stats, clock = self._stack, self.stats, self.clock
        depth = self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if outermost is not None:
                if depth[outermost]:
                    return fn(*args, **kwargs)
                depth[outermost] += 1
            idx = len(self.span_name)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            self.span_start.append(start)
            self.span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if outermost is not None:
                    depth[outermost] -= 1
                dur = end - start
                self.span_end[idx] = end
                st = stats[name]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if count is not None:
                for key, val in count(args, kwargs, result).items():
                    self.counts[key] += int(val)
            return result

        return traced

    # -- patching -----------------------------------------------------------

    def patch_function(self, module, attr: str, name: str, count=None,
                       outermost: str | None = None) -> None:
        original = getattr(module, attr)
        self.patched[name + ":" + attr] = _replace_everywhere(
            original, self.wrap(name, original, count, outermost))

    def patch_method(self, cls, attr: str, name: str, count=None,
                     outermost: str | None = None) -> None:
        setattr(cls, attr, self.wrap(name, getattr(cls, attr), count, outermost))
        self.patched[name + ":" + attr] = [f"{cls.__module__}.{cls.__qualname__}.{attr}"]

    def install(self) -> None:
        from grazing_lab import (_sphharm, cli, compactness, dissipation, functions, kernels,
                                 operators, projection, quadrature)

        sweep_sig = inspect.signature(operators.collision_sweep)

        def sweep_count(args, kwargs, result):
            b = sweep_sig.bind(*args, **kwargs)
            grid, kernel, spec = b.arguments["grid"], b.arguments["kernel"], b.arguments["spec"]
            n_phi = b.arguments.get("n_phi") or spec.sphere_phi_nodes
            # a cache hit: the sweep itself just asked for the same nodes
            n_theta = kernels.angular_nodes(kernel.angular, spec)[0].size
            return {"operators.collision_sweep.pairs": grid.n_pairs,
                    "operators.collision_sweep.nodes": grid.n_pairs * n_theta * n_phi}

        def reduce_count(args, kwargs, result):
            grid = args[0] if args else kwargs["grid"]
            return {"operators.pair_reduce.pairs": grid.n_pairs}

        def map_count(args, kwargs, result):
            return {"operators.parallel_map.items": len(result)}

        def sum_count(args, kwargs, result):
            values = args[0] if args else kwargs["values"]
            return {"quadrature.pairwise_sum.elements": np.size(values)}

        def fourier_count(args, kwargs, result):
            return {"compactness.fourier_transform.points": np.size(args[1])}

        def density_count(args, kwargs, result):
            # args = (self, v[, v_star]); pair_value evaluates f at both
            return {"functions.density.points": sum(_points(a) for a in args[1:])}

        def pointwise(key):
            def count(args, kwargs, result):
                return {key: _points(*(a for a in args if np.ndim(a) >= 1 and np.shape(a)[-1:] == (3,)))}
            return count

        # one span name per experiment, so each run's time is its own metric
        run = cli.run
        per_experiment = {}

        def traced_run(config, *args, **kwargs):
            exp = config.get("experiment")
            if exp not in per_experiment:
                per_experiment[exp] = self.wrap(f"cli.run.{exp}", run)
            return per_experiment[exp](config, *args, **kwargs)

        cli.run = traced_run
        self.patched["cli.run"] = ["grazing_lab.cli.run"]
        self.patch_function(operators, "collision_sweep", "operators.collision_sweep",
                            sweep_count)
        self.patch_function(operators, "pair_reduce", "operators.pair_reduce", reduce_count)
        self.patch_function(operators, "parallel_map", "operators.parallel_map", map_count)
        self.patch_function(operators, "boltzmann_weak", "operators.boltzmann_weak")
        self.patch_function(operators, "landau_weak", "operators.landau_weak")
        self.patch_function(quadrature, "pairwise_sum", "quadrature.pairwise_sum", sum_count)
        self.patch_function(quadrature, "integrate_r6", "quadrature.integrate_r6")
        self.patch_function(kernels, "build_kernel", "kernels.build_kernel")
        for attr in ("boltzmann_dissipation", "dissipation_study"):
            self.patch_function(dissipation, attr, f"dissipation.{attr}")
        for attr in ("boltzmann_action", "landau_action"):
            self.patch_function(dissipation, attr, "dissipation.action")
        for attr in ("metric_affine_boltzmann", "metric_affine_landau"):
            self.patch_function(dissipation, attr, "dissipation.metric_affine")
        for attr in ("project_vector_field", "pythagoras_check"):
            self.patch_function(projection, attr, f"projection.{attr}")
        for attr in ("cancellation_identity_check", "weighted_seminorm"):
            self.patch_function(compactness, attr, f"compactness.{attr}")
        self.patch_method(compactness.FourierGrid, "transform", "compactness.fourier_transform",
                          fourier_count)
        for attr in ("analyze", "synthesize", "surface_gradient"):
            self.patch_method(_sphharm.SphereTransform, attr, "sphharm.transform")
        for attr in ("value", "log_value", "pair_value", "gradient", "grad_log"):
            self.patch_method(functions.GaussianMixture, attr, "functions.density",
                              density_count, outermost="density")

        # test functions: wrap the callables of every object the factories build
        testfn_count = pointwise("functions.testfn.points")
        callables = ("value", "gradient", "hessian", "grad_x", "hess_xx", "jac_x")

        def wrap_testfn(obj):
            names = {f.name for f in fields(obj)}
            new = {a: self.wrap("functions.testfn", getattr(obj, a), testfn_count,
                                outermost="testfn")
                   for a in callables if a in names}
            return replace(obj, **new)

        for attr in ("polynomial_testfn", "gaussian_testfn", "bump_testfn",
                     "gradient_type_field"):
            factory = getattr(functions, attr)

            @functools.wraps(factory)
            def build(*args, _factory=factory, **kwargs):
                return wrap_testfn(_factory(*args, **kwargs))

            self.patched["functions.testfn:" + attr] = _replace_everywhere(factory, build)

        # mobilities: wrap the field of every Mobility when it is built
        mobility_count = pointwise("dissipation.mobility_field.points")
        post_init = dissipation.Mobility.__post_init__
        tracer = self

        def mobility_post_init(mob):
            post_init(mob)
            object.__setattr__(mob, "field",
                               tracer.wrap("dissipation.mobility_field", mob.field,
                                           mobility_count, outermost="mobility"))

        dissipation.Mobility.__post_init__ = mobility_post_init
        self.patched["dissipation.mobility_field:__post_init__"] = [
            "grazing_lab.dissipation.Mobility.__post_init__"]

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric; a layer the workload never reached reads 0."""
        from grazing_lab import kernels

        st = self.stats
        c = self.counts

        def calls(name):
            return st[name][0] if name in st else 0

        def secs(name):
            return st[name][1] if name in st else 0.0

        out: dict[str, float] = {}
        for exp in ("limit_check", "dissipation_study", "metric_affine", "projection",
                    "compactness"):
            out[f"cli.run_s.{exp}"] = secs(f"cli.run.{exp}")
        sweep_s = secs("operators.collision_sweep")
        nodes = c["operators.collision_sweep.nodes"]
        out.update({
            "operators.collision_sweep.calls": calls("operators.collision_sweep"),
            "operators.collision_sweep.s": sweep_s,
            "operators.collision_sweep.self_s": (st["operators.collision_sweep"][2]
                                                 if "operators.collision_sweep" in st else 0.0),
            "operators.collision_sweep.pairs": c["operators.collision_sweep.pairs"],
            "operators.collision_sweep.nodes": nodes,
            "operators.collision_sweep.node_rate": nodes / sweep_s if sweep_s > 0 else 0.0,
            "operators.pair_reduce.calls": calls("operators.pair_reduce"),
            "operators.pair_reduce.pairs": c["operators.pair_reduce.pairs"],
            "operators.pair_reduce.s": secs("operators.pair_reduce"),
            "operators.parallel_map.items": c["operators.parallel_map.items"],
            "operators.boltzmann_weak.s": secs("operators.boltzmann_weak"),
            "operators.landau_weak.s": secs("operators.landau_weak"),
            "functions.density.calls": calls("functions.density"),
            "functions.density.points": c["functions.density.points"],
            "functions.density.s": secs("functions.density"),
            "functions.testfn.calls": calls("functions.testfn"),
            "functions.testfn.points": c["functions.testfn.points"],
            "functions.testfn.s": secs("functions.testfn"),
            "dissipation.mobility_field.calls": calls("dissipation.mobility_field"),
            "dissipation.mobility_field.points": c["dissipation.mobility_field.points"],
            "dissipation.mobility_field.s": secs("dissipation.mobility_field"),
            "dissipation.boltzmann_dissipation.s": secs("dissipation.boltzmann_dissipation"),
            "dissipation.dissipation_study.s": secs("dissipation.dissipation_study"),
            "dissipation.action.s": secs("dissipation.action"),
            "dissipation.metric_affine.s": secs("dissipation.metric_affine"),
            "kernels.angular_nodes.misses": kernels.angular_nodes.cache_info().misses,
            "kernels.build_kernel.s": secs("kernels.build_kernel"),
            "quadrature.pairwise_sum.calls": calls("quadrature.pairwise_sum"),
            "quadrature.pairwise_sum.elements": c["quadrature.pairwise_sum.elements"],
            "quadrature.integrate_r6.s": secs("quadrature.integrate_r6"),
            "projection.project_vector_field.s": secs("projection.project_vector_field"),
            "projection.pythagoras_check.s": secs("projection.pythagoras_check"),
            "sphharm.transform.calls": calls("sphharm.transform"),
            "sphharm.transform.s": secs("sphharm.transform"),
            "compactness.cancellation_identity_check.s":
                secs("compactness.cancellation_identity_check"),
            "compactness.fourier_transform.s": secs("compactness.fourier_transform"),
            "compactness.fourier_transform.points": c["compactness.fourier_transform.points"],
            "compactness.weighted_seminorm.s": secs("compactness.weighted_seminorm"),
        })
        return out

    def write(self, path) -> None:
        """Save the spans: arrays in `path`, the name table and patch map in
        `path` + '.json'."""
        np.savez(path, name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))
        with open(str(path) + ".json", "w") as fh:
            json.dump({"names": self.names, "patched": self.patched,
                       "spans": len(self.span_name)}, fh, indent=1, sort_keys=True)
