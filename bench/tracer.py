"""Outside-in tracer: times miinet's functions by rebinding them, not by editing them.

The package binds names when it imports them (`from .core import
estimate_stats`), so patching the defining module alone would miss most
calls. `install` wraps each traced function once and replaces every binding
of it in every miinet module, the package namespace included. Wrapped
methods are replaced on their class.

Each wrapped function gets `calls`, `total_s` and `self_s`; self time is total
time minus the time spent in wrapped functions it called. A few counts are
derived from the arguments and results of wrapped calls. A function that the
package no longer has is listed as absent and reads 0, never an error.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

MODULES = ("io", "core", "distributions", "estimators", "omii", "spatial",
           "seeding", "synthetic", "cli")

# Private functions worth their own line, beside every public one.
PRIVATE_FUNCTIONS = (
    "omii._permutation",
    "omii._gaussian_null_cmis",
    "omii._laplace_null_cmis",
    "cli._cmd_generate",
    "cli._cmd_fit_report",
    "cli._cmd_pairwise_mi",
    "cli._cmd_pipeline",
)

# (module, class, method, label). Both elliptical constructors share a label.
METHODS = (
    ("distributions", "MultivariateLaplace", "sample", "distributions.laplace_sample"),
    ("distributions", "MultivariateLaplace", "logpdf", "distributions.laplace_logpdf"),
    ("distributions", "MultivariateLaplace", "__init__", "distributions.model_init"),
    ("distributions", "MultivariateGaussian", "__init__", "distributions.model_init"),
    ("distributions", "EmpiricalDistribution", "from_samples", "distributions.histogram"),
    ("core", "SampleStats", "__post_init__", "core.SampleStats.__post_init__"),
)

# Metric labels that sum several wrapped functions.
GROUPS = {
    "io.write": lambda label: label.startswith("io.write_"),
    "synthetic.generate": lambda label: label.startswith("synthetic.generate_"),
    "spatial.diff": lambda label: label in ("spatial.mi_map_diff", "spatial.network_diff"),
}

FIELDS = ("calls", "total_s", "self_s")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list[float]] = {}  # label -> [calls, total_s, self_s]
        self.counts = {
            "omii.null_draws": 0,
            "omii.candidate_cmis": 0,
            "omii.admitted_parents": 0,
            "core.ridge_events": 0,
            "distributions.mc_draws": 0,
            "io.read_bytes": 0,
            "io.write_bytes": 0,
        }
        self.absent: list[str] = []
        self._stack: list[list] = []  # [label, child seconds] per active wrapped call

    def wrap(self, label: str, fn):
        self.stats.setdefault(label, [0, 0.0, 0.0])
        stats, stack = self.stats[label], self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [label, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
            self._count(label, args, kwargs, result)
            return result

        return traced

    def _count(self, label, args, kwargs, result) -> None:
        counts = self.counts
        if label == "omii.shuffle_test":
            cfg = kwargs.get("cfg", args[4] if len(args) > 4 else None)
            counts["omii.null_draws"] += getattr(cfg, "n_shuffles", 0)
        elif label == "omii.discover":
            counts["omii.admitted_parents"] += len(getattr(result, "parents", ()))
        elif label == "estimators.conditional_mutual_information":
            if self._stack and self._stack[-1][0] == "omii.discover":
                counts["omii.candidate_cmis"] += 1
        elif label == "core.regularize_covariance":
            counts["core.ridge_events"] += int(result[1] != 0.0)
        elif label == "distributions.laplace_sample":
            counts["distributions.mc_draws"] += int(kwargs.get("m", args[1] if len(args) > 1 else 0))
        elif label == "io.read_timeseries_csv":
            counts["io.read_bytes"] += os.path.getsize(kwargs.get("path", args[0]))
        elif GROUPS["io.write"](label):
            # nested writers (write_network_json -> write_json) count bytes once
            if not any(GROUPS["io.write"](outer) for outer, _ in self._stack):
                counts["io.write_bytes"] += os.path.getsize(kwargs.get("path", args[-1]))

    def install(self) -> None:
        """Wrap every traced function and rebind it wherever miinet holds it."""
        package = importlib.import_module("miinet")
        modules = {name: importlib.import_module(f"miinet.{name}") for name in MODULES}
        namespaces = [package, *modules.values()]
        targets = {}
        for name, module in modules.items():
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    targets[obj] = f"{name}.{attr}"
        for dotted in PRIVATE_FUNCTIONS:
            name, attr = dotted.split(".")
            obj = getattr(modules[name], attr, None)
            if inspect.isfunction(obj):
                targets[obj] = dotted
            else:
                self.absent.append(dotted)
        for fn, label in targets.items():
            wrapper = self.wrap(label, fn)
            for ns in namespaces:
                for attr, obj in list(vars(ns).items()):
                    if obj is fn:
                        setattr(ns, attr, wrapper)
        for module_name, class_name, method, label in METHODS:
            cls = getattr(modules[module_name], class_name, None)
            static = inspect.getattr_static(cls, method, None) if cls else None
            if isinstance(static, classmethod):
                setattr(cls, method, classmethod(self.wrap(label, static.__func__)))
            elif inspect.isfunction(static):
                setattr(cls, method, self.wrap(label, static))
            else:
                self.absent.append(f"{module_name}.{class_name}.{method}")

    def table(self) -> dict[str, dict[str, float]]:
        return {
            label: dict(zip(FIELDS, values))
            for label, values in sorted(self.stats.items())
            if values[0]
        }

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Every per-function field and derived count, per traced round."""
        out: dict[str, float] = {}
        for label, values in self.stats.items():
            for field, value in zip(FIELDS, values):
                out[f"{label}.{field}"] = value / rounds
        for group, member in GROUPS.items():
            for k, field in enumerate(FIELDS):
                out[f"{group}.{field}"] = sum(
                    v[k] for label, v in self.stats.items() if member(label)
                ) / rounds
        c = self.counts
        out["omii.null_draws"] = c["omii.null_draws"] / rounds
        out["core.ridge_events"] = c["core.ridge_events"] / rounds
        out["distributions.mc_draws"] = c["distributions.mc_draws"] / rounds
        out["omii.cmi_per_admission"] = (
            c["omii.candidate_cmis"] / c["omii.admitted_parents"]
            if c["omii.admitted_parents"] else 0.0
        )
        read_s = out.get("io.read_timeseries_csv.total_s", 0.0)
        write_s = out["io.write.self_s"]
        out["io.read_timeseries_csv.mb_per_s"] = (
            c["io.read_bytes"] / rounds / 1e6 / read_s if read_s else 0.0
        )
        out["io.write.mb_per_s"] = c["io.write_bytes"] / rounds / 1e6 / write_s if write_s else 0.0
        return out
