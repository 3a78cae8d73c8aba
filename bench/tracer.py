"""In-memory span tracer installed around ferroflow's public layer functions.

``Tracer.install()`` wraps each function and method of ``TARGETS`` and
rebinds every ``ferroflow.*`` module attribute that refers to it, so calls
made inside the package (``analytic_apply`` calling ``wedge``, a schedule
calling ``simpson_refine``) are recorded too.  ``uninstall()`` restores the
originals.  A span is ``[name, start, end, parent, extra]``; self time is a
span's duration minus the durations of its direct children, so the self
times of one run add up to the duration of its root span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute or Class.method, metric prefix)
TARGETS = (
    ("algebra", "wedge", "algebra.wedge"),
    ("algebra", "gradient", "algebra.gradient"),
    ("algebra", "analytic_apply", "algebra.analytic_apply"),
    ("gaussian", "laplacian", "gaussian.laplacian"),
    ("gaussian", "heat_kernel_convolve", "gaussian.heat_kernel_convolve"),
    ("gaussian", "pfaffian", "gaussian.pfaffian"),
    ("gaussian", "gaussian_moment", "gaussian.gaussian_moment"),
    ("norms", "matrix_norm_1inf", "norms.matrix_norm_1inf"),
    ("norms", "norm_coefficients", "norms.norm_coefficients"),
    ("schedule", "simpson_refine", "schedule.simpson_refine"),
    ("schedule", "ScaleSchedule.adot_norm_at", "schedule.adot_norm_at"),
    ("schedule", "ScaleSchedule.tau", "schedule.tau"),
    ("schedule", "ScaleSchedule.sigma_squared", "schedule.sigma_squared"),
    ("schedule", "ScaleSchedule.covariance", "schedule.covariance"),
    ("flow", "flow_integrate", "flow.flow_integrate"),
    ("flow", "rg_map", "flow.rg_map"),
    ("majorant", "CharacteristicSolution.invert", "majorant.invert"),
    ("majorant", "CharacteristicSolution.forward", "majorant.forward"),
    ("majorant", "majorant_coefficients", "majorant.majorant_coefficients"),
    ("majorant", "existence_check", "majorant.existence_check"),
    ("majorant", "rhs_coefficient_bound", "majorant.rhs_coefficient_bound"),
    ("majorant", "hopflax_solve", "majorant.hopflax_solve"),
    ("psi4", "build_desk_instance", "psi4.build_desk_instance"),
    ("cli", "main", "cli"),
)

NAMES = tuple(name for _, _, name in TARGETS)
ROOT = "cli"
CACHED_INTEGRALS = ("schedule.tau", "schedule.sigma_squared", "schedule.covariance")
SIMPSON = "schedule.simpson_refine"
WEDGE = "algebra.wedge"
# computed, not measured: per disjoint pair the table path reads three
# uint32 indices, one float64 sign and two complex128 operands, and writes
# one complex128 product
WEDGE_BYTES_PER_PAIR = 3 * 4 + 8 + 2 * 16 + 16


def _wedge_pairs(args) -> int:
    dim = args[0].coeffs.shape[0]
    return 3 ** (dim.bit_length() - 1)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for module, attr, name in TARGETS:
            mod = importlib.import_module(f"ferroflow.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[meth]
                self._rebind(owner, meth, orig, self._wrap(orig, name))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(orig, name)
            for mod_name, other in list(sys.modules.items()):
                if mod_name != "ferroflow" and not mod_name.startswith("ferroflow."):
                    continue
                for key, value in list(vars(other).items()):
                    if value is orig:
                        self._rebind(other, key, orig, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def _rebind(self, owner, key, orig, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._restore.append((owner, key, orig))

    def _wrap(self, fn, name: str):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def call(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            if name == WEDGE:
                span[4] = _wedge_pairs(args)
            elif name == SIMPSON:
                integrand = args[0]

                def counted(x):
                    span[4] += len(x) if hasattr(x, "__len__") else 1
                    return integrand(x)

                args = (counted,) + args[1:]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return functools.wraps(fn)(call)

    # -- metrics ---------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, as (value, unit), of the spans recorded since
        the last ``reset``."""
        spans = self.spans
        child = [0.0] * len(spans)
        has_simpson = [False] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
                has_simpson[parent] |= name == SIMPSON
        calls = dict.fromkeys(NAMES, 0)
        self_s = dict.fromkeys(NAMES, 0.0)
        extra = dict.fromkeys(NAMES, 0)
        hits = lookups = 0
        for i, (name, start, end, _, x) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            extra[name] += x
            if name in CACHED_INTEGRALS:
                lookups += 1
                hits += not has_simpson[i]
        out: dict[str, tuple[float, str]] = {}
        for name in NAMES:
            if name != ROOT:
                out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
        out[f"{WEDGE}.pairs"] = (extra[WEDGE], "pairs_computed")
        out[f"{WEDGE}.bytes"] = (extra[WEDGE] * WEDGE_BYTES_PER_PAIR, "B_computed")
        out[f"{SIMPSON}.nodes"] = (extra[SIMPSON], "count")
        # share of tau/sigma_squared/covariance calls answered from the cache;
        # 0 when the workload makes no such call
        out["schedule.cache_hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
        return out

    def root_duration(self) -> float:
        return sum(end - start for name, start, end, parent, _ in self.spans
                   if parent < 0)

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("reset inside an open span")
        self.spans.clear()
