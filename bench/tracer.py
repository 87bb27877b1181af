"""Span tracer that wraps twinbeam's public functions from outside.

install() replaces every module-level name in the twinbeam package that
holds one of the TRACED functions with a timing wrapper, so calls made
through `from .x import f` bindings are seen as well as `x.f(...)` calls.
Spans stay in memory; the child writes them out when its pass ends.
"""

import functools
import inspect
import sys
import time

TRACED = (
    "model.build_coupled_matrices",
    "numerics.expm", "numerics.sym_eig", "numerics.svd",
    "propagator.compose", "propagator.double_pass",
    "blochmessiah.tune_gain", "blochmessiah.decompose",
    "blochmessiah.bloch_messiah",
    "analytic.svd_route", "analytic.structure_checks",
    "analysis.gain_variation_sweep",
    "cli.load_config", "cli.cmd_simulate", "cli.cmd_verify",
    "cli.cmd_sweep_gain",
)


def _compose_attrs(signature):
    """Domain count and product dimension m (2N block path or 4N) of a compose call."""

    def attrs(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        grid = bound.arguments["grid"]
        medium = bound.arguments["medium"]
        m = (2 if medium.sgvm() else 4) * grid.n
        return {"domains": len(bound.arguments["poling"].domains), "m": m}

    return attrs


class Tracer:
    """Records one span per call of each wrapped function.

    A span is a dict with id, parent (id of the innermost enclosing span or
    None), name, pass, start, end (perf_counter seconds) and optional
    call attributes.  Calls are assumed to come from one thread.
    """

    def __init__(self, pass_id):
        self.pass_id = pass_id
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "pass": self.pass_id,
                    "parent": self._stack[-1] if self._stack else None}
            if attrs is not None:
                span.update(attrs(*args, **kwargs))
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()

        return traced

    def install(self, package="twinbeam"):
        """Wrap every TRACED function; returns {name: number of names rebound}."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        rebound = {}
        for name in TRACED:
            module_name, fn_name = name.split(".")
            original = getattr(sys.modules["%s.%s" % (package, module_name)], fn_name)
            attrs = None
            if name == "propagator.compose":
                attrs = _compose_attrs(inspect.signature(original))
            wrapper = self.wrap(name, original, attrs)
            count = 0
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        count += 1
            rebound[name] = count
        return rebound
