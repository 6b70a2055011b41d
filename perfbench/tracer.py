"""Span recorder that hooks dpnls from outside, with no change to the package.

``Tracer.install`` wraps every public function of each ``dpnls`` module, the
public methods of the classes those modules define, the private helpers named
in ``EXTRA`` and the FFT entry points of ``numpy.fft`` and ``scipy.fft``.  A
wrapper replaces the original under every name a ``dpnls`` module binds it to,
so ``from .groundstate import solve_ground_state`` in another module is traced
too.  Each call appends one span ``[name, start, end, parent, info]`` to an
in-memory list; ``parent`` is the index of the enclosing span or -1.

Names the layer metrics rely on but the package no longer defines are listed
in ``missing`` instead of failing the run, so the tracer outlives refactors.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ("params", "functionals", "groundstate", "stability", "lemma_lab",
           "evolution", "cli")

#: Private helpers whose time is a layer of its own.
EXTRA = {"evolution": ("_record",)}

FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "fftn", "ifftn",
             "rfftn", "irfftn", "hfft", "ihfft")

#: Hooks the layer metrics read; absent ones are reported, not fatal.
REQUIRED = (
    "cli.main", "cli.write_csv", "cli.write_summary",
    "groundstate.solve_ground_state", "groundstate.find_bracket",
    "groundstate.shoot_classify", "groundstate.decay_fit",
    "groundstate.GroundStateResult.resample",
    "functionals.functionals",
    "stability.classify", "stability.make_scaled_data",
    "lemma_lab.sign_suite", "lemma_lab.perturbed_profiles",
    "lemma_lab.check_hypotheses", "lemma_lab.key_estimate_check",
    "evolution.evolve", "evolution._record",
    "evolution.b_omega_invariance_audit", "evolution.concavity_audit",
    "evolution.virial_check", "evolution.uniform_prefix",
    "fft.numpy.fft.fft", "fft.numpy.fft.ifft",
)


def _fft_bytes(args, kwargs, out):
    arr = args[0] if args else kwargs.get("x", kwargs.get("a"))
    return int(getattr(arr, "nbytes", 0) + getattr(out, "nbytes", 0))


def _solve_info(args, kwargs, gs):
    return {"params": gs.params, "amplitude": gs.amplitude,
            "residual": gs.residual}


def _evolve_info(args, kwargs, verdict):
    """Largest mass and energy drift before detection, relative to the first record."""
    trace = verdict.trace
    if not trace:
        return {"mass_drift": 0.0, "energy_drift": 0.0}
    first = trace[0]
    stop = verdict.t_detect if verdict.t_detect is not None else float("inf")
    kept = [rec for rec in trace if rec.t < stop - 1e-12]
    mass_scale = max(abs(first.mass), 1e-300)
    energy_scale = max(1.0, abs(first.energy))
    return {
        "mass_drift": max((abs(r.mass - first.mass) / mass_scale for r in kept),
                          default=0.0),
        "energy_drift": max((abs(r.energy - first.energy) / energy_scale
                             for r in kept), default=0.0),
    }


def _len_info(args, kwargs, out):
    return {"len": len(out)} if hasattr(out, "__len__") else None


#: Return-value summaries kept on a span, by hook name.
CAPTURE = {
    "groundstate.solve_ground_state": _solve_info,
    "evolution.evolve": _evolve_info,
    "lemma_lab.perturbed_profiles": _len_info,
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.hooked: list[str] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, capture=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = {"error": type(exc).__name__}
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if capture is not None:
                try:
                    span[4] = capture(args, kwargs, out)
                except (AttributeError, TypeError, ValueError) as exc:
                    # a refactored return type loses its summary, not the run
                    span[4] = {"capture_error": type(exc).__name__}
            return out

        self.hooked.append(name)
        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, modules, original, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _wrap_class(self, prefix, cls):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{cls.__name__}.{attr}"
            if isinstance(value, (classmethod, staticmethod)):
                kind = type(value)
                self._set(cls, attr, kind(self._wrap(name, value.__func__)))
            elif inspect.isfunction(value):
                self._set(cls, attr, self._wrap(name, value))

    def install(self):
        """Wrap the package's callables and the FFT entry points."""
        modules = {}
        for short in MODULES:
            try:
                modules[short] = importlib.import_module(f"dpnls.{short}")
            except ImportError:
                continue
        targets = list(modules.values())
        for short, mod in modules.items():
            extra = EXTRA.get(short, ())
            for attr, value in list(vars(mod).items()):
                if getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(value) and not attr.startswith("_"):
                    self._wrap_class(short, value)
                elif inspect.isfunction(value) and (
                        not attr.startswith("_") or attr in extra):
                    name = f"{short}.{attr}"
                    wrapper = self._wrap(name, value, CAPTURE.get(name))
                    self._replace_everywhere(targets, value, wrapper)
        for modname in FFT_MODULES:
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                continue
            for attr in FFT_NAMES:
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                wrapper = self._wrap(f"fft.{modname}.{attr}", fn, _fft_bytes)
                self._replace_everywhere([mod] + targets, fn, wrapper)
        self.missing = [n for n in REQUIRED if n not in self.hooked]

    def uninstall(self):
        """Restore every binding ``install`` replaced, newest first."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
