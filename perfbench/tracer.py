"""Per-function call counts and self times for the qig modules.

The tracer wraps every function and method defined in a qig module and
rebinds the wrapper at every name the original is bound to: module
globals (including the ``from .qspace import as_pure_state`` copies in
other modules), class attributes, and functions held in module-level
dicts, lists and tuples such as the harness's suite table.  Each call
is a span; its self time is its duration minus the time its traced
children cover.
"""

import functools
import inspect
import pstats
import time
import types

LIBRARY = ("simplex", "qspace", "measure", "transforms", "measurement",
           "composite", "dynamics", "sampling")
LAYERS = LIBRARY + ("harness", "cli")
VALIDATORS = ("simplex.as_prob_vec", "simplex.as_tangent_vec", "qspace.as_qvector",
              "qspace.as_pure_state", "transforms.as_orthogonal")


class Tracer:
    """Counts calls and accumulates self time per wrapped function.

    ``calls`` and ``self_s`` are keyed by "<layer>.<qualname>", e.g.
    "qspace.as_pure_state" or "measurement.MeasurementBasis.__post_init__".
    ``code_keys`` maps the same names to cProfile's (file, line, name) keys.
    """

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.code_keys = {}
        self._stack = []

    def reset(self):
        for name in self.calls:
            self.calls[name] = 0
            self.self_s[name] = 0.0

    def _wrap(self, fn, name):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        calls[name], self_s[name] = 0, 0.0
        code = fn.__code__
        self.code_keys[name] = (code.co_filename, code.co_firstlineno, code.co_name)
        clock = time.perf_counter

        def close_span(start):
            duration = clock() - start
            calls[name] += 1
            self_s[name] += duration - stack.pop()
            if stack:
                stack[-1] += duration

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(start)

        @functools.wraps(fn)
        def traced_generator(*args, **kwargs):
            # like cProfile, count each resumption of the generator as a call
            generator = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                start = clock()
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    close_span(start)
                yield item

        return traced_generator if inspect.isgeneratorfunction(fn) else traced

    def install(self, modules):
        """Wrap the functions of ``modules`` ({layer: module}) at every binding."""
        wrappers = {}
        for layer, module in modules.items():
            for obj in list(vars(module).values()):
                if _defined_in(obj, module):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{obj.__name__}")
                elif isinstance(obj, type) and obj.__module__ == module.__name__:
                    self._wrap_class(obj, layer, module)
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("__"):
                    continue
                new = _rebind(obj, wrappers)
                if new is not obj:
                    setattr(module, attr, new)

    def _wrap_class(self, cls, layer, module):
        for attr, member in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if _defined_in(member, module):
                setattr(cls, attr, self._wrap(member, name))
            elif isinstance(member, property) and _defined_in(member.fget, module):
                setattr(cls, attr, property(self._wrap(member.fget, name),
                                            member.fset, member.fdel, member.__doc__))
            elif isinstance(member, (classmethod, staticmethod)) and _defined_in(
                    member.__func__, module):
                setattr(cls, attr, type(member)(self._wrap(member.__func__, name)))


def _defined_in(obj, module):
    return (isinstance(obj, types.FunctionType)
            and obj.__code__.co_filename == module.__file__)


def _rebind(obj, wrappers, depth=0):
    """``obj`` with wrapped functions substituted; dicts and lists change in place."""
    if isinstance(obj, types.FunctionType):
        return wrappers.get(obj, obj)
    if depth >= 3:
        return obj
    if isinstance(obj, dict):
        for key, value in list(obj.items()):
            new = _rebind(value, wrappers, depth + 1)
            if new is not value:
                obj[key] = new
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            new = _rebind(value, wrappers, depth + 1)
            if new is not value:
                obj[i] = new
    elif isinstance(obj, tuple) and not hasattr(obj, "_fields"):
        new = tuple(_rebind(value, wrappers, depth + 1) for value in obj)
        if any(a is not b for a, b in zip(new, obj)):
            return new
    return obj


def layer_totals(tracer):
    """{layer: (calls, self_s)} summed over the layer's traced functions."""
    totals = {layer: [0, 0.0] for layer in LAYERS}
    for name, count in tracer.calls.items():
        entry = totals[name.split(".", 1)[0]]
        entry[0] += count
        entry[1] += tracer.self_s[name]
    return {layer: tuple(entry) for layer, entry in totals.items()}


def cprofile_mismatches(tracer, profile):
    """{name: (traced, cprofile)} for every function whose counts differ.

    ``profile`` is a disabled :class:`cProfile.Profile` that ran over the
    same calls as ``tracer``; its total call count (``ncalls``, recursive
    calls included) is compared.
    """
    stats = pstats.Stats(profile).stats
    out = {}
    for name, key in tracer.code_keys.items():
        profiled = stats[key][1] if key in stats else 0
        if profiled != tracer.calls[name]:
            out[name] = (tracer.calls[name], profiled)
    return out
