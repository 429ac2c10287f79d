"""``verify`` enters every public name of the library, or the name is listed here.

A function that no check runs is one whose defects no check can see.  Each
public function, method, property and class of the eight library modules is
either entered by ``verify all`` at the default settings, or named in
:data:`UNREACHED` with the reason it stays.  Exception classes are exempt.
"""

import sys
import types

import qig
from qig import harness

# public names that verify never enters -> why each stays
UNREACHED = {
    "qspace.to_phase_rep": "the api-calls benchmark workload times it",
    "qspace.from_complex": "the benchmark self-test traces it as a hot function",
    "measurement.simulate_measurement": "the api-calls benchmark workload times it",
    "transforms.block_decomposition": "the benchmark self-test traces it; classify runs "
                                      "the _decompose it wraps",
    "qspace.gauge_shift": "the gauge-invariance witness that ROADMAP.md plans, measuring "
                          "in every basis, is to call it",
}


def public_code(module):
    """(label, code object) of each public function, method, property and class of ``module``."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, types.FunctionType):
            yield name, obj.__code__
        elif isinstance(obj, type) and not issubclass(obj, Exception):
            yield name, obj.__init__.__code__
            for attr, member in vars(obj).items():
                fn = member.fget if isinstance(member, property) else member
                fn = getattr(fn, "__func__", fn)  # a classmethod's or staticmethod's function
                if not attr.startswith("_") and isinstance(fn, types.FunctionType):
                    yield f"{name}.{attr}", fn.__code__


def test_verify_enters_every_public_name():
    labels = {code: f"{module}.{label}" for module in qig.__all__
              for label, code in public_code(getattr(qig, module))}
    assert set(UNREACHED) <= set(labels.values())
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        reports = list(harness.run_suite(harness.suites(), harness.Settings()))
    finally:
        sys.setprofile(previous)
    assert [r["status"] for r in reports] == ["pass"] * len(harness.CHECKS)
    assert sorted(labels[code] for code in labels.keys() - entered) == sorted(UNREACHED)
