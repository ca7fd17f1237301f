"""The closed forms and the kinematics import no numpy and no oracle module.

A subprocess blocks numpy, fock, amplifier, statistics, protocol and cli at
import, then computes closed-form values, a loop, a boost and a threshold
that must equal, bit for bit, the ones computed here with every module
loaded.
"""

from runs import run_python

BLOCKER = """
import sys

BLOCKED = {"stimamp.fock", "stimamp.amplifier", "stimamp.statistics", "stimamp.protocol", "stimamp.cli"}


class Blocker:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy.") or name in BLOCKED:
            raise ImportError(f"{name} is outside the closed-form import boundary")
        return None


sys.meta_path.insert(0, Blocker())
"""

VALUES = """
from dataclasses import astuple
from fractions import Fraction

from stimamp.closed_form import Variant, closed_form_probs, differential_sigma_20, sweep
from stimamp.kinematics import Event, LoopConfig, boost, run_loop, violation_threshold

values = [differential_sigma_20(0.3), violation_threshold(2.0)]
# kinematics reads its reals through closed_form's rule, a Fraction's too.
values += [run_loop(LoopConfig(u=Fraction(3), beta=0.5)).delta_t, *astuple(boost(Event(1.0, 2.0), 0.5))]
for variant in Variant:
    values += astuple(closed_form_probs(0.3, variant))
    values += [x for row in sweep(0.0, 1.0, 3, variant) for x in row]
"""

REPORT = """
assert "numpy" not in sys.modules, "numpy was imported"
print(" ".join(map(float.hex, values)))
"""


def test_closed_form_imports_neither_numpy_nor_the_oracles():
    proc = run_python("-c", BLOCKER + VALUES + REPORT, text=True)
    assert proc.returncode == 0, proc.stderr
    namespace = {}
    exec(VALUES, namespace)
    assert proc.stdout.split() == [float.hex(value) for value in namespace["values"]]
