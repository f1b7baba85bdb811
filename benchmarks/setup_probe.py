"""Time one cold set-up of a benchmark workload in a fresh interpreter.

    python3 benchmarks/setup_probe.py '{"iota": [1, 0, 0, 0], "jacobian": 0.03125, "mesh": [32, -1.0, 1.0]}' 10

Prints the seconds from before `import gsfr` until the workload's
correction pair is solved and its reference element, scheme operators
and (for the time-stepping workloads) mesh are built: everything a study
does before its first time step or stability probe. numpy is imported
before the clock starts, so its import time, which the program does not
control, is left out. Then, on the same line, the seconds that the
second argument's number of speed_ref.py units take in this interpreter.
"""

import json
import sys
import time
from pathlib import Path

import numpy  # noqa: F401
import numpy.polynomial.legendre  # noqa: F401
import speed_ref

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

T0 = time.perf_counter()

import gsfr.cli  # noqa: E402,F401  (the CLI imports every layer)
from gsfr import correction, operators  # noqa: E402

spec = json.loads(sys.argv[1])
params = correction.CorrectionParams(len(spec["iota"]) - 1, spec["iota"])
pair = correction.solve_correction(params)
element = operators.build_reference_element(params.p, pair)
ops = operators.build_scheme_operators(element, 1.0, spec["jacobian"])
if spec["mesh"] is not None:
    operators.uniform_mesh(ops, *spec["mesh"])
setup = time.perf_counter() - T0
print(repr(setup), repr(speed_ref.seconds(int(sys.argv[2]))))
