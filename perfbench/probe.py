"""Set-up probe: time `import symcap` plus building the inputs of pass 0.

    python3 perfbench/probe.py WORKLOAD SEED
    python3 perfbench/probe.py --baseline

Prints {"seconds": ...}.  The first form times symcap's set-up.  The
second times only the imports of numpy and the scipy modules that symcap
uses, and no symcap code; run.py divides each set-up by the baseline timed
just before it, to correct for the host's speed.  An import can be timed
only once per process, which is why each probe is its own process.
"""

import json
import sys
from time import perf_counter

t0 = perf_counter()
if sys.argv[1:] == ["--baseline"]:
    import numpy  # noqa: E402, F401
    import scipy.integrate  # noqa: E402, F401
    import scipy.optimize  # noqa: E402, F401
else:
    import workloads  # noqa: E402

    workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), 0)
print(json.dumps({"seconds": perf_counter() - t0}))
