"""One set-up in a fresh interpreter: import qcoherent, then calibrate.

Prints one JSON line with the two parts' durations as soon as set-up is
done; run.py times the whole from process start to that line.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

t0 = perf_counter()
import qcoherent  # noqa: E402,F401
from qcoherent import closedforms  # noqa: E402

t1 = perf_counter()
closedforms.calibrated_reflection()
t2 = perf_counter()
print(json.dumps({"import_s": t1 - t0, "calibration_s": t2 - t1}), flush=True)
