#!/usr/bin/env python3
"""Search the sign-convention space for delta-squared-zero conventions.

Runs the full 128-convention search against the fixture battery and prints
the survivors, flagging the frozen default.  A nonempty survivor set
containing the default is the precondition for every cohomology number
this package reports.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from homleibniz.cochain import DEFAULT_CONVENTION, calibration_report
from homleibniz.fixtures import calibration_battery


def main():
    t0 = time.perf_counter()
    passing = calibration_report(calibration_battery())
    ms = (time.perf_counter() - t0) * 1000
    print(f"{len(passing)} of 128 conventions pass the battery ({ms:.0f} ms):")
    for conv in sorted(passing):
        mark = "  <- default" if conv == DEFAULT_CONVENTION else ""
        print(f"  {conv.label()}{mark}")
    if DEFAULT_CONVENTION not in passing:
        print("ERROR: the frozen default convention failed the battery")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
