#!/usr/bin/env python3
"""Run the scale ladder's rungs through the package API, one JSON line each.

    python3 scripts/ladder.py [--rung NAME ...] [--top N]

The rungs are:

* h3: H^1..H^6 of the 3-dim Heisenberg algebra with adjoint coefficients;
* ternary_identity: H^1..H^5 of the identity morphism of the ternary
  algebra [f, f, f] = e (d^1..d^5 of its morphism complex);
* h3_sheared: H^1..H^5 of h3 Yau-twisted by a shear, the rung whose cochain
  spaces come from the constraint kernel.

Each line is {"rung", "degrees", "seconds", "ru_maxrss_mb", "dims"}: the wall
time from building the complex to the last dimension, the process's peak
resident memory so far (so run one rung per process, with --rung, for a
rung's own peak), and dim H^p for p = 1..top.  --top N stops every rung at
degree N at most, for smoke runs.  The script times nothing else and keeps
no state between rungs.
"""

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from homleibniz.algebra import adjoint_representation  # noqa: E402
from homleibniz.cochain import CochainComplex  # noqa: E402
from homleibniz.fixtures import h3, h3_sheared, identity_morphism, ternary_fff_e  # noqa: E402
from homleibniz.morphism_complex import MorphismComplex  # noqa: E402


def _adjoint_complex(algebra):
    return CochainComplex(algebra, adjoint_representation(algebra))


RUNGS = {
    "h3": (lambda: _adjoint_complex(h3()), 6),
    "ternary_identity": (lambda: MorphismComplex(identity_morphism(ternary_fff_e())), 5),
    "h3_sheared": (lambda: _adjoint_complex(h3_sheared()), 5),
}


def run_rung(name, top=None):
    """{"rung", "degrees", "seconds", "ru_maxrss_mb", "dims"} of one rung."""
    build, last = RUNGS[name]
    last = min(last, top or last)
    t0 = time.perf_counter()
    cx = build()
    dims = [cx.cohomology_dim(p) for p in range(1, last + 1)]
    seconds = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    return {"rung": name, "degrees": [1, last], "seconds": round(seconds, 4), "ru_maxrss_mb": round(rss_mb, 1), "dims": dims}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rung", action="append", choices=list(RUNGS), help="a rung to run (default: all, in order)")
    parser.add_argument("--top", type=int, help="stop every rung at this degree at most")
    args = parser.parse_args(argv)
    if args.top is not None and args.top < 1:
        parser.error("--top must be at least 1")
    for name in args.rung or RUNGS:
        print(json.dumps(run_rung(name, args.top)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
