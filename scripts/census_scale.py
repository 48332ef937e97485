#!/usr/bin/env python3
"""Time the record surface's line census at growing fields.

    python3 scripts/census_scale.py

Runs `enumerate_lines` on the record surface s5_mu0 (defined over GF(4))
over GF(2^4), GF(2^8), GF(2^10) and GF(2^12), each in a fresh process,
and prints, per field, the census's wall time in seconds, the process's
peak RSS in MB (`ru_maxrss`, the imports and field tables included) and
the number of lines.  Exits 1, printing what is wrong, when a line count
differs from PINNED or when the GF(2^12) census passes LIMIT, the 10 s
and 300 MB that ROADMAP item 5 holds it to; it takes about 2 s and
240 MB on a 2-vCPU machine.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# field degree -> lines of the record surface over GF(2^degree); its 60
# lines are defined over GF(16), which GF(2^10) does not contain
PINNED = {4: 60, 8: 60, 10: 0, 12: 60}

# field degree -> the most seconds and MB of peak RSS its census may take
LIMIT = {12: (10.0, 300.0)}

CENSUS = """
import json, resource, sys, time
from quartic_lines.geometry import enumerate_lines
from quartic_lines.surfaces import get_surface
surface = get_surface("s5_mu0")
ext = int(sys.argv[1]) // surface.spec.degree
t0 = time.perf_counter()
lines = enumerate_lines(surface, ext=ext)
seconds = time.perf_counter() - t0
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"s": seconds, "rss_mb": rss, "lines": len(lines)}))
"""


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    status = 0
    for degree, pinned in PINNED.items():
        out = subprocess.run([sys.executable, "-c", CENSUS, str(degree)],
                             env=env, check=True, capture_output=True,
                             text=True).stdout
        run = json.loads(out)
        print(f"GF(2^{degree:<2})  {run['s']:8.3f} s  "
              f"{run['rss_mb']:6.1f} MB  {run['lines']:3d} lines")
        if run["lines"] != pinned:
            print(f"  line count {run['lines']} differs from the pinned "
                  f"{pinned}")
            status = 1
        if degree in LIMIT:
            seconds, mb = LIMIT[degree]
            if run["s"] > seconds or run["rss_mb"] > mb:
                print(f"  passes the limit of {seconds:g} s and {mb:g} MB")
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
