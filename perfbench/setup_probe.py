"""Set-up probe: a fresh process that gets one workload ready, then says so.

Run by ``run.py``, which times it from launch to the ``ready`` line:
interpreter start, ``import repro.api``, config resolution and the
simulation build.  The line carries the host-speed factor sampled in
this process while it set up (see ``hostspeed.py``); a factor sampled
in the waiting parent, on the other core, barely tracked it.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

if __name__ == "__main__":
    from hostspeed import HostSpeed

    with HostSpeed() as speed:
        from workloads import prepare

        prepare(sys.argv[1], int(sys.argv[2]), sys.argv[3])
    print("ready", speed.factor(), flush=True)
