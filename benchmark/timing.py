"""The clock every benchmark timing uses.

The program is single-threaded and CPU-bound (BLAS is pinned to one
thread), so on an idle host its CPU time equals its wall time. On a shared
host it is not: other tenants' processes preempt it, which shows as wall
time with involuntary context switches and no CPU time, and that share
varies from second to second. Process CPU time (user plus system) leaves
that out, so every unit, set-up and span is timed with it. Run lengths
(``--seconds``) are still wall time.
"""

import time

clock = time.process_time
