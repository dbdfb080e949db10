"""Time a cold start: ``import magnomech`` and the first baseline point.

Run in a fresh interpreter as ``python3 perfbench/setup_probe.py SRC_DIR``,
where SRC_DIR holds the ``magnomech`` package.  Prints one JSON object
with ``import_s``, ``first_point_s``, the probe's own peak RSS and the
imported package's path.
"""

import json
import resource
import sys
from time import perf_counter

sys.path.insert(0, sys.argv[1])
start = perf_counter()
import magnomech  # noqa: E402

imported = perf_counter()
magnomech.evaluate_point(magnomech.resolve_system_params({}))
done = perf_counter()
peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
print(json.dumps({"import_s": imported - start, "first_point_s": done - imported,
                  "peak_rss_mb": peak_rss_mb, "package": magnomech.__file__}))
