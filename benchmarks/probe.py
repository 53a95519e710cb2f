"""Set-up probe, run in a fresh interpreter by run.py.

Times `import numpy`, then `import cwwkit`, then building the default
codebook and schema, and prints the cumulative CPU and wall seconds as
one JSON object. numpy is imported first only so that its share can be
reported; cwwkit imports it anyway, so the total is the set-up a user pays.
"""

import json
from time import perf_counter, process_time


def _now():
    return process_time(), perf_counter()


start = _now()
import numpy  # noqa: E402,F401

numpy_done = _now()
import cwwkit  # noqa: E402

import_done = _now()
cwwkit.default_codebook()
cwwkit.build_default_schema()
setup_done = _now()

result = {}
for name, point in (("import_numpy", numpy_done), ("import", import_done),
                    ("setup", setup_done)):
    result[f"{name}_s"] = point[0] - start[0]
    result[f"{name}_wall_s"] = point[1] - start[1]
print(json.dumps(result))
