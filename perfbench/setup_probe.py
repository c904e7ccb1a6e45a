"""One cold start: import cloee, parse a scenario file, build the LinkModel.

    python3 perfbench/setup_probe.py SCENARIO

Prints one JSON line with the in-process split of the start-up time; the
caller times the whole interpreter from outside.
"""

import sys
import time

t_start = time.perf_counter()
import json  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
t_numpy = time.perf_counter()
import numpy  # noqa: E402,F401

t_cloee = time.perf_counter()
import cloee  # noqa: E402,F401
from cloee.scenario import parse_scenario  # noqa: E402

t_parse = time.perf_counter()
scenario = parse_scenario(Path(sys.argv[1]).read_text(), sys.argv[1])
t_model = time.perf_counter()
scenario.link_model()
t_end = time.perf_counter()
print(json.dumps({
    "import_numpy_s": t_cloee - t_numpy,
    "import_s": t_parse - t_numpy,
    "parse_scenario_ms": (t_model - t_parse) * 1e3,
    "link_model_ms": (t_end - t_model) * 1e3,
    "in_process_s": t_end - t_start,
}))
