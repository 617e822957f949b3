"""Set-up as a user pays it on every `pampa` call, in a fresh interpreter:
import the package, load the preset, build the scheme and the initial field.
Prints the monotonic clock (ns) at the moment the first step could start.

usage: python3 setup_probe.py <src dir> <preset> '<overrides as JSON>'
"""

import json
import sys
import time

sys.path.insert(0, sys.argv[1])

from pampa import run  # noqa: E402
from pampa.config import load_config  # noqa: E402

cfg = load_config(sys.argv[2]).with_overrides(**json.loads(sys.argv[3]))
scheme = run.build_scheme(cfg)
run.initial_field(cfg, scheme)
print(time.perf_counter_ns())
