"""Time a fresh process's set-up: import chitomo and build the given channels.

Usage: python3 perfbench/setup_probe.py SPEC.json [SPEC.json ...]
Prints the elapsed seconds and then the calibration kernel's time.
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from chitomo.channels import channel_factory, load_channel_spec  # noqa: E402

for path in sys.argv[1:]:
    channel_factory(load_channel_spec(path))
elapsed = time.perf_counter() - start

from worker import kernel_time  # noqa: E402

print(elapsed, kernel_time())
