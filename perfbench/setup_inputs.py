"""Generate one workload's inputs under `in/` of the current directory.

    python3 perfbench/setup_inputs.py WORKLOAD SEED

`run.py` starts this as a fresh process for every set-up, so set-up time
includes interpreter start and imports. Run as a script, it samples the
host's speed from its first coxkit import on and prints the mean as the last line
of its output, for run.py to scale the set-up time with (see steady.py).
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from pathlib import Path

from steady import SpeedSampler, keep_heap

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def main(argv) -> int:
    # imported here so that a sampled set-up samples their import too
    from coxkit import cli
    from workloads import WORKLOADS

    workload, seed = WORKLOADS[argv[0]], int(argv[1])
    files, commands = workload.setup(seed)
    for path, payload in files.items():
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for command in commands:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = cli.main(command)
        if code != 0:
            print(f"set-up command {command} exited {code}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    start = time.perf_counter()
    keep_heap()
    with SpeedSampler() as sampler:
        code = main(sys.argv[1:])
    print(json.dumps({"speed": sampler.speed(start, time.perf_counter())}))
    sys.exit(code)
