"""Set-up time in a fresh process: import ``causalprobe``, then load and
validate one workload's inputs, as a user's script does before its first op.

Usage: python3 perfbench/setup_probe.py SRC_DIR INPUTS_JSON
Prints one JSON line: {"setup_s": ..., "import_s": ...}.
"""

import json
import sys
import time


def main(argv) -> int:
    src, inputs = argv[0], json.loads(argv[1])
    sys.path.insert(0, src)
    import workloads    # standard library only; the timer starts after it

    start = time.perf_counter()
    import causalprobe
    from causalprobe.harness import Scenario
    imported = time.perf_counter()
    for path in inputs.get("scenarios", ()):
        with open(path) as fh:
            Scenario.from_dict(json.load(fh))
    if "oracle" in inputs:
        workloads.oracle_inputs(inputs["oracle"])
    done = time.perf_counter()
    if not causalprobe.__file__.startswith(src):
        print(f"setup_probe: imported {causalprobe.__file__}, not from {src}",
              file=sys.stderr)
        return 1
    print(json.dumps({"setup_s": done - start, "import_s": imported - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
