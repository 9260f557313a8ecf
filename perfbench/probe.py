"""Set-up probe: from a fresh interpreter, import ``repro`` and build one
workload's generator and orchestrator, then print ``ready``.

``run.py`` starts it as a child process and times it up to that line::

    python3 perfbench/probe.py <workload> <seed>
"""

import sys

import srcpath  # noqa: F401  (puts src/ on sys.path)
import workloads


def main() -> None:
    workloads.build(sys.argv[1], int(sys.argv[2]))
    print("ready", flush=True)


if __name__ == "__main__":
    main()
