"""Regenerate ``fingerprints.json``: each workload's output fingerprint at
the default seed and at the held-out seed.

Only a change that is meant to alter simulated outcomes re-pins::

    python3 perfbench/pin.py
"""

import json

import srcpath  # noqa: F401  (puts src/ on sys.path)
import checks
import run
import workloads


def main() -> None:
    pins = {
        name: {
            str(seed): run.run_once(name, seed, traced=False).fingerprint
            for seed in (checks.DEFAULT_SEED, checks.HELD_OUT_SEED)
        }
        for name in workloads.CONFIGS
    }
    checks.PINS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(json.dumps(pins, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
