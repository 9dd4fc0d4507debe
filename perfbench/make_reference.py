"""Regenerate reference.json: the exact optimum of every pool instance.

    python3 perfbench/make_reference.py

Takes about a minute on one core. Shapes beyond the exact oracle's
enumeration cap get null entries, and their ops skip the reference check.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from workloads import REFERENCE_PATH, WORKLOADS  # noqa: E402

from nswforge.oracle import exact_config_lp, exact_nsw  # noqa: E402


def main() -> None:
    optimum: dict[str, dict[str, float] | None] = {}
    for shapes in WORKLOADS.values():
        for shape in shapes:
            if not shape.has_reference:
                optimum[shape.key] = None
                continue
            solve = exact_config_lp if shape.op == "exact_config_lp" else exact_nsw
            optimum[shape.key] = {str(k): solve(shape.instance(k)).optimum for k in shape.seeds}
            print(shape.key, "done", flush=True)
    doc = {"about": "exact optimum of pool instance k of each shape (NSW; "
                    "welfare for the configuration LP), null past the exact cap",
           "optimum": optimum}
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
