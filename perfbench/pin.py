"""Regenerate pinned.json: the digest of every output the benchmark can ask
for, computed by the program at the checkout this is run in.

    PYTHONPATH=src python3 perfbench/pin.py

Only rerun it at a commit whose reports are known to be right (the
workloads' fact checks must pass on its output): the correctness gate
compares every later run against these digests.
"""

from __future__ import annotations

import json
import os
import sys

import gapscan as gs

import workloads as wl


def main() -> int:
    pinned = {name: {} for name in wl.NAMES}
    for size_name, sizes in wl.SIZES.items():
        for name in wl.NAMES:
            size = sizes[name]
            if name == "sparse-high":
                ops = [{"start": s, "width": size["width"]}
                       for s in wl.sparse_starts(size)]
            else:
                ops = [op for sample in wl.plan(name, 0, size, 1) for op in sample]
            for op in ops:
                if name == "dense-par-ckpt":
                    op = dict(op, halt=1)
                data = wl.canon(name, wl.run(gs, name, op, 2, os.getcwd()))
                key = op["start"] if name == "sparse-high" \
                    else op.get("stop", op.get("max_n"))
                pinned[name][str(key)] = wl.digest(data)
                errors = wl.verify(gs, name, op, data, pinned)
                if errors:
                    print(size_name, name, op, errors, file=sys.stderr)
                    return 1
                print(size_name, name, key, "ok", file=sys.stderr)
    with open(os.path.join(wl.HERE, "pinned.json"), "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
