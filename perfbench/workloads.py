"""The four workloads: inputs drawn from the seed, the operation each one
times, and the correctness gate every operation's output must pass.

Input generation (`plan`) is stdlib only and runs in run.py's process.
Everything else runs inside a child interpreter that has imported gapscan
from the checkout and is handed the module as `gs`.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))

NAMES = ("dense-1w", "dense-par-ckpt", "sparse-high", "cubes")

# Workloads whose time goes mostly to C loops over buffers wider than L2;
# their probe ticks include the streaming kind (see probe.py).
STREAMING = ("cubes",)

# Sizes of the measured runs and of the smoke run.  The digests pinned in
# pinned.json were computed at these sizes by pin.py; change both together.
# "setups" is how many set-ups each sample measures: set-up-only children
# add to the one in the sample's own child where set-up is short.
SIZES = {
    "full": {
        "dense-1w": {"stop": 10**7, "setups": 4},
        "dense-par-ckpt": {"stop": 2 * 10**7, "chunk": 1 << 16, "setups": 4},
        "sparse-high": {"height": 10**15, "width": 1 << 20, "windows": 64,
                        "per_sample": 4, "setups": 1},
        "cubes": {"max_n": 1000, "setups": 4},
    },
    "smoke": {
        "dense-1w": {"stop": 10**5, "setups": 2},
        "dense-par-ckpt": {"stop": 2 * 10**5, "chunk": 1 << 12, "setups": 2},
        "sparse-high": {"height": 10**9, "width": 1 << 12, "windows": 4,
                        "per_sample": 2, "setups": 1},
        "cubes": {"max_n": 30, "setups": 2},
    },
}

# Independent facts, from the literature rather than from the program.
# pi(x): OEIS A006880 and standard tables.
PRIME_PI = {10**3: 168, 10**5: 9592, 2 * 10**5: 17984, 10**6: 78498,
            10**7: 664579, 2 * 10**7: 1270607, 10**8: 5761455,
            10**9: 50847534}
# Maximal prime gaps: (p, g) where g = q - p beats every earlier gap,
# OEIS A002386 (p) and A005250 (g), with the pair (2, 3) first.
MAXIMAL_GAPS = (
    (2, 1), (3, 2), (7, 4), (23, 6), (89, 8), (113, 14), (523, 18),
    (887, 20), (1129, 22), (1327, 34), (9551, 36), (15683, 44), (19609, 52),
    (31397, 72), (155921, 86), (360653, 96), (370261, 112), (492113, 114),
    (1349533, 118), (1357201, 132), (2010733, 148), (4652353, 154),
    (17051707, 180), (20831323, 210), (47326693, 220),
)


def load_pinned() -> dict:
    with open(os.path.join(HERE, "pinned.json"), encoding="utf-8") as fh:
        return json.load(fh)


def sparse_starts(size: dict) -> list[int]:
    """The pinned window starts of sparse-high, spread over about 6e11
    numbers above the height so every window sieves with the same base
    primes, give or take."""
    return [size["height"] + i * 9_999_991_337 for i in range(size["windows"])]


def plan(name: str, seed: int, size: dict, samples: int) -> list[list[dict]]:
    """Operations for `samples` child processes, drawn from `seed`.

    Dense workloads vary only the chunking, which never changes a report;
    sparse-high draws its windows; cubes has one fixed input.
    """
    rng = random.Random(f"{name}:{seed}")
    out = []
    for _ in range(samples):
        if name == "dense-1w":
            ops = [{"stop": size["stop"],
                    "chunk": rng.randrange(size["stop"] // 3, 2 * size["stop"])}]
        elif name == "dense-par-ckpt":
            chunk = size["chunk"] + rng.randrange(-size["chunk"] // 16,
                                                  size["chunk"] // 16)
            chunks = -(-(size["stop"] - 2) // chunk)
            ops = [{"stop": size["stop"], "chunk": chunk,
                    "halt": rng.randrange(chunks // 3, 2 * chunks // 3)}]
        elif name == "sparse-high":
            starts = sparse_starts(size)
            ops = [{"start": s, "width": size["width"]}
                   for s in rng.sample(starts, size["per_sample"])]
        else:
            ops = [{"max_n": size["max_n"]}]
        out.append(ops)
    return out


def digest(canon) -> str:
    text = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def pinned_digest(pinned: dict, name: str, op: dict) -> str | None:
    table = pinned[name]
    if name == "sparse-high":
        return table.get(str(op["start"]))
    return table.get(str(op.get("stop", op.get("max_n"))))


# ---- child side -----------------------------------------------------------


def top(name: str, ops: list[dict]) -> int:
    """Largest number any operation sieves, for the base-prime warm-up."""
    if name == "sparse-high":
        return max(op["start"] + op["width"] for op in ops)
    if name == "cubes":
        return (max(op["max_n"] for op in ops) + 1) ** 3
    return max(op["stop"] for op in ops)


def checkpoint_path(scratch: str) -> str:
    return os.path.join(scratch, f"ckpt-{os.getpid()}.json")


def run(gs, name: str, op: dict, workers: int, scratch: str, progress=None):
    """The timed operation: what a user of gapscan waits for.  `progress`
    goes to run_scan (the traced run stamps merges with it)."""
    if name == "cubes":
        return [gs.check_cube_interval(n) for n in range(1, op["max_n"] + 1)]
    if name == "sparse-high":
        config = gs.ScanConfig(op["start"], op["start"] + op["width"], workers=1)
        return gs.run_scan(config, progress)
    if name == "dense-1w":
        config = gs.ScanConfig(2, op["stop"], chunk_size=op["chunk"], workers=1)
        return gs.run_scan(config, progress)
    path = checkpoint_path(scratch)
    config = gs.ScanConfig(2, op["stop"], chunk_size=op["chunk"],
                           workers=workers, checkpoint_path=path)
    gs.run_scan(config, progress, halt_after_chunks=op["halt"])
    report = gs.run_scan(config, progress)
    os.remove(path)
    return report


def canon(name: str, output):
    """The output in JSON form, without elapsed_ns."""
    if name == "cubes":
        return [[r.n, r.count, r.witness, r.status.value] for r in output]
    data = output.to_json_dict()
    data.pop("elapsed_ns")
    return data


def _check_pair(gs, p: int, q: int, errors: list, what: str) -> None:
    if not (gs.is_prime(p) and gs.is_prime(q)):
        errors.append(f"{what}: ({p}, {q}) is not a prime pair")
    elif any(gs.is_prime(n) for n in range(p + 1, q)):
        errors.append(f"{what}: ({p}, {q}) are not consecutive primes")


def verify(gs, name: str, op: dict, data, pinned: dict,
           got: str | None = None) -> list[str]:
    """Every check one output must pass; an empty list means correct.

    The pinned digest covers every field; the facts below come from the
    literature or from the independent Miller-Rabin path, so a digest pinned
    from a wrong program would not pass either.  `got` is the digest of
    `data` when the caller has already taken it.
    """
    errors = []
    want = pinned_digest(pinned, name, op)
    if want is None:
        errors.append("no pinned digest for this input")
    elif (got or digest(data)) != want:
        errors.append("report differs from the pinned digest")
    if name == "cubes":
        total = 0
        for n, count, witness, status in data:
            total += count
            if status != "PASS" or not n**3 < witness < (n + 1) ** 3 \
                    or not gs.is_prime(witness):
                errors.append(f"cube interval {n}: bad result")
            if (n + 1) ** 3 in PRIME_PI and total != PRIME_PI[(n + 1) ** 3]:
                errors.append(f"pi({(n + 1) ** 3}) = {total}")
        if len(data) != op["max_n"]:
            errors.append("wrong number of cube intervals")
        return errors

    pairs = int(data["pairs_checked"])
    if data["violations"]:
        errors.append("violations reported on genuine data")
    for claim, counter in data["per_claim"].items():
        if counter["failed"] != "0":
            errors.append(f"{claim} failed")
        # The pair (2, 3) has no midpoint and sees only the cubed gap bound.
        skipped = data["range"][0] == "2" and claim != "THEOREM_CUBE_BOUND"
        if int(counter["checked"]) != pairs - skipped:
            errors.append(f"{claim} checked count")
    if len(data["per_claim"]) != 7:
        errors.append("not every claim ran")
    records = [(int(r["p"]), int(r["g"])) for r in data["gap_records"]]
    if name == "sparse-high":
        start = op["start"]
        if not records or any(gs.is_prime(n) for n in range(start, records[0][0])):
            errors.append("first prime of the window is wrong")
        for p, g in records:
            _check_pair(gs, p, p + g, errors, "gap record")
        ratio = data["max_ratio"]
        _check_pair(gs, int(ratio["p"]), int(ratio["p"]) + int(ratio["g"]),
                    errors, "max ratio")
    else:
        stop = op["stop"]
        if pairs != PRIME_PI[stop]:
            errors.append(f"pairs_checked {pairs} != pi({stop})")
        if records != [r for r in MAXIMAL_GAPS if r[0] < stop]:
            errors.append("gap records differ from OEIS A002386")
    return errors


def tamper(name: str, data):
    """A copy of a correct output with one number changed."""
    data = json.loads(json.dumps(data))
    if name == "cubes":
        data[-1][1] += 1
    else:
        data["pairs_checked"] = str(int(data["pairs_checked"]) + 1)
    return data
