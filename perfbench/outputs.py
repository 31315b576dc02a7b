"""Output checks: stored references, exact counters and byte identity.

`frontier.csv`, `report.json` and `verify.json` must match the reference
byte for byte.  `region.json` is compared by parsed content, numbers within
`REGION_TOL`: a reordering of floating-point sums is expected to move
constraint values by about 1e-16 without changing any point, channel or
counter.  The reference of a seeded workload exists only for the seeds in
`REFERENCE_SEEDS`; on any other seed an invocation is checked by its exit
code, its counters and byte identity with the run's other invocations.
"""

import gzip
import hashlib
import json
import os

REFERENCE_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
REFERENCE_SEEDS = range(32)
REGION_TOL = 1e-12


def reference_dir(workload, seed: int) -> str | None:
    key = f"seed-{seed}" if workload.n_seeds else "any"
    path = os.path.join(REFERENCE_ROOT, workload.name, key)
    return path if os.path.isdir(path) else None


def digest(out_dir: str) -> tuple:
    """({file name: sha256}, total bytes) of every file an invocation wrote."""
    hashes = {}
    size = 0
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        hashes[name] = hashlib.sha256(data).hexdigest()
        size += len(data)
    return hashes, size


def _load_json(path: str):
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def counters(workload, out_dir: str, doc=None) -> dict:
    """The exact counters an invocation's outputs carry."""
    command = workload.args[0]
    if command == "region":
        doc = doc or _load_json(os.path.join(out_dir, "region.json"))
        with open(os.path.join(out_dir, "frontier.csv"), encoding="utf-8") as fh:
            rows = len(fh.read().splitlines()) - 1
        return {"evaluated": doc["meta"]["evaluated"], "rejected": doc["meta"]["rejected"],
                "points": len(doc["points"]), "frontier_rows": rows}
    if command == "verify":
        doc = _load_json(os.path.join(out_dir, "verify.json"))
        case3 = doc["case3"]
        return {"case3": case3["meta"], "case3_frontier_rows": len(case3["frontier"]),
                "pass": doc["pass"]}
    doc = _load_json(os.path.join(out_dir, "report.json"))
    return {"failures": doc["failures"], "trials": doc["trials"], "seeds": doc["seeds"]}


def _close(a, b, path: str, problems: list) -> None:
    if len(problems) >= 5:
        return
    numbers = (int, float)
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            problems.append(f"{path}: keys {sorted(a)} != {sorted(b)}")
            return
        for key in a:
            _close(a[key], b[key], f"{path}.{key}", problems)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            problems.append(f"{path}: length {len(a)} != {len(b)}")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            _close(x, y, f"{path}[{i}]", problems)
    elif (isinstance(a, numbers) and isinstance(b, numbers)
          and not isinstance(a, bool) and not isinstance(b, bool)):
        if abs(a - b) > REGION_TOL:
            problems.append(f"{path}: {a!r} differs from reference {b!r}")
    elif a != b or type(a) is not type(b):
        problems.append(f"{path}: {a!r} != reference {b!r}")


def check(workload, out_dir: str, ref_dir: str | None) -> tuple:
    """(problems, counters) of one invocation's outputs against the reference."""
    problems = []
    doc = None
    for name in workload.outputs:
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            problems.append(f"{name} missing")
            continue
        if ref_dir is None:
            continue
        if name == "region.json":
            doc = _load_json(path)
            _close(doc, _load_json(os.path.join(ref_dir, name + ".gz")), "region.json",
                   problems)
            continue
        with open(path, "rb") as fh, open(os.path.join(ref_dir, name), "rb") as ref:
            if fh.read() != ref.read():
                problems.append(f"{name} differs from the reference")
    if problems:
        return problems, None
    found = counters(workload, out_dir, doc)
    if ref_dir is not None:
        expected = _load_json(os.path.join(ref_dir, "counters.json"))
        if found != expected:
            problems.append(f"counters {found} != reference {expected}")
    return problems, found


def check_run(workload, seed: int, invocations: list) -> dict:
    """Check every invocation of a run; returns failures, problems and counters.

    An invocation fails on a non-zero exit code, on a failed output check,
    or when its files are not byte-identical to the run's first good
    invocation.
    """
    ref_dir = reference_dir(workload, seed)
    problems = []
    failed = 0
    first = None       # (out dir, hashes, problems) of the first invocation that exited 0
    found = None
    sizes = []
    for inv in invocations:
        if inv["code"] != 0:
            failed += 1
            problems.append(f"{inv['out']}: exit code {inv['code']}: {inv['log'][-500:]}")
            continue
        hashes, size = digest(inv["out"])
        sizes.append(size)
        if first is None:
            bad, found = check(workload, inv["out"], ref_dir)
            first = (inv["out"], hashes, bad)
            problems += bad
        elif hashes != first[1]:
            failed += 1
            problems.append(f"{inv['out']}: output differs from {first[0]}")
            continue
        if first[2]:
            failed += 1
    return {"failed": failed, "problems": problems, "counters": found,
            "bytes": sizes, "reference": ref_dir is not None}
