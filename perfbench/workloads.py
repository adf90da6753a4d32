"""Workload definitions and the seeded inputs they run on.

Each workload is one ``perfloc evaluate`` over a small corpus assembled in a
scratch directory: the chosen problems' programs and metadata are copied
from ``corpus/``, and their ``suite.json`` is either generated here from the
benchmark seed or the committed one. The generator depends on the standard
library only, so the inputs never come from the code under test.
"""

import json
import os
import random
import shutil

DEFAULT_SEED = 20220822
ORDERINGS = ("sorted", "reverse", "random")
VALUE_RANGE = 100

# ``sizes`` None keeps the committed suites; ``parallel`` runs evaluate at
# --jobs $(nproc) and passes the benchmark seed to ``evaluate --seed``.
WORKLOADS = {
    "exec-heavy": {
        "problems": ("bubble_loops", "insertion"),
        "sizes": tuple(range(12, 22)),
        "parallel": False,
    },
    "frontend-heavy": {
        "problems": ("heap", "merge"),
        "sizes": tuple(range(1, 7)),
        "parallel": False,
    },
    "corpus-par": {
        "problems": ("bubble", "cocktail", "quick", "radix", "selection",
                     "shell"),
        "sizes": None,
        "parallel": True,
    },
}

# Node count N of each original, fixed here so the rank check does not take
# N from the program it is checking.
NODE_COUNTS = {
    "bubble_loops": 58, "insertion": 56, "heap": 160, "merge": 201,
    "bubble": 52, "cocktail": 115, "quick": 94, "radix": 133,
    "selection": 49, "shell": 70,
}


def generate_suite(seed, sizes):
    """One test per size; orderings cycle sorted, reverse, random so only
    every third test depends on the seed's shuffle. Expected outputs are
    Python's ``sorted``."""
    rng = random.Random(seed)
    rows = []
    for i, size in enumerate(sizes):
        values = [rng.randrange(VALUE_RANGE) for _ in range(size)]
        ordering = ORDERINGS[i % len(ORDERINGS)]
        if ordering == "sorted":
            values.sort()
        elif ordering == "reverse":
            values.sort(reverse=True)
        rows.append({"input": values, "args": [size],
                     "expected": sorted(values)})
    return rows


def materialise(root, name, seed, dest):
    """Build the workload's corpus under ``dest`` from ``root/corpus``.
    Returns the problem directories in the order ``evaluate`` visits them."""
    spec = WORKLOADS[name]
    suite = None
    if spec["sizes"] is not None:
        suite = json.dumps(generate_suite(seed, spec["sizes"]), indent=1)
    dirs = []
    for problem in spec["problems"]:
        src = os.path.join(root, "corpus", problem)
        dst = os.path.join(dest, problem)
        shutil.copytree(src, dst)
        if suite is not None:
            with open(os.path.join(dst, "suite.json"), "w",
                      encoding="utf-8") as fh:
                fh.write(suite + "\n")
        dirs.append(dst)
    return sorted(dirs)


def evaluate_seed(name, seed):
    """The ``evaluate --seed`` value: the benchmark seed where the workload
    uses committed suites, perfloc's own default otherwise."""
    return seed if WORKLOADS[name]["parallel"] else DEFAULT_SEED
