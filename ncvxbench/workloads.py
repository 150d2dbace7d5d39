"""The three workloads: op sequences built from the workload seed.

An op is one instance of every dimension class of a theorem suite on
verify-lp (one instance on verify-oracle) and one CLI request on
cli-cold.  Each op returns the text it produced; its check
runs after the timed section, so cross-checks cost no measured time.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import cli_requests
from ncvx import cli, oracle

# The suite whose instances spend most of their time in the LP kernel
# (solve_lp self time 82 %) and whose cost per op varies least: over
# five seeds the timing metrics of a run spread by 0.01-0.04.  thm6.1,
# prop2.5 and prop6.2 are LP-bound too, but the costs of their R^2
# instances spread over a factor of 2.7-3 between quartiles, with a tail to
# seconds; with thm6.1 beside lemma7.4 a run held 190 ops and its
# p90 and ops_per_s spread by 0.15 and 0.13 over five seeds.
VERIFY_LP = ("lemma7.4",)

# Suites where the oracle's independent checking (Fourier-Motzkin fiber
# tests and probe comparisons) leads, and the LP kernel is under half.
VERIFY_ORACLE = ("thm2.2d", "thm2.4", "cor3.2", "cor3.4")

# instances per suite between cache clears: one `ncvx verify <theorem>`
# process at its default --count 100, which keeps every cache across its
# instances and starts the next theorem in a fresh process
BLOCK = 100

# Instance costs cluster by the dimensions a checker draws first from its
# instance rng, each rng.randint(1, 2): a lemma7.4 instance with q = 2
# costs about ten times one with q = 1.  So a verify-lp op runs one
# instance of every dimension class, and every op and every run has the
# same mix of sizes; the seed chooses the instances within each class.
# With one instance per op, half the ops took 2-10 ms and half 45-90 ms,
# and the median of a run fell in the gap between them.  A suite not
# listed here runs one instance per op.
DIM_DRAWS = {"lemma7.4": 2}


@dataclass
class Op:
    label: str
    run: Callable[[], str]
    check: Callable[[str], Optional[str]]
    clear_first: bool


def _dims(th: str, inst: int) -> tuple:
    """The dimension class of `theorem_suite(th, count=1, seed=inst)`:
    its leading draws from the instance rng, seeded as theorem_suite
    seeds instance 0 under DEFAULT_SPEC."""
    rng = random.Random(inst * 1_000_003)
    return tuple(rng.randint(1, 2) for _ in range(DIM_DRAWS.get(th, 0)))


def _suite_ops(th: str, seed: int) -> Iterator[Op]:
    """Ops of one suite: each runs the next instance of every dimension
    class from the seed's instance stream; the caches are cleared every
    BLOCK instances."""
    classes = list(itertools.product((1, 2), repeat=DIM_DRAWS.get(th, 0)))
    waiting = {c: collections.deque() for c in classes}
    stream = itertools.count(seed * 1_000_000)

    def make(group):
        def run():
            docs = []
            for inst in group:
                rep = oracle.theorem_suite(th, count=1, seed=inst)
                docs.append({"theorem": rep.theorem, "seed": inst, "passes": rep.passes, "failures": rep.failures})
            return json.dumps(docs)

        def check(text):
            bad = [f"{th} seed {doc['seed']}: {doc['failures']}" for doc in json.loads(text) if doc["passes"] != 1]
            return "; ".join(bad) or None

        return run, check

    done = 0
    while True:
        group = []
        for c in classes:
            while not waiting[c]:
                inst = next(stream)
                waiting[_dims(th, inst)].append(inst)
            group.append(waiting[c].popleft())
        run, check = make(group)
        yield Op(th, run, check, clear_first=(done % BLOCK == 0))
        done += len(group)


class CliPool:
    """The cli-cold inputs, generated and written to disk at set-up."""

    def __init__(self, seed: int, workdir: str):
        os.makedirs(workdir, exist_ok=True)
        self.pool = cli_requests.make_pool(seed)
        for k, copies in enumerate(self.pool):
            for j, req in enumerate(copies):
                req.write(workdir, f"v{k:02d}c{j}")

    def ops(self) -> Iterator[Op]:
        def make(req):
            def run():
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(list(req.paths))
                return json.dumps({"code": code, "stdout": out.getvalue()})

            def check(text):
                rec = json.loads(text)
                body = rec["stdout"].strip()
                try:
                    doc = json.loads(body) if body else None
                except json.JSONDecodeError:
                    return f"{req.verb}: stdout is not one JSON document"
                bad = req.check(doc, rec["code"])
                return None if bad is None else f"{req.verb} {req.paths}: {bad}"

            return Op(req.verb, run, check, clear_first=True)

        for req in cli_requests.schedule(self.pool):
            yield make(req)


def build(name: str, seed: int, workdir: str) -> list:
    """Set the workload up; returns its segments, each a factory of a
    fresh op iterator.  A run gives each segment an equal share of its
    time, so the mix of suites does not depend on how fast the host is."""
    if name == "verify-lp":
        return [functools.partial(_suite_ops, th, seed) for th in VERIFY_LP]
    if name == "verify-oracle":
        return [functools.partial(_suite_ops, th, seed) for th in VERIFY_ORACLE]
    pool = CliPool(seed, workdir)
    return [pool.ops]
