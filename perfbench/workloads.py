"""The benchmark's workloads and the experiment configs it hands to ``onlinelp run``.

Each workload is one uniform-generator sweep, run single-process with
permuted arrivals.  The benchmark seed becomes the config's root seed, so the
program receives only the generated config.  README.md gives the reasons for
each shape; ``BENCHMARK.json`` repeats them, one line per workload.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    m: int
    n_values: Tuple[int, ...]
    algorithms: Tuple[str, ...]
    trials: int
    repair: bool

    def labels(self) -> Tuple[str, ...]:
        """The ``algorithm`` values every cell of ``trials.csv`` must carry."""
        if not self.repair:
            return self.algorithms
        return self.algorithms + tuple(a + "+repair" for a in self.algorithms)

    def config_text(self, seed: int, n_values: Tuple[int, ...] = (), trials: int = 0) -> str:
        """INI text for ``onlinelp run``; ``n_values``/``trials`` shrink it for a probe."""
        return "\n".join((
            "[experiment]",
            f"name = perfbench-{self.name}",
            f"seed = {seed}",
            f"trials = {trials or self.trials}",
            "n_values = " + " ".join(str(n) for n in (n_values or self.n_values)),
            "algorithms = " + ", ".join(self.algorithms),
            "permute = true",
            "workers = 1",
            "",
            "[generator]",
            "family = uniform",
            f"m = {self.m}",
            "",
            "[repair]",
            f"enabled = {'true' if self.repair else 'false'}",
            "",
        ))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="onepass_sweep",
        m=10,
        n_values=(250, 500, 1000, 2000),
        algorithms=("soa/sqrt_n", "soa/sqrt_t", "sfa/sqrt_t", "sna/sqrt_t", "multisoa"),
        trials=10,
        repair=True,
    ),
    Workload(
        name="prefix_lp",
        m=5,
        n_values=(100, 200, 400),
        algorithms=("dla", "pbd"),
        trials=2,
        repair=False,
    ),
)}
