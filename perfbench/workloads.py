"""Workload definitions, pinned environment and reference checks.

Nothing here imports numpy or hmmorder at module level: ``run.py``
reads the workload names without paying for those imports, and the
worker imports them inside its timed set-up.
"""

import json
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"

#: BLAS threads for every benchmark process.  One thread, not the two
#: cores of the reference machine: on a shared virtual machine a second
#: BLAS thread waits whenever the hypervisor stalls the other core, and
#: per-call times then vary about twice as much (see README.md).
BLAS_THREADS = 1
BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: the hidden order of every simulated scenario
TRUE_ORDER = 3

#: largest relative deviation of tau, r_l or sigma from the reference
#: that still counts as correct; it leaves room for an exact
#: factorisation that reorders floating-point sums (about 1e-9).
REL_TOL = 1e-6


def pinned_env() -> dict:
    """Environment for a benchmark process, with the BLAS thread count
    fixed so that numpy reads it when first imported."""
    env = dict(os.environ)
    for var in BLAS_ENV_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def require_source() -> None:
    """Put the checkout's ``src`` first on the import path, or exit."""
    if not (SRC / "hmmorder" / "__init__.py").is_file():
        sys.exit(f"perfbench: no hmmorder package under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))


def describe_env() -> dict:
    """nproc, BLAS build and thread count, and library versions."""
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


@dataclass(frozen=True)
class EstimateWorkload:
    """Back-to-back ``estimate_order`` calls on pre-simulated series.

    The inputs of a run are drawn by the workload seed from a fixed pool
    of simulation seeds, each simulated once per scenario, so every
    input has a recorded reference.
    """

    scenarios: tuple
    dim: int
    n: int
    pool: int
    per_run: int

    def input_keys(self, seed: int) -> list:
        sims = random.Random(seed).sample(range(self.pool), self.per_run)
        return [f"{scenario}/{sim}" for sim in sims for scenario in self.scenarios]

    def pool_keys(self) -> list:
        return [f"{scenario}/{sim}" for sim in range(self.pool) for scenario in self.scenarios]

    def make_input(self, key: str, n: int):
        from hmmorder.simulate import get_scenario, simulate

        scenario, sim = key.split("/")
        series, _ = simulate(get_scenario(scenario, dim=self.dim), n, int(sim))
        return series

    def run(self, series) -> dict:
        from hmmorder import estimator

        est = estimator.estimate_order(series)
        return {
            "operator": {
                "l_hat": est.l_hat,
                "tau": float(est.tau),
                "r": [float(x) for x in est.r_values],
            }
        }


@dataclass(frozen=True)
class MonteCarloWorkload:
    """Back-to-back one-replicate ``run_experiment`` calls.

    Replicate data seeds depend on ``base_seed + replicate`` only, so a
    one-replicate call with base seed ``b`` simulates the same path as
    replicate ``b`` of a single call with base seed 0.
    """

    scenario: str
    methods: tuple
    n: int
    pool: int
    per_run: int

    def input_keys(self, seed: int) -> list:
        return [str(b) for b in random.Random(seed).sample(range(self.pool), self.per_run)]

    def pool_keys(self) -> list:
        return [str(b) for b in range(self.pool)]

    def make_input(self, key: str, n: int):
        from hmmorder.harness import ExperimentConfig

        return ExperimentConfig(
            scenario=self.scenario,
            n_list=(n,),
            methods=self.methods,
            replicates=1,
            base_seed=int(key),
            jobs=1,
        )

    def run(self, config) -> dict:
        from hmmorder import harness

        table = harness.run_experiment(config)
        return {
            cell.method: {
                "l_hat": rec.l_hat,
                "sigma": [float(x) for x in rec.sigma],
                **({"error": rec.error} if rec.error else {}),
            }
            for cell in table.cells
            for rec in cell.records
        }


WORKLOADS = {
    # Dense Gram -> psd_sqrt -> N x N product -> full SVD; Gaussian and
    # von Mises kernels alternate, simulation stays in set-up.
    "estimate-d1-n2000": EstimateWorkload(
        scenarios=("gauss-shift", "vm3"), dim=1, n=2000, pool=16, per_run=5
    ),
    # Same layers where the Gram rank is a large share of N.
    "estimate-d3-n1000": EstimateWorkload(
        scenarios=("gauss-shift",), dim=3, n=1000, pool=32, per_run=16
    ),
    # No Gram matrix: simulation, the spectral baseline and the harness.
    "montecarlo-spectral-n16000": MonteCarloWorkload(
        scenario="beta3",
        methods=("spectral:20:10", "spectral:40:20"),
        n=16000,
        pool=64,
        per_run=32,
    ),
}

#: input size at which the smoke test runs every workload
SMOKE_N = 50

#: size of the one warm-up call in set-up: it loads every lazily
#: imported module and the BLAS library; a full-size call would add
#: three n = 2000 estimates (one per set-up) to every run of that workload
WARMUP_N = 50


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, n: int) -> dict:
    """Recorded outputs keyed by input key, or {} if none exist for n."""
    path = reference_path(workload)
    if not path.is_file():
        return {}
    return json.loads(path.read_text())["by_n"].get(str(n), {})


def compare(output: dict, reference: dict | None) -> tuple:
    """(mismatch, largest relative deviation) of one operation's output.

    ``l_hat`` must agree exactly; every other field is a float or a list
    of floats compared relative to the reference value.
    """
    if reference is None or output.keys() != reference.keys():
        return True, 0.0
    mismatch, worst = False, 0.0
    for label, ref in reference.items():
        got = output[label]
        if "error" in got or got["l_hat"] != ref["l_hat"]:
            mismatch = True
        for field, ref_value in ref.items():
            if field == "l_hat":
                continue
            a = got.get(field)
            a = a if isinstance(a, list) else [a]
            b = ref_value if isinstance(ref_value, list) else [ref_value]
            if len(a) != len(b) or None in a:
                mismatch = True
                continue
            for x, y in zip(a, b):
                dev = abs(x - y) / abs(y) if y else abs(x)
                worst = max(worst, dev)
    return mismatch or worst > REL_TOL, worst
