"""Generate the frozen solve-binding inputs (data/solve_binding.csv).

Run once from the root of a checkout:

    python3 perfbench/gen_binding.py

Each row is one (distance, chi, r0, n_s) whose aggregate rate target r0*n_s
lies strictly between two rates of at least one burst mode: the rate at that
mode's eta-optimal grid frame and the rate at its throughput-optimal grid
frame.  Both frames are found by scanning the whole codeword grid, not by the
solver's closed forms, so the property is a fact about the model.  The rows
are committed and the benchmark reads them as data, so a later change to the
solver cannot change what two commits are fed.  Nothing is filtered on
whether the solver gets a row right.
"""

from __future__ import annotations

import random

import numpy as np

import source

N_ROWS = 4096
GEN_SEED = 20160917
HEADER = "distance,chi,r0,n_s"


def binding_interval(mm, n_t_max: int):
    """(rate at the eta-optimal frame, rate at the throughput-optimal frame)."""
    nts = np.arange(1, n_t_max // mm.n + 1, dtype=float) * mm.n
    etas, rates = mm.eta(nts), mm.rate(nts)
    return float(rates[int(np.argmax(etas))]), float(np.max(rates))


def generate() -> list[str]:
    source.add_src_to_path()
    from cloee.metrics import QosSpec
    from cloee.scenario import parse_scenario

    scenario = parse_scenario(source.SCENARIO.read_text(), str(source.SCENARIO))
    model = scenario.link_model()
    n_t_max = scenario.solver.n_t_max
    rng = random.Random(GEN_SEED)
    rows: list[str] = []
    seen: set[str] = set()
    while len(rows) < N_ROWS:
        distance = round(rng.uniform(1.0, 10.0), 3)
        chi = round(rng.gauss(0.0, scenario.channel.sigma), 3)
        intervals = [iv for iv in (binding_interval(mm, n_t_max) for mm in model.env(distance, chi))
                     if iv[0] < iv[1]]
        if not intervals:
            continue
        rate_ee, rate_thr = rng.choice(intervals)
        n_s = rng.randint(1, 64)
        r0 = float(f"{(rate_ee + rng.uniform(0.05, 0.95) * (rate_thr - rate_ee)) / n_s:.6g}")
        target = QosSpec(r0=r0, n_s=n_s).aggregate_rate
        if not rate_ee < target < rate_thr:
            continue
        row = f"{distance!r},{chi!r},{r0!r},{n_s}"
        if row not in seen:
            seen.add(row)
            rows.append(row)
    return rows


def main() -> int:
    rows = generate()
    source.BINDING_DATA.parent.mkdir(parents=True, exist_ok=True)
    source.BINDING_DATA.write_text("\n".join([HEADER, *rows]) + "\n")
    print(f"wrote {len(rows)} rows to {source.BINDING_DATA}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
