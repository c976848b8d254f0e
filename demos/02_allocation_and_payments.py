"""Walk through one job end to end: greedy fill, payments, and how they split.

Three workers bid (1, 2, 3) with caps (0.5, 0.6931, 1.0).  The cheapest two
cover the job; the payment rule then prices what each winner displaced.

Run from the repository root:  python3 demos/02_allocation_and_payments.py
"""

import numpy as np

from crowdmarket import (
    FrozenInstance,
    deviation_sweep,
    job_payments,
    sw_greedy,
)


def payment_split(i, alloc, caps, bids, c_bar):
    """Where winner ``i``'s fraction would go without it, as (absorber,
    fraction, price) parts: the boundary worker's slack at its bid ``b_k``,
    then the caps of the workers after the boundary, each at its bid, then a
    residual that nobody can absorb at ``c_bar``."""
    order, k_pos = alloc.bid_order, alloc.k_pos
    boundary = int(order[k_pos])
    left = float(alloc.fractions[i])
    parts = []
    if i != boundary:  # the boundary worker cannot absorb its own fraction
        slack = min(left, caps[boundary] - alloc.fractions[boundary])
        parts.append((f"slack of worker {boundary}", slack, bids[boundary]))
        left -= slack
    for w in order[k_pos + 1 :]:
        take = min(left, caps[w])
        parts.append((f"cap of worker {w}", take, bids[w]))
        left -= take
    parts.append(("residual", left, c_bar))
    return [part for part in parts if part[1] > 0]


def main() -> None:
    bids = np.array([1.0, 2.0, 3.0])
    caps = np.array([0.5, 0.6931, 1.0])
    c_bar = 3.0

    alloc = sw_greedy(bids, caps)
    print("bids:", bids, " caps:", caps)
    print(f"greedy fractions: {alloc.fractions}  (sum {alloc.fractions.sum()})")
    k = alloc.bid_order[alloc.k_pos]
    print(f"boundary worker k_bar = {k}, cost = {bids @ alloc.fractions:.4f}")
    print(f"slack left on the boundary worker: {caps[k] - alloc.fractions[k]:.4f}")

    rec = job_payments(alloc, caps, bids, c_bar)
    print("\neach winner's payment, split by who would absorb its fraction:")
    for i in np.flatnonzero(alloc.fractions):
        parts = payment_split(i, alloc, caps, bids, c_bar)
        terms = " + ".join(f"{x:.4f} at {price:g} ({who})" for who, x, price in parts)
        total = sum(x * price for _, x, price in parts)
        print(f"  worker {i}: {terms} = {total:.4f}; job_payments: {rec.payments[i]:.4f}")
    print("payments: ", np.round(rec.payments, 4))
    print("utilities:", np.round(rec.utilities, 4))

    # why lying does not pay: sweep every unilateral deviation
    inst = FrozenInstance(costs=bids, caps=caps, cost_bounds=(1.0, 3.0))
    print("\nbest achievable gain from misreporting, per worker:")
    for i in range(3):
        print(f"  worker {i}: {deviation_sweep(inst, i):+.2e}")

    # the classic trap: worker 2 undercuts worker 1 and wins half the job
    shaded = bids.copy()
    shaded[2] = 1.5
    alloc2 = sw_greedy(shaded, caps)
    rec2 = job_payments(alloc2, caps, shaded, c_bar, true_costs=bids)
    print("\nif worker 2 (cost 3) undercuts to 1.5:")
    print(f"  it wins {alloc2.fractions[2]:.2f} of the job,"
          f" is paid {rec2.payments[2]:.2f},"
          f" and nets {rec2.utilities[2]:+.2f}")


if __name__ == "__main__":
    main()
