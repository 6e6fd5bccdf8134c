"""Which model does each client end up with, and why?

Run:  python examples/personalization_analysis.py

Looks inside the Client Manager after a FedTrans run: the utility-driven
deployment decision per client (§4.2), how deployments correlate with
device capacity, and how the soft assignment explored models over time.
"""

import collections

import numpy as np

from repro.core import FedTransConfig, FedTransStrategy
from repro.data import cifar10_like
from repro.device import calibrate_capacities, sample_device_traces
from repro.fl import Coordinator, CoordinatorConfig, FLClient, LocalTrainerConfig
from repro.nn import mlp


def main() -> None:
    dataset = cifar10_like(scale=0.4, seed=2, image=False)
    rng = np.random.default_rng(2)
    initial = mlp(dataset.input_shape, dataset.num_classes, rng, width=16)
    traces = calibrate_capacities(
        sample_device_traces(dataset.num_clients, rng),
        initial.macs(),
        initial.macs() * 16,
    )
    clients = [FLClient(c.client_id, c, t) for c, t in zip(dataset.clients, traces)]

    strategy = FedTransStrategy(
        initial,
        FedTransConfig(gamma=3, delta=4, beta=0.05, max_models=5),
        max_capacity_macs=max(t.capacity_macs for t in traces),
    )
    log = Coordinator(
        strategy,
        clients,
        CoordinatorConfig(
            rounds=150,
            clients_per_round=8,
            trainer=LocalTrainerConfig(batch_size=10, local_steps=10, lr=0.15),
            eval_every=30,
            seed=2,
        ),
    ).run()

    models = strategy.models()
    print(strategy.suite_summary())

    # 1. Deployment census: which model serves how many clients.
    deployments = strategy.eval_models(clients)
    census = collections.Counter(deployments)
    print("\n--- deployment census ---")
    for mid in models:
        print(f"  {mid} ({models[mid].macs():>7,} MACs): {census.get(mid, 0):>3} clients")

    # 2. Capacity vs deployed-model complexity.
    print("\n--- capacity quartiles vs deployed model ---")
    caps = np.array([c.capacity_macs for c in clients])
    deployed_macs = np.array([models[mid].macs() for mid in deployments])
    for q, (lo, hi) in enumerate(zip([0, 25, 50, 75], [25, 50, 75, 100])):
        a, b = np.percentile(caps, [lo, hi])
        mask = (caps >= a) & (caps <= b)
        print(f"  capacity Q{q + 1}: mean deployed complexity "
              f"{deployed_macs[mask].mean():>9,.0f} MACs")

    # 3. Exploration over time: training-assignment mix per phase.
    print("\n--- assignment mix over training (exploration -> exploitation) ---")
    phases = np.array_split(log.rounds, 3)
    for i, phase in enumerate(phases):
        counts = collections.Counter(
            mid for r in phase for mids in r.assignments.values() for mid in mids
        )
        total = sum(counts.values())
        mix = ", ".join(f"{mid}:{counts.get(mid, 0) / total:.0%}" for mid in models)
        print(f"  phase {i + 1}: {mix}")

    print(f"\nfinal mean accuracy: {log.final_accuracy():.1%}")


if __name__ == "__main__":
    main()
