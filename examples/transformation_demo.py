"""Model-transformation mechanics: widen, deepen, similarity, warmup.

Run:  python examples/transformation_demo.py

Demonstrates the Cell-level machinery of §4.1 directly, without an FL loop:

* function-preserving widening (Net2WiderNet) with and without
  symmetry-breaking noise;
* deepening via exact-identity cell insertion (Net2DeeperNet);
* the Fig. 5 alternation (a cell widened last time is deepened next);
* architectural similarity (§4.2) between family members.
"""

import numpy as np

from repro.core import apply_transform, model_similarity, select_cells
from repro.core.activeness import cell_gradient_norms
from repro.nn import small_cnn


def main() -> None:
    rng = np.random.default_rng(0)
    model = small_cnn((1, 8, 8), num_classes=10, rng=rng, width=8)
    x = rng.normal(size=(16, 1, 8, 8))
    y = rng.integers(0, 10, size=16)

    print("--- initial model ---")
    print(model.summary())
    baseline = model.predict(x)

    # 1. Exact function preservation (noise=0)
    child = model.clone()
    target = child.transformable_cells()[0]
    child.widen_cell(target.cell_id, factor=2.0, rng=rng, noise=0.0)
    drift = np.abs(child.predict(x) - baseline).max()
    print(f"\nwiden x2 (noise=0): max output drift = {drift:.2e}  (exact)")

    # 2. Widening with symmetry-breaking noise: near-preserving, but the
    #    duplicated channels can now diverge during training.
    child2 = model.clone()
    child2.widen_cell(target.cell_id, factor=2.0, rng=rng, noise=0.05)
    drift2 = np.abs(child2.predict(x) - baseline).max()
    print(f"widen x2 (noise=0.05): max output drift = {drift2:.2e}  (near-preserving)")

    # 3. Deepening inserts an exact identity cell.
    child3 = model.clone()
    inserted = child3.deepen_after(target.cell_id, rng)
    drift3 = np.abs(child3.predict(x) - baseline).max()
    print(f"deepen (+{len(inserted)} identity cell): max output drift = {drift3:.2e}")
    print(f"macs: {model.macs():,} -> widen {child.macs():,} / deepen {child3.macs():,}")

    # 4. Gradient-based cell selection (activeness) and Fig. 5 alternation.
    model.zero_grad()
    model.loss_and_grad(x, y)
    activeness = {
        cid: v
        for cid, v in cell_gradient_norms(model, model.grads()).items()
        if model.get_cell(cid).transformable
    }
    print("\n--- cell activeness (grad norm / weight norm) ---")
    for cid, act in activeness.items():
        print(f"  {cid}: {act:.4f}")
    selected = select_cells(activeness, alpha=0.9)
    print(f"selected at alpha=0.9: {selected}")

    gen1 = model.clone()
    events = apply_transform(gen1, selected, rng, widen_factor=2.0, deepen_cells=1,
                             round_idx=0, widen_noise=0.05)
    print(f"generation 1: {events}")
    gen2 = gen1.clone()
    events = apply_transform(gen2, selected, rng, widen_factor=2.0, deepen_cells=1,
                             round_idx=1, widen_noise=0.05)
    print(f"generation 2: {events}  (alternated to deepen)")

    # 5. Architectural similarity across the family (Eq. 4/5 weighting).
    print("\n--- architectural similarity ---")
    print(f"sim(parent, gen1) = {model_similarity(model, gen1):.3f}")
    print(f"sim(parent, gen2) = {model_similarity(model, gen2):.3f}")
    print(f"sim(gen1,   gen2) = {model_similarity(gen1, gen2):.3f}")
    print(f"sim(gen2,   gen2) = {model_similarity(gen2, gen2):.3f}")


if __name__ == "__main__":
    main()
