"""Verify every analytic gradient tensor against central finite differences.

The trainer's backward pass is entirely hand-derived (no autograd), so the
finite-difference oracle is the ground truth: perturb one coordinate,
re-run the forward loss, and compare the slope. A corrupted-gradient
negative control shows the check actually bites.
"""

import numpy as np

from rlbl.ingestion import SynthSpec, synth_corpus
from rlbl.model import init_rlbl_params
from rlbl.time_aware import init_ta_rlbl_params
from rlbl.training import (
    TrainConfig,
    TrainingInstance,
    gradient_check,
    group_gradients,
    sample_negative,
)

corpus = synth_corpus(SynthSpec(n_users=3, n_items=10, n_behaviors=3,
                                seq_len_range=(12, 12), rng_seed=0))
cfg = TrainConfig(lam=0.01)
rng = np.random.default_rng(0)
seq = corpus.sequences[0]
k = 6
inst = TrainingInstance(
    user_id=0, position=k, behavior=int(seq.behaviors[k]),
    pos_item=int(seq.items[k]),
    neg_item=sample_negative(corpus.n_items, int(seq.items[k]), rng),
)

for label, params in (
    ("plain", init_rlbl_params(3, corpus.n_items, 3, d=4, n=2, seed=1)),
    ("time-aware", init_ta_rlbl_params(3, corpus.n_items, 3, d=4, n=2,
                                       bin_width=3600.0, n_bins=6, seed=1)),
):
    report = gradient_check(params, seq, k, inst, cfg=cfg, rng=rng)
    print(f"{label}: max relative error per tensor "
          f"(tolerance {report.tolerance:g})")
    for name, err in report.max_rel_error.items():
        print(f"  {name:10s} {err:.3e}")
    print(f"  -> {'PASS' if report.passed else 'FAIL'}\n")
    assert report.passed

# negative control: flip the sign of the analytic bundle and the check fails
params = init_rlbl_params(3, corpus.n_items, 3, d=4, n=2, seed=1)
bad = group_gradients(params, seq, k, [inst.neg_item], cfg)[1].scale(-1.0)
report = gradient_check(params, seq, k, inst, cfg=cfg, rng=rng, analytic_bundle=bad)
print(f"sign-flipped bundle passes: {report.passed} (expected False)")
assert not report.passed
