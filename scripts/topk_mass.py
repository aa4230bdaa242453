#!/usr/bin/env python3
"""Top-k probability mass of a trained parallel decoder.

Trains a small NAT model on a synthetic task (or loads a checkpoint) and
reports, over all validation target positions, the mean mass E[P_k] captured
by the k most likely tokens plus a 5-interval histogram. A concentrated model
puts most mass on a handful of tokens, which is what makes small-k traversal
with a sampled residual so effective.

Example:
    python scripts/topk_mass.py --k 1 5 10 --ce-steps 1500
"""

import argparse

import numpy as np

from nsqt import pipeline as pl
from nsqt.checkpoint import load_model
from nsqt.data import gen_synthetic_task
from nsqt.models import ModelConfig, build_model


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, nargs="+", default=[1, 5, 10])
    ap.add_argument("--checkpoint", default="")
    ap.add_argument("--task", default="copy")
    ap.add_argument("--vocab-size", type=int, default=20)
    ap.add_argument("--ce-steps", type=int, default=1500)
    ap.add_argument("--valid-pairs", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    train = gen_synthetic_task(args.task, args.vocab_size, (4, 10), 1000, rng)
    valid = gen_synthetic_task(args.task, args.vocab_size, (4, 10), args.valid_pairs, rng)

    if args.checkpoint:
        model = load_model(args.checkpoint)
    else:
        cfg = ModelConfig(
            d_model=32, d_hidden=64, n_layer=2, n_head=2, p_dropout=0.0,
            vocab_size=args.vocab_size, max_len=32,
        )
        model = build_model("nat", cfg, seed=args.seed)
        pl.train_ce(
            model,
            train,
            pl.TrainConfig(max_steps=args.ce_steps, lr=0.003, warmup=200, rng_seed=args.seed),
        )

    _, summary = pl.topk_stats(model, valid, args.k)
    print("k,mean_p_k,hist[0,.2),hist[.2,.4),hist[.4,.6),hist[.6,.8),hist[.8,1]")
    for row in summary:
        k, mean, *hist = row
        print(f"{k},{mean:.6f}," + ",".join(str(h) for h in hist))


if __name__ == "__main__":
    main()
