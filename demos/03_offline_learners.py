"""Training the offline learners with uniform vs return-weighted sampling.

Runs two learner families on the long-tailed chain dataset under both
samplers (five seeds each) and prints per-seed scores side by side. Takes a
few minutes on a laptop core.
"""

from red_offline import (AlgoConfig, DatasetSource, EvalConfig, ExperimentConfig,
                         SamplerSpec, run_training)

STEPS = 700


def run(family, mode):
    cfg = ExperimentConfig(
        dataset=DatasetSource(preset="replay_analog"),
        algo=AlgoConfig(family=family, total_steps=STEPS, batch_size=128, lr=1e-4),
        sampler=SamplerSpec(mode=mode, alpha=1.0, p_base=0.0),
        eval=EvalConfig(eval_every=STEPS // 10, episodes_per_eval=5, final_k=10,
                        seeds=(0, 1, 2, 3, 4)),
        root_seed=100,
    )
    report, _, _ = run_training(cfg)
    return report


def main():
    print(f"replay_analog, {STEPS} gradient steps, 5 seeds per arm\n")
    for family in ("expectile_awr", "q_plus_bc"):
        print(f"=== {family} ===")
        means = {}
        for mode in ("uniform", "return_resample"):
            report = run(family, mode)
            agg = report["aggregate"]
            means[mode] = agg["mean_normalized"]
            per_seed = [s["final_k_mean_normalized"] for s in report["per_seed"]]
            print(f"  {mode:16s} per-seed " +
                  " ".join(f"{v:6.1f}" for v in per_seed) +
                  f"   mean {agg['mean_normalized']:6.2f}")
        print(f"  edge for return weighting: "
              f"{means['return_resample'] - means['uniform']:+.2f} points\n")
    print("The scores average the whole evaluation curve, so arms that climb")
    print("faster score higher. Return weighting feeds the rare high-return")
    print("episodes into batches several times more often; the edge shows up")
    print("on the seeds where the uniform arm is still mid-climb at the end.")


if __name__ == "__main__":
    main()
