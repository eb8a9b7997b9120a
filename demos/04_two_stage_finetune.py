"""Two-stage decoupled training: uniform pretrain, rebalanced finetune.

Stage one trains normally with a uniform sampler. Stage two starts from
stage one's nets in memory, freezes every network head, drops the backbone
learning rate to a tenth, and continues with the config's sampler, here the
return-weighted one (``mode="uniform"`` would finetune uniformly, the
decoupling-only control). The heads stay bitwise identical; the features
underneath them keep moving. No file is written: ``two_stage_train`` writes
its stage-one checkpoints only when given ``out_dir``.
"""

from red_offline import (AlgoConfig, DatasetSource, DeredConfig, EvalConfig,
                         ExperimentConfig, SamplerSpec, two_stage_train)


def main():
    cfg = ExperimentConfig(
        dataset=DatasetSource(preset="replay_analog"),
        algo=AlgoConfig(family="expectile_awr", total_steps=600, batch_size=128,
                        lr=1e-4),
        sampler=SamplerSpec(mode="return_resample", alpha=1.0, p_base=0.0),
        eval=EvalConfig(eval_every=60, episodes_per_eval=5, final_k=10,
                        seeds=(0, 1, 2)),
        dered=DeredConfig(stage1_steps=600, stage2_steps=1500,
                          backbone_lr_mult=0.1, freeze_head=True),
        root_seed=100,
    )
    report, _, _ = two_stage_train(cfg)
    s1 = report["stage1"]["aggregate"]
    s2 = report["stage2"]["aggregate"]
    print(f"stage 1 (uniform pretrain):       {s1['mean_normalized']:.2f} "
          f"+/- {s1['std_normalized']:.2f}")
    print(f"stage 2 (rebalanced finetune):    {s2['mean_normalized']:.2f} "
          f"+/- {s2['std_normalized']:.2f}")
    print(f"improvement: {report['stage2_minus_stage1']:+.2f} normalized points")
    checks = report["stage2"]["head_checks"]
    print(f"heads bitwise identical to the stage-1 checkpoint: "
          f"{all(c['heads_bitwise_equal'] for c in checks)} "
          f"({len(checks)} seeds)")
    print("\nSetting dered.freeze_head=false finetunes all layers instead;")
    print("the heads then drift and the bitwise check reports the difference.")


if __name__ == "__main__":
    main()
