"""Quickstart: deploy a model and serve it in a dozen lines.

Builds a small residual CNN, compiles it once for a compact digital CIM
chip with the DP-based strategy (a :class:`repro.Deployment` owns the
compiled model), runs one cycle-accurate inference with bit-exact golden
validation, then serves a 16-input stream offered at a fixed arrival
rate and prints the latency percentiles.

Run:  python examples/quickstart.py
"""

from repro import Deployment, FixedRate
from repro.config import small_test_arch


def main() -> None:
    deployment = Deployment(
        "tiny_resnet",           # model-zoo name (or a ComputationGraph)
        small_test_arch(),       # 4 cores, small macro groups
        strategy="dp",           # Algorithm 1: DP partitioning + duplication
    )

    # Classic latency mode: one input, Fig. 2 workflow.
    result = deployment.run()
    plan = deployment.compiled.plan
    dup = max(len(m.replicas) for s in plan.stages
              for m in s.mappings.values())
    print(f"model     : {deployment.graph.summary()}")
    print(f"plan      : {plan.num_stages} stages, max duplication x{dup}")
    print(f"validated : {result.validated} (bit-exact vs golden model)")
    print()
    print(result.report)
    print()

    # Serving mode: the same compiled model, continuous arrivals.
    report = deployment.submit(batch=16, arrivals=FixedRate(200_000))
    print(report)


if __name__ == "__main__":
    main()
