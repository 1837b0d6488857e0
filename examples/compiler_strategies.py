"""Compare the three compilation strategies on the cycle simulator.

Reproduces the Fig. 5 experiment mechanics at micro scale, where the
cycle simulator runs in seconds and the capacity pressure that motivates
partitioning is real: a residual CNN on a 4-core chip with small macro
groups.  The generic mapping and the CIM-MLC-style opportunistic
duplication are the paper's baselines; the DP-based strategy is its
contribution.  (The paper-scale strategy sweep lives in
benchmarks/test_bench_fig5.py on the fast model.)

Run:  python examples/compiler_strategies.py
"""

from repro import Deployment
from repro.config import small_test_arch


def main() -> None:
    arch = small_test_arch()
    print("tiny_resnet on a 4-core CIM chip (cycle simulator)\n")
    print(f"{'strategy':<14s}{'cycles':>12s}{'energy mJ':>11s}"
          f"{'TOPS':>7s}{'stages':>7s}{'dup':>5s}")
    baseline = None
    for strategy in ("generic", "duplication", "dp"):
        result = Deployment("tiny_resnet", arch=arch, strategy=strategy).run()
        report = result.report
        plan = result.compiled.plan
        dup = max(len(m.replicas) for s in plan.stages
                  for m in s.mappings.values())
        baseline = baseline or report.cycles
        print(
            f"{strategy:<14s}{report.cycles:>12,}{report.total_energy_mj:>11.3f}"
            f"{report.tops:>7.2f}{plan.num_stages:>7d}"
            f"{dup:>5d}"
            f"   ({baseline / report.cycles:.2f}x vs generic, validated)"
        )


if __name__ == "__main__":
    main()
