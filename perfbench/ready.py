"""Set-up of a partition workload in a fresh interpreter.

Usage: ``python -m perfbench.ready ALGORITHM EDGES_TSV NUM_VERTICES SEED``

Imports the package, loads the edge list and constructs the partitioner
-- what ``gsap partition`` does before its first sweep.  The benchmark
times the whole process as ``setup_s``.
"""

import sys


def make_partitioner(algorithm: str, seed: int):
    """The partitioner of a partition workload, freshly constructed."""
    if algorithm == "GSAP":
        from repro import GSAPPartitioner, SBPConfig
        from repro.gpusim.device import A4000, Device

        # Table 2 defaults, as ``gsap partition --seed`` runs
        return GSAPPartitioner(SBPConfig(seed=seed), device=Device(A4000))
    if algorithm == "EDiSt":
        from repro.baselines.edist import EDiStPartitioner
        from repro.bench.workloads import bench_config

        return EDiStPartitioner(bench_config(seed), num_ranks=4)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def main(argv) -> int:
    algorithm, path, num_vertices, seed = argv[0], argv[1], int(argv[2]), int(argv[3])
    from repro.graph.io import load_edge_list

    load_edge_list(path, num_vertices=num_vertices)
    make_partitioner(algorithm, seed)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
