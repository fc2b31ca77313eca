"""The repository benchmark: GSAP partition, serve and distributed workloads.

Run it with ``python3 perfbench/run.py`` from the repository root; see
``perfbench/README.md``.
"""
