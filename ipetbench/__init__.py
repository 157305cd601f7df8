"""Benchmark of the IPET toolchain in ``src/repro``.

Run ``python3 ipetbench/run.py --help`` from the repository root; the
workloads, metrics and reference figures are described in
``ipetbench/README.md``.
"""
