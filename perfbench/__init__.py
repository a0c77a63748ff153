"""The repository benchmark: end-to-end and per-layer performance of the
serving tier, the on-device streaming server and the design-space sweep.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
