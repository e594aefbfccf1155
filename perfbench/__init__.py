"""The repository benchmark: end-to-end workloads plus a traced per-layer run.

Entry point: ``python3 perfbench/run.py`` (see ``perfbench/README.md``).
"""
