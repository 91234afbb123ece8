"""The repo benchmark: closed-loop workloads measured from outside `src/`.

See README.md in this directory. Entry point: `python3 bench/run.py`.
"""
