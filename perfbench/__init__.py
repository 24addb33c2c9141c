"""Job-level benchmark for the NDA reproduction.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one of the user-facing jobs in
:mod:`perfbench.workloads` for about ``--seconds`` seconds and prints its
end-to-end metrics (``--trace 0``) or its per-layer metrics
(``--trace 1``).  See ``perfbench/README.md``.
"""
