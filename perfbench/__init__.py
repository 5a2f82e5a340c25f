"""The repository benchmark: serving over the wire and Table I training.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload against the program from outside it;
see ``perfbench/README.md`` and ``BENCHMARK.json``.
"""
