"""Frozen references and the hot-path bench, kept out of the installed package.

``cache``, ``nic``, ``analysis`` and ``attack_analysis`` are verbatim
copies of code that ``repro`` has since replaced: the OrderedDict LLC and
adaptive partition, the scalar NIC and IGB driver, and the scalar analysis
loops.  They are the reference sides of the differential tests
(``tests/test_engine_equivalence.py``, ``tests/test_rx_equivalence.py``,
``tests/test_analysis_equivalence.py``) and of ``bench``, which
``scripts/bench_hotpath.py`` runs.  Nothing under ``src/repro`` imports
this package (``tests/test_import_graph.py``).
"""
