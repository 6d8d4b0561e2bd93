"""Empty: BPRMF and LightGCN are configurations of the one model
(`dgcf.model.PRESETS`), and the independent LightGCN oracle is
`tests/helpers.py`'s lightgcn_forward.

The module stays only because the benchmark's tracer (`perfbench/spans.py`)
imports it without a guard. It is deleted once the tracer skips a module it
cannot import (ROADMAP item 1a).
"""
