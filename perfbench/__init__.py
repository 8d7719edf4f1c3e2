"""Benchmark for graphstrata; see run.py and predictions.md."""
