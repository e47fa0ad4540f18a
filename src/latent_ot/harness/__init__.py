"""Experiment harness: configs, runners, result tables, plots, and the CLI."""
