"""Intentionally empty: `bench/tracing.py` imports every module named in its
`MODULES` list.  The next change to the benchmark drops this name from that
list and deletes this file in the same change."""
