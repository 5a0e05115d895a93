"""Benchmark of the Landi/Ryder may-alias reproduction (see NOTES.md)."""
