"""Command-line tools."""
