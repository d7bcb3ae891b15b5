"""Command-line and interactive terminal modes."""
