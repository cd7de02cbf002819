"""Wall-clock round benchmark of the DI-matching cluster (see README.md)."""
