"""Pass-pipeline tests: artifact store, scheduling, batch, re-scan."""
