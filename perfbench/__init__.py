"""The repository benchmark: workloads timed end to end and per layer."""
