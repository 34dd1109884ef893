"""End-to-end benchmark: four production-path workloads (see README.md)."""
