"""Repository benchmark: seeded workloads over the CDC engine (see README.md)."""
