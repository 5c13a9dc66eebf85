"""cooptrack benchmark: workloads, tracer and launcher (see README.md)."""
