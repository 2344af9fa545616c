"""Streaming maximum-weight k-matching: dynamic-model sketches and insert-only compaction."""
