"""End-to-end + per-layer benchmark of the Pass-Join stack (see README.md)."""
