"""The ledger: end-to-end and per-layer benchmark of the lock service."""
