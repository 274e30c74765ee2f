"""End-to-end and per-layer benchmark of the vertipy generate/run/report pipeline."""
