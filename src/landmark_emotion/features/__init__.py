"""Feature extraction: geometry, filter banks, aligned crops, texture."""
