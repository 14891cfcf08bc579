"""End-to-end benchmark of the four client paths (see README.md)."""
