"""Point-cloud geometry lab for the first Heisenberg group."""
