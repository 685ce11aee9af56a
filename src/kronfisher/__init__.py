"""Kronecker-factored Fisher approximations and natural-gradient training for MLPs."""
