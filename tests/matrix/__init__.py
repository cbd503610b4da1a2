"""The bit-identity matrix (see :mod:`matrix.cells`)."""
