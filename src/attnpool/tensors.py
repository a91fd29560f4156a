"""ShapeError, which the modules raise on operands that do not conform.

A 3-D spatial block [n1, n2, f] flattens to [n1*n2, f] with location
index loc = row*n2 + col.
"""


class ShapeError(ValueError):
    """Raised when operand shapes do not conform."""
