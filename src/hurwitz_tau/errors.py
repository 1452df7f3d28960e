"""Exception types shared across the library."""


class SizeLimitError(ValueError):
    """A requested size exceeds the configured cap for an operation."""


class CentralityError(ValueError):
    """A group-algebra element expected to be central is not.

    Carries a witness: two permutations of the same cycle type whose
    coefficients differ.
    """

    def __init__(self, perm_a, coeff_a, perm_b, coeff_b):
        self.witness = (perm_a, coeff_a, perm_b, coeff_b)
        super().__init__(
            "element is not constant on conjugacy classes: "
            f"coefficient of {perm_a} is {coeff_a}, "
            f"coefficient of {perm_b} is {coeff_b}"
        )


class VandermondeError(ValueError):
    """Evaluation points are not distinct, so a Vandermonde factor vanishes."""


class ExactDivisionError(ArithmeticError):
    """An exact division of truncated series or polynomials left a remainder."""
