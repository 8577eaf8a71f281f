"""Exception types shared across the package."""


class InputError(ValueError):
    """Raised for invalid user input: mismatched modules, malformed data,
    dependent generator sets, bad parameters.  The CLI maps this to exit
    code 2."""

