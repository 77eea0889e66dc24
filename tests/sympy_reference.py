"""An independent reference for expression values and derivatives: the
printed source of an expression, read by sympy over real symbols and
evaluated at 30 significant digits."""

import sympy
from sympy.parsing.sympy_parser import (convert_xor, parse_expr,
                                        standard_transformations)

from monoweb.expr import to_source

DIGITS = 30
_TRANSFORMATIONS = standard_transformations + (convert_xor,)


def to_sympy(e, variables=("x", "y")):
    """``e`` as a sympy expression over real symbols named ``variables``."""
    symbols = {name: sympy.Symbol(name, real=True) for name in variables}
    return parse_expr(to_source(e), local_dict=symbols,
                      transformations=_TRANSFORMATIONS)


def real_value(s, x, y, variables=("x", "y")):
    """The sympy expression ``s`` at (x, y) as a float, or None where it is
    not a finite real number (a complex value, a pole, or undefined)."""
    point = {sympy.Symbol(name, real=True): sympy.Float(v, DIGITS)
             for name, v in zip(variables, (x, y))}
    v = s.xreplace(point).evalf(DIGITS)
    return float(v) if v.is_real and v.is_finite else None


def reference_gradient(e, variables=("x", "y")):
    """A function of (x, y) giving the value of ``e`` and its two partial
    derivatives by ``sympy.diff``, each None where it is not a finite real
    number."""
    s = to_sympy(e, variables)
    parts = [s] + [sympy.diff(s, sympy.Symbol(name, real=True))
                   for name in variables]
    return lambda x, y: tuple(real_value(p, x, y, variables) for p in parts)
