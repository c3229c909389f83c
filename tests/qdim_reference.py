"""Reference oracle: exact numbers a + b*sqrt(2) on ``Fraction`` coefficients.

An independent, deliberately plain path for cross-checking
``quditlab.catalog.QDim``, which keeps (a + b*sqrt(2))/d on integers: every
operation here wraps both coefficients in ``Fraction`` afresh.
"""

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class QDim:
    """Exact number a + b*sqrt(2); enough for every theory in the catalog."""

    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))

    def __add__(self, other):
        other = _as_qdim(other)
        return QDim(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        other = _as_qdim(other)
        return QDim(self.a - other.a, self.b - other.b)

    def __mul__(self, other):
        other = _as_qdim(other)
        return QDim(self.a * other.a + 2 * self.b * other.b,
                    self.a * other.b + self.b * other.a)

    def __neg__(self):
        return QDim(-self.a, -self.b)

    def __truediv__(self, other):
        other = _as_qdim(other)
        norm = other.a * other.a - 2 * other.b * other.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt 2)")
        conj = QDim(other.a, -other.b)
        num = self * conj
        return QDim(num.a / norm, num.b / norm)

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return "2^{1/2}" if self.b == 1 else f"{self.b}*2^{{1/2}}"
        return f"{self.a}+{self.b}*2^{{1/2}}"


def _as_qdim(x) -> QDim:
    if isinstance(x, QDim):
        return x
    return QDim(Fraction(x))
