"""Reference oracle: Majorana words and the braid generator on them.

The prediction that a genon exchange on the lattice is checked against:
exchanging two Majorana modes sends c_j -> c_{j+1} and c_{j+1} -> -c_j.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class MajoranaWord:
    """Normal-ordered product of Majorana generators with a sign.

    Relations c_j c_k + c_k c_j = 2 delta_jk: adjacent swaps of distinct
    generators flip the sign, repeated generators cancel.
    """

    n_modes: int
    sign: int = 1
    factors: tuple = ()

    @classmethod
    def from_factors(cls, n_modes: int, factors, sign: int = 1) -> "MajoranaWord":
        seq = list(factors)
        for j in seq:
            if not 0 <= j < n_modes:
                raise ValueError(f"generator index {j} out of range")
        # insertion sort counting transpositions of distinct generators
        out = []
        for j in seq:
            k = len(out)
            while k > 0 and out[k - 1] > j:
                k -= 1
            sign *= (-1) ** (len(out) - k)
            out.insert(k, j)
        # cancel equal neighbors (c_j^2 = 1)
        i = 0
        while i + 1 < len(out):
            if out[i] == out[i + 1]:
                del out[i:i + 2]
                i = max(0, i - 1)
            else:
                i += 1
        return cls(n_modes, sign, tuple(out))

    def __mul__(self, other: "MajoranaWord") -> "MajoranaWord":
        if self.n_modes != other.n_modes:
            raise ValueError("mode-count mismatch")
        return MajoranaWord.from_factors(self.n_modes,
                                         self.factors + other.factors,
                                         self.sign * other.sign)


def majorana_braid(word: MajoranaWord, j: int) -> MajoranaWord:
    """Braid generator j past j+1: c_j -> c_{j+1}, c_{j+1} -> -c_j."""
    if not 0 <= j + 1 < word.n_modes:
        raise ValueError(f"braid index {j} out of range for {word.n_modes} modes")
    sign = word.sign
    factors = []
    for c in word.factors:
        if c == j:
            factors.append(j + 1)
        elif c == j + 1:
            factors.append(j)
            sign = -sign
        else:
            factors.append(c)
    return MajoranaWord.from_factors(word.n_modes, factors, sign)
