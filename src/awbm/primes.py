"""The prime test, on `errors` alone: the series kernel needs no group."""

from .errors import ArgumentError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981  # = 1287836182261 * 2575672364521


def is_prime(p: int) -> bool:
    """Whether p is a prime below PRIME_BOUND, the least strong pseudoprime to
    the first 13 prime bases (Sorenson-Webster 2015): below it, Miller-Rabin
    to those bases is exact, and no p at or past it is reported prime."""
    if not 2 <= p < PRIME_BOUND:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> None:
    """Raise ArgumentError unless p is prime, which needs p < PRIME_BOUND."""
    if p < 2:
        raise ArgumentError("prime must be at least 2")
    if p >= PRIME_BOUND:
        raise ArgumentError(f"p = {p} is not below PRIME_BOUND = {PRIME_BOUND}, "
                            "where the prime test is exact")
    if not is_prime(p):
        raise ArgumentError(f"p = {p} is not prime")
