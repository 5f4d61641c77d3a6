"""Small number-theoretic helpers used throughout the package.

Everything here works on plain Python ints and stays exact, by trial
division, and is_prime and factorize keep one cap.  Each divides only up
to the square root of what is left, so a number whose prime factors are
small, such as p**15, factorizes at once however large it is, and one
with a small factor is shown composite at once.  Each refuses n once its
trial divisor passes TRIAL_DIVISOR_LIMIT, isqrt(PRIME_TEST_LIMIT), with
the divisor's square still at most what is left: only trial division past
the cap could settle that.  So every n up to PRIME_TEST_LIMIT is
answered, and one call makes at most 5 * 10**5 trial divisions.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

from .errors import PreconditionError, SizeLimitError

PRIME_TEST_LIMIT = 10**12
TRIAL_DIVISOR_LIMIT = isqrt(PRIME_TEST_LIMIT)


def is_prime(n: int) -> bool:
    """Return True when n is prime, by trial division up to sqrt(n).

    Raises SizeLimitError when no divisor up to TRIAL_DIVISOR_LIMIT
    divides n and the next one's square is still at most n.
    """
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if f > TRIAL_DIVISOR_LIMIT:
            raise SizeLimitError(f"primality test is capped at trial divisors up to {TRIAL_DIVISOR_LIMIT}")
        if n % f == 0:
            return False
        f += 2
    return True


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Return the prime factorization of n as ((p, exponent), ...) with p ascending.

    Raises SizeLimitError when a cofactor with no prime factor up to
    TRIAL_DIVISOR_LIMIT is still at least the square of the next divisor.
    """
    if n < 1:
        raise PreconditionError(f"cannot factorize {n}")
    out: list[tuple[int, int]] = []
    rest = n
    p = 2
    while p * p <= rest:
        if p > TRIAL_DIVISOR_LIMIT:
            raise SizeLimitError(f"factorization is capped at trial divisors up to {TRIAL_DIVISOR_LIMIT}")
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if rest > 1:
        out.append((rest, 1))
    return tuple(out)


def is_power_of(m: int, p: int) -> bool:
    """Return True when the positive integer m is p**e for some e >= 0."""
    while m % p == 0:
        m //= p
    return m == 1


def prime_divisors(n: int) -> tuple[int, ...]:
    """Return the distinct primes dividing n, ascending."""
    return tuple(p for p, _ in factorize(n))


def euler_phi(n: int) -> int:
    """Return the count of integers in 1..n coprime to n."""
    out = n
    for p, _ in factorize(n):
        out = out // p * (p - 1)
    return out
