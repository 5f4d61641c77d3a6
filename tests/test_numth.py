import pytest

from ordseq.errors import PreconditionError, SizeLimitError
from ordseq.numth import (
    PRIME_TEST_LIMIT,
    TRIAL_DIVISOR_LIMIT,
    euler_phi,
    factorize,
    is_power_of,
    is_prime,
    prime_divisors,
)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_is_prime_carmichael():
    # 561 = 3 * 11 * 17 fools the plain Fermat test
    assert not is_prime(561)
    assert is_prime(7919)


def test_is_prime_is_capped():
    assert is_prime(999_999_999_989)  # the largest prime below the cap
    assert not is_prime(PRIME_TEST_LIMIT)
    # a small factor settles n past the cap: 10**12 + 1 = 73 * 137 * 99990001
    assert not is_prime(PRIME_TEST_LIMIT + 1)
    assert not is_prime(10**5000)
    for n in (2**61 - 1, 1000003**2, 1000000007 * 1000000009, 999_999_999_989**2):
        with pytest.raises(SizeLimitError):
            is_prime(n)


def test_is_prime_and_factorize_keep_one_cap():
    # a prime just above the cap needs no trial divisor past TRIAL_DIVISOR_LIMIT, for either
    assert factorize(10**12 + 39) == ((10**12 + 39, 1),)
    assert is_prime(10**12 + 39)


def test_factorize_is_not_capped():
    # prime powers far above the primality cap, as landscape sequences need
    assert factorize(23**15) == ((23, 15),)
    assert factorize(2**64 * 3) == ((2, 64), (3, 1))


def test_factorize_refuses_cofactors_past_the_trial_divisor_cap():
    assert TRIAL_DIVISOR_LIMIT == 10**6
    # a cofactor below the square of the next divisor is prime, as is_prime would certify it
    assert factorize(999_999_999_989) == ((999_999_999_989, 1),)
    assert factorize(2 * 999_999_999_989) == ((2, 1), (999_999_999_989, 1))
    for n in (1000000007 * 1000000009, 1000003**2, 999_999_999_989**2):
        with pytest.raises(SizeLimitError):
            factorize(n)


def test_factorize_known():
    assert factorize(1) == ()
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))
    assert factorize(97) == ((97, 1),)


@pytest.mark.parametrize("n", [0, -4])
def test_factorize_rejects_non_positive(n):
    with pytest.raises(PreconditionError):
        factorize(n)


def test_factorize_reconstructs():
    for n in range(1, 200):
        prod = 1
        for p, e in factorize(n):
            assert is_prime(p) and e >= 1
            prod *= p**e
        assert prod == n


def test_prime_divisors():
    assert prime_divisors(1) == ()
    assert prime_divisors(60) == (2, 3, 5)
    assert prime_divisors(16) == (2,)


@pytest.mark.parametrize("n,value", [(1, 1), (2, 1), (12, 4), (60, 16), (97, 96)])
def test_euler_phi_values(n, value):
    assert euler_phi(n) == value


def test_euler_phi_divisor_sum():
    for n in range(1, 61):
        assert sum(euler_phi(d) for d in range(1, n + 1) if n % d == 0) == n


def test_is_power_of():
    assert is_power_of(1, 2) and is_power_of(8, 2) and is_power_of(81, 3)
    assert not is_power_of(12, 2) and not is_power_of(3, 2) and not is_power_of(18, 3)
