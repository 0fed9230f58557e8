//! Elementary number theory used by the transposition-cycle analysis.
//!
//! The in-place transposition permutation `k ↦ kM mod (MN − 1)` is a unit
//! multiplication in the ring `Z_{MN−1}`, so its cycle structure is governed
//! by multiplicative orders modulo the divisors of `MN − 1` (Cate & Twigg,
//! TOMS 1977). Everything in this module is exact `u64`/`u128` arithmetic —
//! no floating point, no probabilistic primality.

/// Greatest common divisor (binary-free Euclid; inputs may be zero).
#[must_use]
pub fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Least common multiple. Panics on overflow (debug) like ordinary `u64` mul.
#[must_use]
pub fn lcm(a: u64, b: u64) -> u64 {
    if a == 0 || b == 0 {
        return 0;
    }
    a / gcd(a, b) * b
}

/// Modular multiplication that cannot overflow: the product in `u64`
/// while it fits, through a `u128` intermediate only when it does not
/// (a 128-bit remainder is a library call, a 64-bit one an instruction).
#[inline]
#[must_use]
pub fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    debug_assert!(m > 0);
    match a.checked_mul(b) {
        Some(p) => p % m,
        None => ((a as u128 * b as u128) % m as u128) as u64,
    }
}

/// Modular exponentiation `a^e mod m` by square-and-multiply.
///
/// Used to jump `t` steps along a transposition cycle in `O(log t)`:
/// `succ^t(k) = k · M^t mod (MN − 1)` — the basis of a-priori cycle
/// splitting in the Gustavson/Karlsson parallel CPU implementation.
#[must_use]
pub fn pow_mod(mut a: u64, mut e: u64, m: u64) -> u64 {
    debug_assert!(m > 0);
    if m == 1 {
        return 0;
    }
    let mut acc: u64 = 1;
    a %= m;
    while e > 0 {
        if e & 1 == 1 {
            acc = mul_mod(acc, a, m);
        }
        a = mul_mod(a, a, m);
        e >>= 1;
    }
    acc
}

/// Modular inverse of `a` modulo `n` via the extended Euclidean algorithm;
/// `None` when `gcd(a, n) != 1`. `mod_inverse(x, 1) == Some(0)`.
#[must_use]
pub fn mod_inverse(a: u64, n: u64) -> Option<u64> {
    if n == 0 {
        return None;
    }
    if n == 1 {
        return Some(0);
    }
    let (mut old_r, mut r) = (a as i128 % n as i128, n as i128);
    let (mut old_s, mut s) = (1i128, 0i128);
    while r != 0 {
        let q = old_r / r;
        (old_r, r) = (r, old_r - q * r);
        (old_s, s) = (s, old_s - q * s);
    }
    if old_r != 1 {
        return None; // not coprime
    }
    Some(old_s.rem_euclid(n as i128) as u64)
}

/// Prime factorisation by trial division, returned as `(prime, exponent)`
/// pairs in increasing prime order. Fine for the magnitudes in this crate
/// (`MN − 1` of matrices that fit in memory).
#[must_use]
pub fn factorize(mut n: u64) -> Vec<(u64, u32)> {
    let mut out = Vec::new();
    let mut p = 2u64;
    while p * p <= n {
        if n.is_multiple_of(p) {
            let mut e = 0u32;
            while n.is_multiple_of(p) {
                n /= p;
                e += 1;
            }
            out.push((p, e));
        }
        p += if p == 2 { 1 } else { 2 };
    }
    if n > 1 {
        out.push((n, 1));
    }
    out
}

/// All divisors of `n`, sorted ascending. `divisors(0)` is empty.
#[must_use]
pub fn divisors(n: u64) -> Vec<u64> {
    if n == 0 {
        return Vec::new();
    }
    let mut divs = vec![1u64];
    for (p, e) in factorize(n) {
        let prev = divs.clone();
        let mut pe = 1u64;
        for _ in 0..e {
            pe *= p;
            divs.extend(prev.iter().map(|d| d * pe));
        }
    }
    divs.sort_unstable();
    divs
}

/// Euler's totient φ(n).
#[must_use]
pub fn totient(n: u64) -> u64 {
    if n == 0 {
        return 0;
    }
    let mut phi = n;
    for (p, _) in factorize(n) {
        phi = phi / p * (p - 1);
    }
    phi
}

/// Multiplicative order of `a` modulo `n`: the least `t > 0` with
/// `a^t ≡ 1 (mod n)`. Requires `gcd(a, n) == 1`; returns `None` otherwise.
/// `order(anything, 1)` is `Some(1)`.
#[must_use]
pub fn multiplicative_order(a: u64, n: u64) -> Option<u64> {
    if n == 0 {
        return None;
    }
    if n == 1 {
        return Some(1);
    }
    let a = a % n;
    if gcd(a, n) != 1 {
        return None;
    }
    // The order divides λ(n) | φ(n); test divisors of φ(n) ascending is
    // wasteful for huge n, so use the standard reduction: start from φ(n)
    // and strip prime factors while the power stays 1.
    let phi = totient(n);
    let mut ord = phi;
    for (p, e) in factorize(phi) {
        for _ in 0..e {
            if ord.is_multiple_of(p) && pow_mod(a, ord / p, n) == 1 {
                ord /= p;
            } else {
                break;
            }
        }
    }
    debug_assert_eq!(pow_mod(a, ord, n), 1);
    Some(ord)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(0, 7), 7);
        assert_eq!(gcd(7, 0), 7);
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(17, 13), 1);
        assert_eq!(gcd(u64::MAX, u64::MAX), u64::MAX);
    }

    #[test]
    fn lcm_basics() {
        assert_eq!(lcm(0, 5), 0);
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(7, 13), 91);
    }

    #[test]
    fn pow_mod_matches_naive() {
        for a in 0..20u64 {
            for e in 0..12u64 {
                for m in 1..30u64 {
                    let mut naive = 1u64 % m;
                    for _ in 0..e {
                        naive = naive * a % m;
                    }
                    assert_eq!(pow_mod(a, e, m), naive, "a={a} e={e} m={m}");
                }
            }
        }
    }

    #[test]
    fn pow_mod_large_no_overflow() {
        // 2^63 mod a large prime; would overflow naive u64 multiplication.
        let p = 18_446_744_073_709_551_557; // largest u64 prime
        let r = pow_mod(2, 200, p);
        assert!(r < p);
        // Fermat: 2^(p-1) ≡ 1 mod p.
        assert_eq!(pow_mod(2, p - 1, p), 1);
    }

    #[test]
    fn factorize_roundtrip() {
        for n in 1..500u64 {
            let f = factorize(n);
            let back: u64 = f.iter().map(|&(p, e)| p.pow(e)).product();
            assert_eq!(back, n);
            for w in f.windows(2) {
                assert!(w[0].0 < w[1].0, "primes sorted");
            }
        }
    }

    #[test]
    fn divisors_small() {
        assert_eq!(divisors(1), vec![1]);
        assert_eq!(divisors(12), vec![1, 2, 3, 4, 6, 12]);
        assert_eq!(divisors(14), vec![1, 2, 7, 14]);
        assert!(divisors(0).is_empty());
    }

    #[test]
    fn divisors_count_matches_brute_force() {
        for n in 1..300u64 {
            let brute: Vec<u64> = (1..=n).filter(|d| n % d == 0).collect();
            assert_eq!(divisors(n), brute, "n={n}");
        }
    }

    #[test]
    fn totient_small() {
        let expect = [0, 1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4];
        for (n, &phi) in expect.iter().enumerate() {
            assert_eq!(totient(n as u64), phi, "n={n}");
        }
    }

    #[test]
    fn totient_matches_brute_force() {
        for n in 1..200u64 {
            let brute = (1..=n).filter(|&k| gcd(k, n) == 1).count() as u64;
            assert_eq!(totient(n), brute, "n={n}");
        }
    }

    #[test]
    fn order_examples() {
        // ord_7(5): 5,4,6,2,3,1 → 6
        assert_eq!(multiplicative_order(5, 7), Some(6));
        // ord_14(5): 5,11,13,9,3,1 → 6 (used by the paper's 5×3 example)
        assert_eq!(multiplicative_order(5, 14), Some(6));
        assert_eq!(multiplicative_order(1, 9), Some(1));
        assert_eq!(multiplicative_order(3, 1), Some(1));
        assert_eq!(multiplicative_order(6, 14), None, "not coprime");
    }

    #[test]
    fn order_matches_brute_force() {
        for n in 2..120u64 {
            for a in 1..n {
                if gcd(a, n) != 1 {
                    assert_eq!(multiplicative_order(a, n), None);
                    continue;
                }
                let mut x = a % n;
                let mut t = 1;
                while x != 1 {
                    x = x * a % n;
                    t += 1;
                }
                assert_eq!(multiplicative_order(a, n), Some(t), "a={a} n={n}");
            }
        }
    }
}
