"""Group algebras k[G] over k[N], N normal: Hopf-Galois extensions.

A k[G/N]-Galois extension k[G] ⊇ k[N] has H^n(kG, kN; kG) equal to the
group cohomology H^n(G/N, V) of V = (kG)^N, whose basis is the sums of
the N-conjugacy orbits of G, permuted by G/N.  For G/N cyclic of order
q, generated by the coset of t, with T the permutation of the orbit
sums that conjugation by t gives and Norm = Σ_{i<q} T^i:

    H^0 = ker(T − 1),
    H^n = ker Norm / im(T − 1) for odd n, ker(T − 1) / im Norm for even n.

The oracle computes these from the permutations alone, with the plain
Python ranks of ``naive_rank``; the package's tables and ``linalg``
play no part in it.  The complex also has dim C^n = dim R·[G:N]^n, R
the centralizer C^0.
"""

import itertools

import pytest

from coringlab.corpus import A4_PERMS, S3_PERMS, subgroup_extension
from coringlab.hochschild import build_complex, cohomology_dims

from conftest import naive_rank


def compose(a, b):
    return tuple(a[b[i]] for i in range(len(b)))


def inverse(a):
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def power(g, i):
    out = tuple(range(len(g)))
    for _ in range(i):
        out = compose(out, g)
    return out


def conjugate(t, g):
    return compose(compose(t, g), inverse(t))


def oracle_dims(perms, sub, top, p):
    """dim H^0..H^top of G/N with coefficients in (kG)^N, and [G:N]."""
    normal = [perms[i] for i in sub]
    orbits = []
    for g in perms:
        if not any(g in o for o in orbits):
            orbits.append({conjugate(n, g) for n in normal})
    index = len(perms) // len(normal)
    # a t whose coset generates G/N
    t = next(g for g in perms
             if len({frozenset(compose(power(g, i), n) for n in normal)
                     for i in range(index)}) == index)
    k = len(orbits)
    where = [next(j for j, o in enumerate(orbits) if conjugate(t, min(orbits[i])) in o)
             for i in range(k)]
    t_minus_1 = [[int(where[j] == i) - int(i == j) for j in range(k)] for i in range(k)]
    norm = [[0] * k for _ in range(k)]
    for j in range(k):
        at = j
        for _ in range(index):
            norm[at][j] += 1
            at = where[at]
    r_t, r_norm = naive_rank(t_minus_1, p), naive_rank(norm, p)
    # odd and even degrees have the same dimension, k − rank Norm − rank(T − 1)
    return [k - r_t] + [k - r_norm - r_t] * top, index


CASES = [
    # (perms, subgroup indices, primes, top degree)
    ("S3/C3", S3_PERMS, [0, 4, 5], (2, 3, 5, 7), 4),
    ("A4/V4", A4_PERMS, [0, 1, 2, 3], (2, 3, 5), 3),
]


@pytest.mark.parametrize("name, perms, sub, primes, top", CASES, ids=[c[0] for c in CASES])
def test_group_algebra_cohomology_is_the_quotient_group_cohomology(name, perms, sub, primes, top):
    names = ["".join(map(str, q)) for q in perms]
    for p in primes:
        c = build_complex(subgroup_extension(p, perms, names, sub), top)
        want, index = oracle_dims(perms, sub, top - 1, p)
        assert cohomology_dims(c) == want, (name, p)
        assert [c.dim(n) for n in range(top + 1)] == [c.dim(0) * index**n
                                                    for n in range(top + 1)], (name, p)


def test_the_oracle_reads_the_recorded_dims():
    # the values the corpus goldens carry: nonzero in every degree exactly
    # when p divides the order of G/N
    assert oracle_dims(S3_PERMS, [0, 4, 5], 3, 2)[0] == [3, 2, 2, 2]
    assert oracle_dims(S3_PERMS, [0, 4, 5], 3, 7)[0] == [3, 0, 0, 0]
    assert oracle_dims(A4_PERMS, [0, 1, 2, 3], 2, 3)[0] == [4, 3, 3]
    assert oracle_dims(A4_PERMS, [0, 1, 2, 3], 2, 5)[0] == [4, 0, 0]
    # the tables are groups with the subgroup normal
    for perms, sub in ((S3_PERMS, [0, 4, 5]), (A4_PERMS, [0, 1, 2, 3])):
        normal = {perms[i] for i in sub}
        for g, n in itertools.product(perms, normal):
            assert compose(compose(g, n), inverse(g)) in normal
