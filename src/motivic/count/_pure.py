"""Plain-Python counting kernels; count_stratum keeps the contract of _ckernel.

Neither kernel visits the candidates of a stratum one by one.  Both walk its
fibres over the last free coordinate: for each assignment of the other free
coordinates (a prefix) every generator becomes a univariate polynomial in
the last one, and the kernel counts the common roots of those polynomials.
count_stratum looks the roots up as bitmasks over the field;
count_stratum_direct computes their number as deg gcd(g_1, ..., g_m,
t^p - t) (von zur Gathen and Gerhard, Modern Computer Algebra, ch. 14).
"""

from __future__ import annotations

from itertools import product


def _prefixes(q, free_start):
    """Every prefix: the values of the free positions but the last, as value
    tuples in odometer order (the last of them steps fastest)."""
    return product(*(range(s, q) for s in free_start[:-1]))


def _fibre_terms(terms, nvars, fixed, free_pos, fold):
    """One generator's terms, split for the fibre walk of a stratum.

    terms yields (coeff, exps) pairs.  Each coordinate that is not free is
    folded into the coefficient by fold(coeff, value, e); a term that folds
    to 0 is dropped.  Returns (terms, width): each term left is (coeff,
    factors, e_last), factors being (j, e) pairs with j indexing the prefix
    and e_last the exponent of the last free coordinate (0 when there is
    none); width is one more than the highest e_last.
    """
    last = free_pos[-1] if free_pos else -1
    slot = {pos: j for j, pos in enumerate(free_pos[:-1])}
    out = []
    for c, exps in terms:
        factors = []
        for i in range(nvars):
            e = exps[i]
            if not e or i == last:
                continue
            j = slot.get(i)
            if j is not None:
                factors.append((j, e))
                continue
            c = fold(c, fixed[i], e)
            if not c:
                break
        else:
            out.append((c, tuple(factors), exps[last] if last >= 0 else 0))
    return out, max((t[2] for t in out), default=0) + 1


def count_stratum(q, nvars, fixed, free_pos, free_start, ngens,
                  gen_off, gen_coeff, gen_exps, mul, add, powt, maxd):
    """Count zeros of all generators on one lead stratum.

    fixed: value indices per coordinate (free ones are ignored);
    free_pos/free_start: the free positions and their first value, each
    running from its start to q - 1;
    generator data is flattened: term t of generator g runs over
    gen_coeff[t], gen_exps[t*nvars : (t+1)*nvars] for t in
    [gen_off[g], gen_off[g+1]).  All arithmetic is table lookups on value
    indices, powt[x*(maxd+1) + e] being x^e.

    The root set of a univariate polynomial is a bitmask over the value
    indices 0..q-1, computed on first sight of its coefficient tuple and
    kept for the rest of the call.
    """
    stride = maxd + 1

    def fold(c, x, e):
        return mul[c * q + powt[x * stride + e]]

    gens = [
        _fibre_terms(((gen_coeff[t], gen_exps[t * nvars:(t + 1) * nvars])
                      for t in range(gen_off[g], gen_off[g + 1])),
                     nvars, fixed, free_pos, fold)
        for g in range(ngens)
    ]

    if not free_pos:
        for terms, _ in gens:
            acc = 0
            for c, _, _ in terms:
                acc = add[acc * q + c]
            if acc:
                return 0
        return 1

    rows = range(0, q * stride, stride)
    masks = {}

    def roots(coeffs):
        mask = 0
        bit = 1
        for row in rows:
            acc = 0
            for e, c in enumerate(coeffs):
                if c:
                    acc = add[acc * q + mul[c * q + powt[row + e]]]
            if not acc:
                mask |= bit
            bit <<= 1
        return mask

    start = free_start[-1]
    full = (1 << q) - 1
    count = 0
    for pre in _prefixes(q, free_start):
        common = full
        for terms, width in gens:
            coeffs = [0] * width
            for v, factors, e_last in terms:
                for j, e in factors:
                    v = mul[v * q + powt[pre[j] * stride + e]]
                coeffs[e_last] = add[coeffs[e_last] * q + v]
            key = tuple(coeffs)
            mask = masks.get(key)
            if mask is None:
                mask = masks[key] = roots(key)
            common &= mask
            if not common:
                break
        count += (common >> start).bit_count()
    return count


# ---------------------------------------------------------------------------
# polynomials mod p: coefficient lists, lowest degree first, with no trailing
# zeros, so [] is the zero polynomial

def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _mulmod(a, b, p):
    """a * b; as p is prime, no leading coefficient of a product vanishes."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return [v % p for v in out]


def _remmod(a, b, p):
    """a mod b for nonzero b."""
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] * inv % p
        if c:
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - c * b[j]) % p
    return _trim(a[:db])


def _gcdmod(a, b, p):
    while b:
        a, b = b, _remmod(a, b, p)
    return a


def _roots_mod(g, p):
    """Number of distinct roots in F_p of nonzero g: deg gcd(g, t^p - t),
    with t^p mod g by square-and-multiply."""
    if len(g) <= 2:
        return len(g) - 1
    r = [1]
    for bit in bin(p)[2:]:
        r = _remmod(_mulmod(r, r, p), g, p)
        if bit == "1":
            r = _remmod([0] + r, g, p)
    r += [0] * (2 - len(r))
    r[1] = (r[1] - 1) % p
    return len(_gcdmod(g, _trim(r), p)) - 1


def count_stratum_direct(p, nvars, fixed, free_pos, free_start, gens):
    """Stratum counter for primes too large to tabulate: ints mod p.

    gens is a list of term lists [(exps, coeff_int), ...]; fixed and
    free_pos/free_start are as for count_stratum, except that the last free
    position starts at 0 or 1 (the latter when it is constrained nonzero).
    """
    def fold(c, x, e):
        return c * pow(x, e, p) % p

    split = [_fibre_terms(((c, exps) for exps, c in terms),
                          nvars, fixed, free_pos, fold)
             for terms in gens]

    if not free_pos:
        return 0 if any(sum(c for c, _, _ in terms) % p
                        for terms, _ in split) else 1

    start = free_start[-1]
    count = 0
    for pre in _prefixes(p, free_start):
        g = []
        for terms, width in split:
            coeffs = [0] * width
            for v, factors, e_last in terms:
                for j, e in factors:
                    v = v * pow(pre[j], e, p) % p
                coeffs[e_last] += v
            g = _gcdmod(g, _trim([c % p for c in coeffs]), p)
            if len(g) == 1:
                break
        if not g:
            count += p - start
        else:
            count += _roots_mod(g, p) - (1 if start and not g[0] else 0)
    return count
