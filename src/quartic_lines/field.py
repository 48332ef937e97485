"""Arithmetic in binary fields GF(2^k) for k <= 16.

Elements are bitmasks in the polynomial basis: bit i holds the coefficient
of t^i.  Addition is XOR.  Multiplication is carry-less multiplication
followed by reduction modulo a fixed irreducible polynomial; inversion,
powers and square roots go through log/antilog tables of the cyclic
multiplicative group (order 2^k - 1).

Univariate polynomials over these fields are int lists (`poly_add`,
`poly_mul`, `poly_divmod`, `poly_gcd`: the kernels behind `poly.Poly`).
Roots are found by algebra, never by evaluating at every element.  Of
degree <= 4 they are the solutions of one GF(2)-affine system, since
x -> x^2, x^4 are GF(2)-linear (Berlekamp, Rumsey and Solomon 1967);
of higher degree they come from the squarefree part, its gcd with
x^q - x, and trace splitting into linear factors (`find_roots_int`).
`root_orbits` groups the roots over extensions up to a cap by their
degree: a part of degree <= 4 by those solves in GF(q^d), a larger one
through distinct-degree factorization, whose first step is the gcd
above.  Orbits past the cap are not split: their product comes back as
one polynomial.  The zero polynomial has every element as a root:
`all_orbits` lists them in the same levels.

Field elements serialize as lowercase hex of the bitmask ("0x6" = t^2 + t);
a field spec serializes as {"degree": k, "modulus": hex}.
"""

from __future__ import annotations

from array import array
from typing import Optional, Sequence

import numpy as np

from .errors import UsageError

# Irreducible moduli for k = 1..16, bit i = coefficient of t^i, bit k set.
# Verified irreducible at construction time; overridable per FieldSpec.
DEFAULT_MODULI = {
    1: 0b11,         # t + 1
    2: 0b111,        # t^2 + t + 1
    3: 0b1011,       # t^3 + t + 1
    4: 0b10011,      # t^4 + t + 1
    5: 0b100101,     # t^5 + t^2 + 1
    6: 0b1000011,    # t^6 + t + 1
    7: 0b10000011,   # t^7 + t + 1
    8: 0x11B,        # t^8 + t^4 + t^3 + t + 1
    9: 0x211,        # t^9 + t^4 + 1
    10: 0x409,       # t^10 + t^3 + 1
    11: 0x805,       # t^11 + t^2 + 1
    12: 0x1053,      # t^12 + t^6 + t^4 + t + 1
    13: 0x201B,      # t^13 + t^4 + t^3 + t + 1
    14: 0x4443,      # t^14 + t^10 + t^6 + t + 1
    15: 0x8003,      # t^15 + t + 1
    16: 0x1100B,     # t^16 + t^12 + t^3 + t + 1
}

MAX_DEGREE = 16
_LIST_TABLE_MAX_SIZE = 4096


class FieldError(ValueError):
    """Usage error in field arithmetic (mismatched fields, bad modulus...)."""


def json_natural(value, what: str) -> int:
    """A non-negative integer read from JSON; anything else (a fraction,
    a negative number, a bool, a string) is refused as bad input."""
    if type(value) is not int or value < 0:
        raise UsageError(f"{what} must be a non-negative integer, "
                         f"got {value!r}")
    return value


def json_hex(value, what: str) -> int:
    """A non-negative integer read from a JSON hex string ("0x1f"); a
    number or a malformed or negative string is refused as bad input."""
    try:
        return json_natural(int(value, 16), what)
    except (TypeError, ValueError):
        raise UsageError(f"{what} must be a hex string, got {value!r}"
                         ) from None


def json_of(value, kind: type, what: str):
    """value, refused as bad input unless it is a JSON object (kind dict)
    or list (kind list)."""
    if not isinstance(value, kind):
        name = "object" if kind is dict else "list"
        raise UsageError(f"{what} must be a JSON {name}, got "
                         f"{type(value).__name__}")
    return value


def json_key(data: dict, key: str, what: str):
    """data[key] of a JSON object, refused as bad input naming the object
    and the key when the object lacks it."""
    if key not in data:
        raise UsageError(f"{what} lacks the key {key!r}")
    return data[key]


def _gf2_poly_degree(p: int) -> int:
    return p.bit_length() - 1


def _gf2_poly_mod(a: int, b: int) -> int:
    """Remainder of carry-less division of a by b over GF(2)."""
    db = _gf2_poly_degree(b)
    while a.bit_length() - 1 >= db and a:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def _gf2_poly_irreducible(p: int, k: int) -> bool:
    """Exhaustive factor scan: no monic divisor of degree 1..k//2."""
    for d in range(1, k // 2 + 1):
        for q in range(1 << d, 1 << (d + 1)):
            if _gf2_poly_mod(p, q) == 0:
                return False
    return True


class FieldSpec:
    """A binary field GF(2^k) with a fixed irreducible modulus.

    Immutable and shareable; all arithmetic helpers are pure.  The int-level
    methods (`mul_int` etc.) operate on raw bitmasks.
    """

    __slots__ = (
        "degree", "modulus", "order", "size",
        "_exp", "_log", "_exps", "_logs", "_arr_tables", "_embeddings",
        "_artin_schreier",
    )

    def __init__(self, degree: int, modulus: Optional[int] = None):
        if not (1 <= degree <= MAX_DEGREE):
            raise FieldError(f"degree must be in 1..{MAX_DEGREE}, got {degree}")
        if modulus is None:
            modulus = DEFAULT_MODULI[degree]
        if not ((modulus >> degree) & 1) or modulus >= (1 << (degree + 1)):
            raise FieldError(
                f"modulus {modulus:#x} does not have degree {degree}")
        if not _gf2_poly_irreducible(modulus, degree):
            raise FieldError(f"modulus {modulus:#x} is reducible over GF(2)")
        self.degree = degree
        self.modulus = modulus
        self.size = 1 << degree
        self.order = self.size - 1
        self._exp = None
        self._log = None
        self._exps = None
        self._logs = None
        self._arr_tables = None         # the array kernels', on first use
        self._embeddings = {}
        self._artin_schreier = None     # echelon of s -> s^2 + s, on demand

    # -- construction helpers -------------------------------------------------

    _default_cache: dict = {}

    @classmethod
    def default(cls, degree: int) -> "FieldSpec":
        """The canonical GF(2^degree) with the built-in modulus (cached)."""
        spec = cls._default_cache.get(degree)
        if spec is None:
            spec = cls(degree)
            cls._default_cache[degree] = spec
        return spec

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldSpec)
                and self.degree == other.degree
                and self.modulus == other.modulus)

    def __hash__(self) -> int:
        return hash((self.degree, self.modulus))

    def __repr__(self) -> str:
        return f"FieldSpec(degree={self.degree}, modulus={self.modulus:#x})"

    def to_json(self) -> dict:
        return {"degree": self.degree, "modulus": hex(self.modulus)}

    @classmethod
    def from_json(cls, data: dict) -> "FieldSpec":
        data = json_of(data, dict, "field")
        return cls(json_natural(json_key(data, "degree", "field"),
                                "field degree"),
                   json_hex(json_key(data, "modulus", "field"),
                            "field modulus"))

    def level(self, d: int) -> "FieldSpec":
        """GF(q^d) over this field GF(q): itself for d = 1, else the
        default GF(2^(k d)), as `root_orbits` lists its levels."""
        return self if d == 1 else FieldSpec.default(self.degree * d)

    def element(self, bits: int) -> int:
        """bits, refused as bad input unless it is an element bitmask."""
        if not 0 <= bits < self.size:
            raise UsageError(f"{bits:#x} is not an element of "
                             f"GF(2^{self.degree})")
        return bits

    # -- raw bitmask arithmetic ----------------------------------------------

    def clmul_int(self, a: int, b: int) -> int:
        """Carry-less multiply then reduce by the modulus."""
        r = 0
        while b:
            low = b & -b
            r ^= a * low  # single-bit multiply == shift
            b ^= low
        return _gf2_poly_mod(r, self.modulus)

    def _build_tables(self) -> None:
        # Find a multiplicative generator by scanning element orders.
        size, order = self.size, self.order
        exp = np.zeros(2 * order, dtype=np.uint32)
        log = np.zeros(size, dtype=np.int64)
        for g in range(2, size):
            x = 1
            ok = True
            for i in range(order):
                exp[i] = x
                if x == 1 and i > 0:
                    ok = False
                    break
                x = self.clmul_int(x, g)
            if ok and x == 1:
                break
        else:
            if size == 2:
                exp[0] = 1
            else:  # pragma: no cover - impossible for irreducible modulus
                raise FieldError("no multiplicative generator found")
        exp[order:2 * order] = exp[:order]
        for i in range(order):
            log[exp[i]] = i
        self._exp = exp
        self._log = log

    @property
    def exp_table(self) -> np.ndarray:
        """g^i for i < 2*order, as uint32: one period, then a second, so
        a sum of two logs indexes it directly."""
        if self._exp is None:
            self._build_tables()
        return self._exp

    @property
    def log_table(self) -> np.ndarray:
        """The log of each nonzero element to the base g, as int64; the
        entry at 0 is 0 and means nothing (the array kernels' own copy
        puts a sentinel there, `_array_tables`)."""
        if self._log is None:
            self._build_tables()
        return self._log

    def _scalar_tables(self) -> None:
        # Copies of the tables for the int-level methods: a list indexes
        # several times faster than a numpy array, but its int objects take
        # megabytes above 4096 elements, where 2-byte arrays are kept.
        if self._exp is None:
            self._build_tables()
        exps, logs = self._exp[:self.order], self._log
        if self.size <= _LIST_TABLE_MAX_SIZE:
            exps, logs = exps.tolist(), logs.tolist()
        else:
            exps = array("H", exps.astype(np.uint16).tobytes())
            logs = array("H", logs.astype(np.uint16).tobytes())
        self._exps = exps + exps
        self._logs = logs

    def mul_int(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        logs = self._logs
        if logs is None:
            self._scalar_tables()
            logs = self._logs
        return self._exps[logs[a] + logs[b]]

    def inv_int(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse in GF(2^k)")
        if a == 1:
            return 1
        if self._logs is None:
            self._scalar_tables()
        return self._exps[self.order - self._logs[a]]

    def pow_int(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("0 to a negative power")
            return 0
        if self._logs is None:
            self._scalar_tables()
        return self._exps[(self._logs[a] * e) % self.order]

    def sqrt_int(self, a: int) -> int:
        # Squaring is a bijection in characteristic 2: sqrt = a^(2^(k-1)).
        return self.pow_int(a, 1 << (self.degree - 1))

    def div_int(self, a: int, b: int) -> int:
        return self.mul_int(a, self.inv_int(b))

    # -- vectorized arithmetic on uint32 arrays ------------------------------

    def _array_tables(self):
        # The log-domain tables of the array kernels (mul_arr, and the
        # census's `geometry._eval_on_grid`).  log(0) = Z = 5*order passes
        # a coefficient's log plus four nonzero logs, the most a term of a
        # quartic adds; exp repeats with period order below Z and is 0 from
        # Z to 4Z + order - 1, four zero coordinates plus a coefficient: a
        # zero factor reads 0 in the one gather, and mul_arr's sum of two
        # logs is a case.  int32 holds every sum (< 2^21); the 2-byte
        # scalar tables cannot.
        order = self.order
        zero = 5 * order
        exp = np.zeros(4 * zero + order, dtype=np.uint32)
        exp[:zero] = np.tile(self.exp_table[:order], 5)
        log = self.log_table.astype(np.int32)
        log[0] = zero
        self._arr_tables = exp, log
        return exp, log

    def mul_arr(self, a: np.ndarray, b) -> np.ndarray:
        exp, log = self._arr_tables or self._array_tables()
        return exp[log[a] + log[b]]

    def pow_arr(self, a: np.ndarray, e: int) -> np.ndarray:
        a = np.asarray(a, dtype=np.uint32)
        if e == 0:
            return np.ones_like(a)
        out = self.exp_table[(self.log_table[a] * e) % self.order]
        return np.where(a == 0, np.uint32(0), out)

    # -- canonical subfield embeddings ---------------------------------------

    def embedding_to(self, target: "FieldSpec") -> "FieldEmbedding":
        """Canonical embedding GF(2^m) -> GF(2^n) for m | n.

        Built by chaining prime-degree steps (primes of n/m in increasing
        order, default moduli for the intermediate fields); at each prime
        step the source generator maps to the root of the source modulus
        with lexicographically smallest bitmask.  An embedding into a
        default field composed with one out of it equals the direct
        embedding, for every pair of fields up to GF(2^16)
        (`tests/test_field.py::test_embeddings_through_a_level_agree`).
        """
        key = (target.degree, target.modulus)
        emb = self._embeddings.get(key)
        if emb is not None:
            return emb
        if target.degree % self.degree != 0:
            raise FieldError(
                f"no embedding GF(2^{self.degree}) -> GF(2^{target.degree}): "
                "degrees do not divide")
        ratio = target.degree // self.degree
        if ratio == 1:
            if target != self:
                emb = _prime_step_embedding(self, target)
            else:
                emb = FieldEmbedding(self, target,
                                     2 if self.degree > 1 else 1)
        else:
            primes = _prime_factors(ratio)
            chain = [self]
            d = self.degree
            for p in primes:
                d *= p
                chain.append(target if d == target.degree
                             else FieldSpec.default(d))
            emb = None
            for src, dst in zip(chain, chain[1:]):
                step = _prime_step_embedding(src, dst)
                emb = step if emb is None else emb.compose(step)
        self._embeddings[key] = emb
        return emb


def _prime_factors(n: int) -> list:
    out = []
    d = 2
    while n > 1:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    return out


def _prime_step_embedding(source: FieldSpec, target: FieldSpec) -> "FieldEmbedding":
    """Embedding for one tower step: lexicographically smallest root."""
    if source.degree == 1:
        return FieldEmbedding(source, target, 1)
    # The source modulus has 0/1 coefficients, the same in every field.
    modulus = [(source.modulus >> i) & 1 for i in range(source.degree + 1)]
    roots = find_roots_int(modulus, target)
    if not roots:  # pragma: no cover - impossible: modulus irreducible
        raise FieldError("internal error: modulus has no root in extension")
    return FieldEmbedding(source, target, roots[0][0])


class FieldEmbedding:
    """A field homomorphism GF(2^m) -> GF(2^n) fixing GF(2)."""

    __slots__ = ("source", "target", "gen_image", "_powers")

    def __init__(self, source: FieldSpec, target: FieldSpec, gen_image: int):
        self.source = source
        self.target = target
        self.gen_image = gen_image
        self._powers = [target.pow_int(gen_image, i)
                        for i in range(source.degree)]

    def apply_int(self, bits: int) -> int:
        out = 0
        i = 0
        while bits:
            if bits & 1:
                out ^= self._powers[i]
            bits >>= 1
            i += 1
        return out

    def compose(self, then: "FieldEmbedding") -> "FieldEmbedding":
        if self.target != then.source:
            raise FieldError("embeddings do not compose")
        return FieldEmbedding(self.source, then.target,
                              then.apply_int(self.gen_image))


# -- univariate polynomials as int lists --------------------------------------
#
# Little-endian lists of coefficient bitmasks with no trailing zeros; the
# zero polynomial is [].  `poly.Poly` keeps its coefficients in this form
# and calls these helpers for sums, products, remainders and gcds.


def _trim(cs: list) -> list:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _tables(spec: FieldSpec):
    if spec._logs is None:
        spec._scalar_tables()
    return spec._exps, spec._logs


def poly_mul(a: Sequence[int], b: Sequence[int], spec: FieldSpec) -> list:
    """Product of two coefficient lists; untrimmed (formal-degree) lists
    give the formal product, of length len(a) + len(b) - 1."""
    if not a or not b:
        return []
    exps, logs = _tables(spec)
    lb = [(j, logs[c]) for j, c in enumerate(b) if c]
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            la = logs[c]
            for j, l in lb:
                out[i + j] ^= exps[la + l]
    return out


def poly_divmod(a: Sequence[int], b: Sequence[int], spec: FieldSpec):
    """(quotient, remainder) of trimmed coefficient lists, b nonzero."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = _trim(list(a))
    d = len(b) - 1
    if len(rem) <= d:
        return [], rem
    exps, logs = _tables(spec)
    order = spec.order
    lead = logs[b[-1]]
    lb = [(i, logs[c]) for i, c in enumerate(b[:-1]) if c]
    quot = [0] * (len(rem) - d)
    for shift in range(len(rem) - 1 - d, -1, -1):
        c = rem[shift + d]
        if c:
            lq = (logs[c] - lead) % order
            quot[shift] = exps[lq]
            for i, l in lb:
                rem[shift + i] ^= exps[lq + l]
    return quot, _trim(rem[:d])


def poly_monic(a: Sequence[int], spec: FieldSpec) -> list:
    if not a:
        return []
    inv = spec.inv_int(a[-1])
    return [spec.mul_int(inv, c) for c in a]


def poly_gcd(a: Sequence[int], b: Sequence[int], spec: FieldSpec) -> list:
    """Monic gcd (the zero polynomial when both are zero)."""
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, poly_divmod(a, b, spec)[1]
    return poly_monic(a, spec)


def poly_add(a: Sequence[int], b: Sequence[int]) -> list:
    """Sum (and difference) of two coefficient lists."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] ^= c
    return _trim(out)


def _square_mod(h: Sequence[int], g: Sequence[int], spec: FieldSpec) -> list:
    # characteristic 2: (sum c_i x^i)^2 = sum c_i^2 x^(2i)
    exps, logs = _tables(spec)
    sq = [0] * (2 * len(h) - 1) if h else []
    for i, c in enumerate(h):
        if c:
            sq[2 * i] = exps[2 * logs[c]]
    return poly_divmod(sq, g, spec)[1]


def _frobenius(h: Sequence[int], g: Sequence[int], spec: FieldSpec) -> list:
    """h^q mod g, q the size of the coefficient field."""
    for _ in range(spec.degree):
        h = _square_mod(h, g, spec)
    return h


def _squarefree_part(f: Sequence[int], spec: FieldSpec) -> list:
    """Product of the distinct monic irreducible factors of nonzero f.

    gcd(f, f') keeps every factor of even multiplicity whole and every
    factor of odd multiplicity e to the power e - 1; f / gcd(f, f') is the
    product of the odd-multiplicity factors.  Stripping those from the gcd
    leaves a square, whose square root holds the rest (f' = 0 means f is a
    square: coefficient square roots)."""
    f = poly_monic(f, spec)
    out = [1]
    while len(f) > 1:
        df = _trim([c if i % 2 else 0 for i, c in enumerate(f)][1:])
        if df:
            c = poly_gcd(f, df, spec)
            odd = poly_divmod(f, c, spec)[0]
            out = poly_mul(out, odd, spec)
            y = poly_gcd(odd, c, spec)
            while len(y) > 1:
                c = poly_divmod(c, y, spec)[0]
                y = poly_gcd(y, c, spec)
            f = c
        else:
            f = [spec.sqrt_int(c) for c in f[::2]]
    return out


def _split_linear(g: Sequence[int], spec: FieldSpec, start: int = 0) -> list:
    """Roots of a monic squarefree g that is a product of linear factors.

    gcd(g, Tr(b x)) with the absolute trace Tr(y) = sum_{i<k} y^(2^i) keeps
    the roots r with Tr(b r) = 0.  The trace form is nondegenerate, so for
    two distinct roots some b of the basis 1, t, ..., t^(k-1) tells them
    apart; a b that splits nothing of g splits nothing of its factors, so
    factors continue with the next b."""
    if len(g) <= 2:
        return [g[0]] if len(g) == 2 else []
    mul = spec.mul_int
    powers = [[0, 1]]                   # x^(2^i) mod g, i < k
    for _ in range(spec.degree - 1):
        powers.append(_square_mod(powers[-1], g, spec))
    for j in range(start, spec.degree):
        b, tr = 1 << j, []
        for xp in powers:               # Tr(b x) = sum b^(2^i) x^(2^i)
            tr = poly_add(tr, [mul(b, c) for c in xp])
            b = mul(b, b)
        a = poly_gcd(g, tr, spec)
        if 1 < len(a) < len(g):
            rest = poly_divmod(g, a, spec)[0]
            return (_split_linear(a, spec, j + 1)
                    + _split_linear(rest, spec, j + 1))
    raise FieldError(  # pragma: no cover - the trace form is nondegenerate
        "internal error: trace splitting found no separating element")


def _strip_zero_root(coeffs: Sequence[int]):
    """(trimmed coefficients, multiplicity of the root 0)."""
    cs = _trim(list(coeffs))
    if not cs:
        raise FieldError("find_roots: zero polynomial")
    zeros = 0
    while cs[zeros] == 0:
        zeros += 1
    return cs, zeros


def _divide_out(coeffs: Sequence[int], r: int, spec: FieldSpec):
    """(multiplicity of the root r, cofactor): repeated synthetic division
    of trimmed nonzero coefficients by (x - r)."""
    mult, work = 0, coeffs
    while len(work) > 1:
        quot, rem = _deflate(work, r, spec)
        if rem:
            break
        mult, work = mult + 1, quot
    return mult, work


# -- roots of degree <= 4: one GF(2)-affine solve -----------------------------
#
# In characteristic 2 the maps x -> x^2, x^4 are GF(2)-linear, so every
# equation sum c_i x^(2^i) = rhs is a k x k linear system over GF(2) on the
# bitmask coordinates, and every polynomial of degree <= 4 reduces to one
# (Berlekamp, Rumsey and Solomon, "On the solution of algebraic equations
# over finite fields", Inform. Control 10, 1967).


def _echelon(spec: FieldSpec, lcoeffs: Sequence[int]):
    """Row echelon form of x -> sum lcoeffs[i] x^(2^i) over GF(2).

    Returns (rows, kernel): rows[b] = (image, preimage) for the row whose
    image has top bit b (None when no row has), and a basis of the kernel."""
    exps, logs = _tables(spec)
    order = spec.order
    terms = [(i, logs[c]) for i, c in enumerate(lcoeffs) if c]
    rows = [None] * spec.degree
    kernel = []
    for j in range(spec.degree):
        lx = logs[1 << j]
        image = 0
        for i, lc in terms:             # c_i (t^j)^(2^i)
            image ^= exps[lc + ((lx << i) % order)]
        pre = 1 << j
        while image:
            top = image.bit_length() - 1
            if rows[top] is None:
                rows[top] = (image, pre)
                break
            image ^= rows[top][0]
            pre ^= rows[top][1]
        else:
            kernel.append(pre)
    return rows, kernel


def _particular(rows: list, rhs: int) -> Optional[int]:
    """An x whose image under the echelon `rows` is rhs, or None."""
    x = 0
    while rhs:
        row = rows[rhs.bit_length() - 1]
        if row is None:
            return None
        rhs ^= row[0]
        x ^= row[1]
    return x


def _affine_solutions(spec: FieldSpec, lcoeffs: Sequence[int],
                      rhs: int) -> list:
    """Every x in GF(q) with sum lcoeffs[i] x^(2^i) = rhs: a particular
    solution plus the span of the kernel."""
    rows, kernel = _echelon(spec, lcoeffs)
    x = _particular(rows, rhs)
    if x is None:
        return []
    out = [x]
    for v in kernel:
        out += [y ^ v for y in out]
    return out


def _small_roots(cs: Sequence[int], spec: FieldSpec) -> list:
    """The distinct roots in GF(q) of sum(cs[i] x^i), 1 <= degree <= 4.

    Quadratic x^2 + bx + c: x = sqrt(c) when b = 0, else x = b s with
    s^2 + s = c/b^2, whose echelon each field caches.  Cubic: x = y + c2
    gives y^3 + py + q, whose roots are the kernel of y^4 + py^2 + qy
    without 0 unless q = 0.  Quartic: with no cubic term it is affine;
    else the shift by s = sqrt(c1/c3) kills the linear term, and the root
    y = 0 aside, z = 1/y solves b0 z^4 + b2 z^2 + c3 z = 1."""
    mul, inv = spec.mul_int, spec.inv_int
    lead = inv(cs[-1])
    cs = [mul(lead, c) for c in cs]
    n = len(cs) - 1
    if n == 1:
        return [cs[0]]
    if n == 2:
        c, b = cs[0], cs[1]
        if not b:
            return [spec.sqrt_int(c)]
        if spec._artin_schreier is None:
            spec._artin_schreier = _echelon(spec, (1, 1))[0]
        ib = inv(b)
        s = _particular(spec._artin_schreier, mul(c, mul(ib, ib)))
        return [] if s is None else [mul(b, s), mul(b, s ^ 1)]
    if n == 3:
        c0, c1, c2 = cs[:3]
        p, q = mul(c2, c2) ^ c1, mul(c1, c2) ^ c0
        return [y ^ c2 for y in _affine_solutions(spec, (q, p, 1), 0)
                if y or not q]
    c0, c1, c2, c3 = cs[:4]
    if not c3:
        return _affine_solutions(spec, (c1, c2, 1), c0)
    s = spec.sqrt_int(spec.div_int(c1, c3))
    b2, b0 = mul(c3, s) ^ c2, _deflate(cs, s, spec)[1]
    if not b0:                          # y^2 (y^2 + c3 y + b2)
        return [s] + [s ^ y for y in _small_roots([b2, c3, 1], spec) if y]
    i0 = inv(b0)
    return [s ^ inv(z) for z in
            _affine_solutions(spec, (mul(c3, i0), mul(b2, i0), 1), i0)]


def find_roots_int(coeffs: Sequence[int], spec: FieldSpec) -> list:
    """All roots in the coefficient field of sum(coeffs[i] x^i), with
    multiplicities.

    With the root 0 set aside, a part of degree <= 4 is solved by one
    GF(2)-affine system (`_small_roots`); a larger one by the first step
    of distinct-degree factorization, the gcd of its squarefree part with
    x^q - x split by traces (`_orbits_by_ddf` with the cap 1).
    Multiplicities come from repeated synthetic division of the input.

    Returns [(root_bits, multiplicity), ...] sorted by root bitmask.
    """
    cs, zeros = _strip_zero_root(coeffs)
    f = cs[zeros:]
    roots = (_small_roots(f, spec) if 1 < len(f) <= 5
             else _orbits_by_ddf(f, spec, [spec])[0].get(1, []))
    out = [(0, zeros)] if zeros else []
    return out + [(r, _divide_out(f, r, spec)[0]) for r in sorted(roots)]


def _small_orbits(f: Sequence[int], spec: FieldSpec, fields: list):
    """`_orbits_by_ddf` for trimmed f of degree <= 4 with f(0) != 0.

    The rational roots are divided out; what is left has no rational root,
    so of degree 2 or 3 it is irreducible and solved in GF(q^d), and a
    quartic is two conjugate-pair quadratics (or the square of one) when
    it has roots in GF(q^2), else irreducible.  What no field up to the
    cap splits is the rest, as its squarefree part (a quartic left over
    may be the square of a quadratic)."""
    rational = _small_roots(f, spec) if len(f) > 1 else []
    for r in rational:
        f = _divide_out(f, r, spec)[1]
    found = {1: rational}
    # a quartic is tried in GF(q^2) first: two conjugate pairs, or one squared
    for e in {0: (), 2: (2,), 3: (3,), 4: (2, 4)}[len(f) - 1]:
        if e > len(fields):
            break
        emb = spec.embedding_to(fields[e - 1])
        roots = _small_roots([emb.apply_int(c) for c in f], fields[e - 1])
        if roots:
            found[e] = roots
            return found, [1]
    return found, _squarefree_part(f, spec)


def _orbits_by_ddf(f: Sequence[int], spec: FieldSpec, fields: list):
    """({d: roots of exact degree d in fields[d - 1]}, rest) for trimmed f
    with f(0) != 0, rest the monic product of the irreducible factors of
    degree past len(fields), unsplit.

    Distinct-degree factorization of the squarefree part (von zur Gathen
    and Gerhard, Modern Computer Algebra, ch. 14): for d = 1, 2, ... up to
    len(fields) the product of its irreducible factors of degree d is
    gcd(rest, x^(q^d) - x), split into linear factors over fields[d - 1]
    by trace splitting."""
    found, rest = {}, _squarefree_part(f, spec)
    h = x = [0, 1]
    d = 0
    while len(rest) > 1 and d < len(fields):
        d += 1
        if len(rest) - 1 < 2 * d:      # no two factors left: irreducible
            if len(rest) - 1 > len(fields):
                break
            d, g = len(rest) - 1, rest
        else:
            h = _frobenius(h, rest, spec)
            g = poly_gcd(rest, poly_add(h, x), spec)
            if len(g) == 1:
                continue
        lin = g if d == 1 else [spec.embedding_to(fields[d - 1]).apply_int(c)
                                for c in g]
        found[d] = _split_linear(lin, fields[d - 1])
        rest = poly_divmod(rest, g, spec)[0]
        h = poly_divmod(h, rest, spec)[1]
    return found, rest


def root_orbits(coeffs: Sequence[int], spec: FieldSpec, cap: int):
    """Roots of sum(coeffs[i] x^i) over the extensions of the coefficient
    field GF(q) up to degree cap, grouped by their degree over it, and
    the factor they leave.

    With the root 0 set aside, a part of degree <= 4 has its rational
    roots divided out and the rest solved as one orbit, or as two
    quadratic ones, by the GF(2)-affine solves of `find_roots_int`
    (`_small_orbits`); a larger part goes through distinct-degree
    factorization up to the cap (`_orbits_by_ddf`).  The roots of degree
    d <= cap lie in GF(q^d) = `spec.level(d)`.

    The cap is lowered to the largest d with GF(2^(k d)) at most
    GF(2^16).  Returns (levels, rest): levels[d - 1] = (field, roots) for
    d = 1..cap, roots the sorted bitmasks in field of the roots of exact
    degree d; rest is the monic squarefree product of the irreducible
    factors of degree > cap over GF(q), unsplit, and [1] when there are
    none.
    """
    k = spec.degree
    cap = min(cap, MAX_DEGREE // k)
    fields = [spec.level(d) for d in range(1, cap + 1)]
    cs, zeros = _strip_zero_root(coeffs)
    f = cs[zeros:]
    found, rest = (_small_orbits if len(f) <= 5 else _orbits_by_ddf)(
        f, spec, fields)
    if zeros:
        found[1] = [0] + found.get(1, [])
    return ([(fld, sorted(found.get(d, []))) for d, fld in
             enumerate(fields, 1)], rest)


def all_orbits(spec: FieldSpec, cap: int) -> list:
    """The levels of `root_orbits` for the zero polynomial, whose roots
    are every element: levels[d - 1] = (GF(q^d), the sorted elements of
    exact degree d over GF(q)) for d = 1..cap, the cap lowered as there.

    With g generating GF(q^d)*, g^i lies in the subfield of q^(d/p)
    elements iff (q^d - 1)/(q^(d/p) - 1) divides i; an element of exact
    degree d lies in none of them, p | d prime."""
    k = spec.degree
    levels = []
    for d in range(1, min(cap, MAX_DEGREE // k) + 1):
        field = spec.level(d)
        exps, _ = _tables(field)
        steps = [field.order // ((1 << (k * d // p)) - 1)
                 for p in set(_prime_factors(d))]
        roots = sorted(exps[i] for i in range(field.order)
                       if all(i % s for s in steps))
        levels.append((field, [0] + roots if d == 1 else roots))
    return levels


def _deflate(coeffs: Sequence[int], r: int, spec: FieldSpec):
    """Synthetic division by (x - r); returns (quotient, remainder)."""
    quot = [0] * (len(coeffs) - 1)
    acc = 0
    for i in range(len(coeffs) - 1, -1, -1):
        acc = spec.mul_int(acc, r) ^ coeffs[i]
        if i > 0:
            quot[i - 1] = acc
    return quot, acc
