"""Arithmetic in binary fields GF(2^k) for k <= 16.

Elements are bitmasks in the polynomial basis: bit i holds the coefficient
of t^i.  Addition is XOR.  Multiplication is carry-less multiplication
followed by reduction modulo a fixed irreducible polynomial; inversion,
powers and square roots go through log/antilog tables of the cyclic
multiplicative group (order 2^k - 1).

Field elements serialize as lowercase hex of the bitmask ("0x6" = t^2 + t);
a field spec serializes as {"degree": k, "modulus": hex}.
"""

from __future__ import annotations

from array import array
from typing import Iterator, Optional, Sequence

import numpy as np

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
    methods (`mul_int` etc.) operate on raw bitmasks and are the hot path;
    `element()` wraps a bitmask into a FieldElement.
    """

    __slots__ = (
        "degree", "modulus", "order", "size",
        "_exp", "_log", "_exps", "_logs", "_embeddings", "_gen",
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
        self._embeddings = {}
        self._gen = None

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
        return cls(int(data["degree"]), int(data["modulus"], 16))

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
            seen = 0
            x = 1
            ok = True
            for i in range(order):
                exp[i] = x
                if x == 1 and i > 0:
                    ok = False
                    break
                x = self.clmul_int(x, g)
            if ok and x == 1:
                self._gen = g
                break
        else:
            if size == 2:
                exp[0] = 1
                self._gen = 1
            else:  # pragma: no cover - impossible for irreducible modulus
                raise FieldError("no multiplicative generator found")
        exp[order:2 * order] = exp[:order]
        for i in range(order):
            log[exp[i]] = i
        self._exp = exp
        self._log = log

    @property
    def exp_table(self) -> np.ndarray:
        if self._exp is None:
            self._build_tables()
        return self._exp

    @property
    def log_table(self) -> np.ndarray:
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

    def mul_arr(self, a: np.ndarray, b) -> np.ndarray:
        exp, log = self.exp_table, self.log_table
        a = np.asarray(a, dtype=np.uint32)
        b = np.asarray(b, dtype=np.uint32)
        out = exp[log[a] + log[b]].astype(np.uint32)
        zero = (a == 0) | (b == 0)
        if zero.any():
            out = np.where(zero, np.uint32(0), out)
        return out

    def pow_arr(self, a: np.ndarray, e: int) -> np.ndarray:
        if e == 0:
            return np.ones_like(np.asarray(a, dtype=np.uint32))
        exp, log = self.exp_table, self.log_table
        a = np.asarray(a, dtype=np.uint32)
        out = exp[(log[a] * e) % self.order].astype(np.uint32)
        zero = a == 0
        if zero.any():
            out = np.where(zero, np.uint32(0), out)
        return out

    # -- elements -------------------------------------------------------------

    def element(self, bits: int) -> "FieldElement":
        return FieldElement(bits, self)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(0, self)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(1, self)

    @property
    def gen(self) -> "FieldElement":
        """The residue class of t (the polynomial-basis generator)."""
        return FieldElement(0b10 if self.degree > 1 else 1, self)

    def elements(self) -> Iterator["FieldElement"]:
        for bits in range(self.size):
            yield FieldElement(bits, self)

    # -- canonical subfield embeddings ---------------------------------------

    def embedding_to(self, target: "FieldSpec") -> "FieldEmbedding":
        """Canonical embedding GF(2^m) -> GF(2^n) for m | n.

        Built by chaining prime-degree steps (primes of n/m in increasing
        order, default moduli for the intermediate fields); at each prime
        step the source generator maps to the root of the source modulus
        with lexicographically smallest bitmask.  Chaining keeps composed
        embeddings coherent with the direct ones along aligned towers.
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
                                     self.gen.bits if self.degree > 1 else 1)
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
    # Evaluate the source modulus (a GF(2) polynomial) at all target elements.
    xs = np.arange(target.size, dtype=np.uint32)
    vals = np.zeros(target.size, dtype=np.uint32)
    for i in range(source.degree, -1, -1):
        vals = target.mul_arr(vals, xs)
        if (source.modulus >> i) & 1:
            vals ^= np.uint32(1)
    roots = np.nonzero(vals == 0)[0]
    if len(roots) == 0:  # pragma: no cover - impossible: modulus irreducible
        raise FieldError("internal error: modulus has no root in extension")
    return FieldEmbedding(source, target, int(roots.min()))


class FieldEmbedding:
    """A field homomorphism GF(2^m) -> GF(2^n) fixing GF(2)."""

    __slots__ = ("source", "target", "gen_image", "_powers", "_table")

    def __init__(self, source: FieldSpec, target: FieldSpec, gen_image: int):
        self.source = source
        self.target = target
        self.gen_image = gen_image
        self._powers = [target.pow_int(gen_image, i)
                        for i in range(source.degree)]
        self._table = None

    def apply_int(self, bits: int) -> int:
        out = 0
        i = 0
        while bits:
            if bits & 1:
                out ^= self._powers[i]
            bits >>= 1
            i += 1
        return out

    def __call__(self, a: "FieldElement") -> "FieldElement":
        if a.spec != self.source:
            raise FieldError("element does not belong to the embedding source")
        return FieldElement(self.apply_int(a.bits), self.target)

    def apply_arr(self, a: np.ndarray) -> np.ndarray:
        if self._table is None:
            table = np.zeros(self.source.size, dtype=np.uint32)
            for bits in range(self.source.size):
                table[bits] = self.apply_int(bits)
            self._table = table
        return self._table[np.asarray(a, dtype=np.uint32)]

    def compose(self, then: "FieldEmbedding") -> "FieldEmbedding":
        if self.target != then.source:
            raise FieldError("embeddings do not compose")
        return FieldEmbedding(self.source, then.target,
                              then.apply_int(self.gen_image))


class FieldElement:
    """An immutable element of a fixed GF(2^k)."""

    __slots__ = ("bits", "spec")

    def __init__(self, bits: int, spec: FieldSpec):
        if not (0 <= bits < spec.size):
            raise FieldError(f"bitmask {bits:#x} out of range for {spec!r}")
        self.bits = bits
        self.spec = spec

    def _check(self, other: "FieldElement") -> None:
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other)!r}")
        if other.spec != self.spec:
            raise FieldError("elements belong to different fields")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.bits ^ other.bits, self.spec)

    __sub__ = __add__  # characteristic 2

    def __neg__(self) -> "FieldElement":
        return self

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.spec.mul_int(self.bits, other.bits), self.spec)

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.spec.div_int(self.bits, other.bits), self.spec)

    def __pow__(self, e: int) -> "FieldElement":
        return FieldElement(self.spec.pow_int(self.bits, e), self.spec)

    def inverse(self) -> "FieldElement":
        return FieldElement(self.spec.inv_int(self.bits), self.spec)

    def sqrt(self) -> "FieldElement":
        """The unique square root (Frobenius is bijective in char 2)."""
        return FieldElement(self.spec.sqrt_int(self.bits), self.spec)

    def embed(self, target: FieldSpec) -> "FieldElement":
        return self.spec.embedding_to(target)(self)

    def __bool__(self) -> bool:
        return self.bits != 0

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldElement)
                and other.bits == self.bits and other.spec == self.spec)

    def __hash__(self) -> int:
        return hash((self.bits, self.spec.degree, self.spec.modulus))

    def __repr__(self) -> str:
        return f"<{hex(self.bits)} in GF(2^{self.spec.degree})>"

    def to_hex(self) -> str:
        return hex(self.bits)


def find_roots_int(coeffs: Sequence[int], spec: FieldSpec) -> list:
    """All roots in the coefficient field of sum(coeffs[i] x^i), with
    multiplicities, by exhaustive evaluation followed by deflation.

    Returns [(root_bits, multiplicity), ...] sorted by root bitmask.
    """
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise FieldError("find_roots: zero polynomial")
    if len(cs) == 1:
        return []
    # Vectorized Horner over every field element.
    xs = np.arange(spec.size, dtype=np.uint32)
    vals = np.full(spec.size, np.uint32(cs[-1]))
    for c in reversed(cs[:-1]):
        vals = spec.mul_arr(vals, xs) ^ np.uint32(c)
    roots = [int(r) for r in np.nonzero(vals == 0)[0]]
    out = []
    for r in roots:
        mult = 0
        work = cs
        while True:
            quot, rem = _deflate(work, r, spec)
            if rem != 0:
                break
            mult += 1
            work = quot
            if len(work) <= 1:
                break
        out.append((r, mult))
    return out


def _deflate(coeffs: Sequence[int], r: int, spec: FieldSpec):
    """Synthetic division by (x - r); returns (quotient, remainder)."""
    quot = [0] * (len(coeffs) - 1)
    acc = 0
    for i in range(len(coeffs) - 1, -1, -1):
        acc = spec.mul_int(acc, r) ^ coeffs[i]
        if i > 0:
            quot[i - 1] = acc
    return quot, acc
