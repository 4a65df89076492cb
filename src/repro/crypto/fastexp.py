"""Fixed-base windowed modular exponentiation.

In Protocol 1's weighting step every user's weighted ciphertext
``A_u = Enc(B_inv(N_u))^(f_u)`` is raised to d different exponents -- one
signed fixed-point value (~38 bits, biased to be non-negative) per model
coordinate.  Plain ``pow(A, x, n^2)`` redoes ~1.2 * bits modular
multiplications (squarings plus window multiplies) *per exponent*; with the
base fixed across all d of them we can precompute a radix-``2^w`` digit
table once and then answer every exponentiation with at most
``ceil(bits / w)`` multiplications and **zero squarings**:

    base^e = prod_i  base^(digit_i * 2^(w*i))      (digits of e in radix 2^w)

where every factor ``base^(j * 2^(w*i))`` is a table lookup.

Cost model, in units of one modular multiplication:

    table build:    ceil(t / w) * (2^w - 1)
    per exponent:   ceil(t / w)          (upper bound; zero digits are free)
    plain pow:      ~1.2 * t             (CPython's internal sliding window)

:func:`choose_window` minimises the total over w for a known number of
exponentiations, and :func:`worthwhile` reports whether fixed-base beats
plain ``pow`` at all -- for very few exponentiations the table build
dominates and plain ``pow`` wins, so callers should fall back.
"""

from __future__ import annotations

#: Effective modular multiplications per exponent bit of CPython's ``pow``
#: (squarings plus sliding-window multiplies, weighted equally -- measured
#: within ~10% on 512-6144 bit operands).
PLAIN_POW_MULTS_PER_BIT = 1.2

#: Largest window size considered (tables grow as 2^w per digit row).
MAX_WINDOW = 12

#: Cap on total table entries for automatic window selection.  Entries are
#: modulus-sized bigints, so 2^16 entries is ~8 MB at 512-bit keys and
#: ~50 MB at the paper's 3072-bit keys -- per live table (one per user,
#: per worker process).  Without the cap, a large enough batch would push
#: the cost model to w=12 and gigabyte-scale tables.
MAX_TABLE_ENTRIES = 1 << 16


def _digits(exp_bits: int, window: int) -> int:
    return -(-exp_bits // window)


def fixed_base_cost(exp_bits: int, window: int, n_exps: int) -> int:
    """Total modular multiplications: table build plus ``n_exps`` exponents."""
    d = _digits(exp_bits, window)
    return d * ((1 << window) - 1) + n_exps * d


def choose_window(exp_bits: int, n_exps: int) -> int:
    """The window width minimising :func:`fixed_base_cost` within the
    :data:`MAX_TABLE_ENTRIES` memory cap.

    Larger batches amortise bigger tables: d = 1000 exponentiations of
    512-bit scalars pick w = 8 (64 multiplications per exponent; 39-bit
    ones also pick w = 8, 5 multiplications), while a handful of
    exponentiations pick a small window.
    """
    if exp_bits < 1:
        raise ValueError("exp_bits must be positive")
    if n_exps < 0:
        raise ValueError("n_exps must be non-negative")
    candidates = [
        w
        for w in range(1, MAX_WINDOW + 1)
        if _digits(exp_bits, w) << w <= MAX_TABLE_ENTRIES
    ] or [1]
    return min(candidates, key=lambda w: fixed_base_cost(exp_bits, w, n_exps))


def worthwhile(exp_bits: int, n_exps: int) -> bool:
    """True when fixed-base beats ``n_exps`` plain ``pow`` calls."""
    best = fixed_base_cost(exp_bits, choose_window(exp_bits, n_exps), n_exps)
    return best < PLAIN_POW_MULTS_PER_BIT * exp_bits * n_exps


class FixedBaseExp:
    """Precomputed fixed-base exponentiator ``e -> base^e mod modulus``.

    The table holds ``base^(j * 2^(w*i))`` for every digit position i and
    digit value j, so :meth:`pow` is a product of one table entry per
    nonzero digit -- no squarings, and (unlike repeated ``pow``) the
    ~``1.2 * exp_bits`` per-call cost collapses to ``exp_bits / w``
    multiplications.

    Args:
        base: the fixed base (reduced mod ``modulus``).
        modulus: modulus of the group (``n^2`` for Paillier ciphertexts).
        exp_bits: maximum bit length of exponents that will be passed in.
        window: radix exponent w; ``None`` selects :func:`choose_window`.
        expected_exps: expected number of :meth:`pow` calls, used only for
            automatic window selection (default 256).
    """

    __slots__ = ("modulus", "window", "exp_bits", "_digits", "_mask", "_rows")

    def __init__(
        self,
        base: int,
        modulus: int,
        exp_bits: int,
        window: int | None = None,
        expected_exps: int = 256,
    ):
        if modulus < 2:
            raise ValueError("modulus must be at least 2")
        if exp_bits < 1:
            raise ValueError("exp_bits must be positive")
        if window is None:
            window = choose_window(exp_bits, expected_exps)
        if not 1 <= window <= MAX_WINDOW:
            raise ValueError(f"window must be in 1..{MAX_WINDOW}")
        self.modulus = modulus
        self.window = window
        self.exp_bits = exp_bits
        self._digits = _digits(exp_bits, window)
        self._mask = (1 << window) - 1
        radix = 1 << window
        b = base % modulus
        rows = []
        for _ in range(self._digits):
            row = [1] * radix
            acc = 1
            for j in range(1, radix):
                acc = acc * b % modulus
                row[j] = acc
            rows.append(row)
            # Base for the next digit position: base^(2^w * 2^(w*i)).
            b = acc * b % modulus
        self._rows = rows

    def pow(self, exponent: int) -> int:
        """``base^exponent mod modulus`` via table lookups.

        ``exponent`` must be non-negative and fit in ``exp_bits`` bits.
        """
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        if exponent.bit_length() > self.exp_bits:
            raise ValueError(
                f"exponent has {exponent.bit_length()} bits; table covers {self.exp_bits}"
            )
        m = self.modulus
        w = self.window
        mask = self._mask
        rows = self._rows
        acc = None
        i = 0
        while exponent:
            digit = exponent & mask
            if digit:
                entry = rows[i][digit]
                acc = entry if acc is None else acc * entry % m
            exponent >>= w
            i += 1
        return 1 % m if acc is None else acc
