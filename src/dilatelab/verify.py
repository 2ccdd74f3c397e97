"""One-shot verdicts for the claim catalog, and empirical threshold scans.

Every claim is checked on a concrete instance with exact arithmetic: integer
counts on one side, rational closed forms on the other.  Irrational size
thresholds are decided by integer squaring, never by floating point.  A claim
whose hypothesis fails on the instance yields a VACUOUS verdict (with the
conclusion still evaluated); a verdict that is hypothesis-met but
conclusion-false would contradict the catalog and is treated by callers as
the most severe failure.

CLAIMS maps each claim, in catalog order, to its hypothesis on (|E|, p, d, r)
and its conclusion on (E, r, k); run_claim builds every Verdict from the two.
The threshold scans read each family's witness search, pattern and existence
theorem from its row in families.FAMILIES, and bisect the sizes over the
theorem's hypothesis, at every ratio of their policy.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .configcount import (
    Ratio,
    cycle_pair_reports,
    make_ratio,
    walk_pair_reports,
    walk_profile_counts,
    # not called here: perfbench/selftest.py checks that its spans rebind them in this module
    _nu_identity_scaled_walk_pairs,
    _walk_dp_scaled_pairs,
)
from .errors import SizeExceedsSpaceError, TooLargeError
from .families import (
    FAMILIES,
    FAMILY_FOUR_CYCLE,
    FAMILY_PATH_PAIRS,
    FAMILY_SIMPLEX,
    FAMILY_TRIANGLE,
    four_cycle_families,
    revalidate,
)
from .field import Prime, inverse, legendre, make_prime, squares_set
from .geometry import PointSet, quotient_set, random_point_set


@dataclass(frozen=True)
class Verdict:
    """Outcome of one claim on one instance, with exact arithmetic kept."""

    claim: str
    hypothesis_met: bool
    conclusion_holds: bool
    lhs: Fraction | int | None
    rhs: Fraction | int | None
    params: dict = field(default_factory=dict)

    CSV_HEADER = "claim,p,d,E_size,r,k,hypothesis_met,conclusion_holds,status,lhs,rhs"

    @property
    def status(self) -> str:
        if not self.hypothesis_met:
            return "VACUOUS"
        return "HOLDS" if self.conclusion_holds else "FAILED"

    @property
    def contradicts_catalog(self) -> bool:
        return self.hypothesis_met and not self.conclusion_holds

    def csv_row(self) -> str:
        get = self.params.get
        cells = [
            self.claim,
            get("p", ""),
            get("d", ""),
            get("E_size", ""),
            get("r", ""),
            get("k", ""),
            self.hypothesis_met,
            self.conclusion_holds,
            self.status,
            "" if self.lhs is None else self.lhs,
            "" if self.rhs is None else self.rhs,
        ]
        return ",".join(str(c) for c in cells)

    def json_dict(self) -> dict:
        return {
            "claim": self.claim,
            "hypothesis_met": self.hypothesis_met,
            "conclusion_holds": self.conclusion_holds,
            "status": self.status,
            "lhs": None if self.lhs is None else str(self.lhs),
            "rhs": None if self.rhs is None else str(self.rhs),
            "params": {k: str(v) for k, v in self.params.items()},
        }


def dilation_safe(p: int, d: int) -> bool:
    """Whether distinct points of F_p^d always have a nonzero squared distance.

    That holds exactly for d = 2 and p = 3 (mod 4), the residue-class
    hypothesis of lemma 2.2, lemma 4.2, T1.5, T1.6 and T1.10.
    """
    return d == 2 and p % 4 == 3


def _walk_pairs(E: PointSet, ratio: Ratio, k: int) -> int:
    """S_k by walk_dp, cross-checked by nu_identity where its guard admits it."""
    return walk_pair_reports(E, ratio, k)[0].value


# ---------------------------------------------------------------------------
# exact threshold arithmetic (integer certificates, no floats)


def exceeds_sqrt3_plus_one(n: int, p: int) -> bool:
    """n > (sqrt(3) + 1) * p, decided by squaring."""
    return n > p and (n - p) ** 2 > 3 * p * p


def exceeds_4_sqrt3_p32(n: int, p: int) -> bool:
    """n > 4 * sqrt(3) * p^(3/2), decided by squaring."""
    return n * n > 48 * p**3


def meets_simplex_size(n: int, p: int, d: int) -> bool:
    """n >= (d + 1) * p^(d/2), decided by squaring."""
    return n * n >= (d + 1) ** 2 * p**d


def meets_quotient_size(n: int, p: int, d: int) -> bool:
    """n >= 9 * p^(d/2) for even d, n >= 6 * p^(d/2) for odd d."""
    c = 9 if d % 2 == 0 else 6
    return n * n >= c * c * p**d


# ---------------------------------------------------------------------------
# claim conclusions: each of (E, ratio, k) -> (holds, lhs, rhs, extra params)


def _lemma22(E: PointSet, ratio: Ratio, k: int) -> tuple:
    """One-step pair count against its quartic floor (d = 2, p = 3 mod 4)."""
    p = E.prime.p
    n = len(E)
    s1 = _walk_pairs(E, ratio, 1)
    rhs = (
        (Fraction(1, p) + Fraction(1, p**2) - Fraction(1, p**3)) * n**4
        - Fraction(2 * n**3, p)
        - (p + 1) * n**2
    )
    return Fraction(s1) >= rhs, s1, rhs, {"k": 1}


def _lemma23(E: PointSet, ratio: Ratio, k: int) -> tuple:
    """Two-step pair count times |E|^2 is at least the square of one-step."""
    s1 = _walk_pairs(E, ratio, 1)
    lhs = _walk_pairs(E, ratio, 2) * len(E) ** 2
    return lhs >= s1**2, lhs, s1**2, {}


def _lemma24(E: PointSet, ratio: Ratio, k: int) -> tuple:
    """Cycle-pair count times |E|^4 is at least the square of two-step pairs."""
    s2 = _walk_pairs(E, ratio, 2)
    lhs = cycle_pair_reports(E, ratio)[0].value * len(E) ** 4
    return lhs >= s2**2, lhs, s2**2, {}


def _lemma26(E: PointSet, ratio: None, k: int) -> tuple:
    """Two-step walk counts never exceed |E| times the one-step count.

    lhs is the least margin n nu_1(t1) - nu_2(t1, t2) over every profile
    pair: over the entries of the nu_2 table, whose codes are t1 + t2 p,
    and n nu_1(t1) for each t1 that some t2 leaves out of it, which is 0
    for a t1 outside the nu_1 table; so no loop runs over the field.
    """
    p = E.prime.p
    n = len(E)
    nu1 = walk_profile_counts(E, 1)
    nu2 = walk_profile_counts(E, 2)
    listed = Counter(code % p for code in nu2)
    worst = min([n * nu1[code % p] - count for code, count in nu2.items()]
                + [n * v for t1, v in nu1.items() if listed[t1] < p]
                + ([0] if len(nu1) < p else []))
    return worst >= 0, worst, 0, {}


def _lemma42(E: PointSet, ratio: Ratio, k: int) -> tuple:
    """Each coincidence family sits between |S_2| and (p+1)|S_2|."""
    p = E.prime.p
    fams = four_cycle_families(E, ratio)
    s2 = _walk_pairs(E, ratio, 2)
    values = (fams.x13, fams.x24, fams.y13, fams.y24)
    holds = all(s2 <= v <= (p + 1) * s2 for v in values)
    return holds, min(values), (p + 1) * s2, {"s2": s2, "families": values}


def _t110(E: PointSet, ratio: Ratio, k: int) -> tuple:
    """S_k exceeds n^(2k+2) / (3p)^k once n > 2p (d = 2, p = 3 mod 4)."""
    lhs = Fraction(_walk_pairs(E, ratio, k))
    rhs = Fraction(len(E) ** (2 * k + 2), (3 * E.prime.p) ** k)
    return lhs > rhs, lhs, rhs, {"k": k}


def _quotient(E: PointSet, ratio: None, k: int) -> tuple:
    """Quotients of distances fill the field (even d) or its squares (odd d).

    Both are decided by counting the quotients, residues mod p, that lie in
    the target, so no set of the field or of its (p + 1) / 2 squares is built.
    """
    p = E.prime.p
    quotients = quotient_set(E)
    if E.d % 2 == 0:
        return len(quotients) == p, len(quotients), p, {"target": "field"}
    holds = sum(legendre(q, E.prime) >= 0 for q in quotients) == (p + 1) // 2
    return holds, len(quotients), (p + 1) // 2, {"target": "squares"}


def _found(E: PointSet, ratio: Ratio, family: str) -> tuple:
    """An existence theorem's conclusion: the family has a witness on E at r."""
    witness = FAMILIES[family].witness(E, ratio)
    found = witness is not None
    return found, int(found), 0, {"witness": witness} if found else {}


@dataclass(frozen=True)
class _Claim:
    hypothesis: Callable   # (n, p, d, square) -> bool, monotone in n; square is r's squareness
    conclusion: Callable   # (E, ratio, k) -> (holds, lhs, rhs, extra params)


def _always(n: int, p: int, d: int, square: bool | None) -> bool:
    return True


# The claim catalog in its order.  A hypothesis reads r only as square or not,
# and a ratio-free claim gets no ratio: square None for both halves.  Each
# hypothesis is decided by exact integer arithmetic; the conclusion is
# computed regardless, by witness search or exact rational comparison.
CLAIMS = {
    "lemma2.2": _Claim(lambda n, p, d, square: dilation_safe(p, d), _lemma22),
    "lemma2.3": _Claim(_always, _lemma23),  # the graph-side argument covers every nonzero r
    "lemma2.4": _Claim(_always, _lemma24),
    "lemma2.6": _Claim(_always, _lemma26),
    "lemma4.2": _Claim(lambda n, p, d, square: dilation_safe(p, d), _lemma42),
    "T1.5": _Claim(lambda n, p, d, square: dilation_safe(p, d) and exceeds_sqrt3_plus_one(n, p),
                   lambda E, ratio, k: _found(E, ratio, FAMILY_PATH_PAIRS)),
    "T1.6": _Claim(lambda n, p, d, square: dilation_safe(p, d) and exceeds_4_sqrt3_p32(n, p),
                   lambda E, ratio, k: _found(E, ratio, FAMILY_FOUR_CYCLE)),
    "T1.7": _Claim(lambda n, p, d, square: d == 2 and square and n >= 3 * p,
                   lambda E, ratio, k: _found(E, ratio, FAMILY_TRIANGLE)),
    "T1.8": _Claim(lambda n, p, d, square: d >= 2 and square
                   and meets_simplex_size(n, p, d),
                   lambda E, ratio, k: _found(E, ratio, FAMILY_SIMPLEX)),
    "T1.10": _Claim(lambda n, p, d, square: dilation_safe(p, d) and n > 2 * p, _t110),
    "quotient": _Claim(lambda n, p, d, square: meets_quotient_size(n, p, d), _quotient),
}

CLAIM_NAMES = tuple(CLAIMS)

# claims about the set alone, checked once per set whatever its ratios
RATIO_FREE_CLAIMS = ("lemma2.6", "quotient")


def run_claim(name: str, E: PointSet, ratio: Ratio | None = None, k: int = 3) -> Verdict:
    """Check a claim by its catalog name; a ratio-free claim ignores ratio and k.

    A claim whose hypothesis fails on the instance is VACUOUS, with its
    conclusion still evaluated.
    """
    if name not in CLAIMS:
        raise ValueError(f"unknown claim {name!r}")
    if name in RATIO_FREE_CLAIMS:
        ratio = None
    elif ratio is None:
        raise ValueError(f"claim {name!r} needs a ratio")
    claim = CLAIMS[name]
    holds, lhs, rhs, extra = claim.conclusion(E, ratio, k)
    params = {"p": E.prime.p, "d": E.d, "E_size": len(E)}
    if ratio is not None:
        params["r"] = ratio.r
    return Verdict(
        claim=name,
        hypothesis_met=claim.hypothesis(len(E), E.prime.p, E.d,
                                        None if ratio is None else ratio.is_square),
        conclusion_holds=holds,
        lhs=lhs,
        rhs=rhs,
        params=params | extra,
    )


# ---------------------------------------------------------------------------
# threshold scans


@dataclass(frozen=True)
class ScanResult:
    """Per-size positivity fractions for one family, plus both thresholds."""

    p: int
    d: int
    family: str
    r_policy: str
    sizes: tuple[int, ...]
    fractions: tuple[Fraction, ...]
    samples: int
    seed: int
    min_stable_size: int | None
    theoretical_threshold: int | None

    CSV_HEADER = "family,p,d,r_policy,size,samples,positive,fraction,seed"

    def csv_rows(self) -> list[str]:
        rows = []
        for size, frac in zip(self.sizes, self.fractions):
            positive = frac.numerator * self.samples // frac.denominator
            rows.append(
                f"{self.family},{self.p},{self.d},{self.r_policy},{size},"
                f"{self.samples},{positive},{frac},{self.seed}"
            )
        return rows

    def json_dict(self) -> dict:
        return {
            "family": self.family,
            "p": self.p,
            "d": self.d,
            "r_policy": self.r_policy,
            "samples": self.samples,
            "seed": self.seed,
            "sizes": list(self.sizes),
            "fractions": [str(f) for f in self.fractions],
            "min_stable_size": self.min_stable_size,
            "theoretical_threshold": self.theoretical_threshold,
        }


def _policy_values(policy: str, prime: Prime):
    """The ratios of a policy, in order, as ints: a range for "all", so it is not listed."""
    if policy == "all":
        return range(1, prime.p)
    if policy == "squares":
        return sorted(s for s in squares_set(prime) if s != 0)
    if policy.startswith("r="):
        return [int(policy[2:])]
    raise ValueError(f"unknown ratio policy {policy!r}")


def ratios_for_policy(policy: str, prime: Prime) -> list[Ratio]:
    return [make_ratio(v, prime) for v in _policy_values(policy, prime)]


@lru_cache(maxsize=None)
def _scan_ratios(p: int, policy: str) -> tuple[Prime, tuple[tuple[Ratio, int | None], ...]]:
    """A scan's prime and the policy's ratios in pairs {r, 1/r}, built once per process.

    A pair is (r, 1/r) with r its first member in policy order, or (r, None)
    when r is its own inverse (1 and p - 1) or 1/r is outside the policy.
    """
    prime = make_prime(p)
    ratios = ratios_for_policy(policy, prime)
    values = {ratio.r for ratio in ratios}
    pairs, partners = [], set()
    for ratio in ratios:
        if ratio.r in partners:  # decided by its pair's search
            continue
        inv = inverse(ratio.r, prime)
        partner = inv if inv != ratio.r and inv in values else None
        if partner is not None:
            partners.add(partner)
        pairs.append((ratio, partner))
    return prime, tuple(pairs)


def meets_family_size(family: str, n: int, p: int, d: int, squares) -> bool:
    """Whether n meets the hypothesis of the family's existence theorem at a
    ratio of each squareness in squares (True for a square r)."""
    hypothesis = CLAIMS[FAMILIES[family].claim].hypothesis
    return all(hypothesis(n, p, d, square) for square in squares)


def smallest_size_meeting(family: str, prime: Prime, d: int, policy: str) -> int | None:
    """Least set size meeting the family's theorem hypothesis at every ratio
    of the policy, if any fits; the hypothesis is monotone in n, so the
    sizes 1 .. p^d are bisected, by hand, as p^d may be past sys.maxsize.
    r and 1/r are squares or not together, so the searched ratios of
    _scan_ratios hold every squareness of the policy."""
    squares = {ratio.is_square for ratio, _ in _scan_ratios(prime.p, policy)[1]}
    lo, hi = 1, prime.p**d + 1  # the least size meeting it is in lo .. hi, hi for none
    while lo < hi:
        mid = (lo + hi) // 2
        if meets_family_size(family, mid, prime.p, d, squares):
            hi = mid
        else:
            lo = mid + 1
    return lo if lo <= prime.p**d else None


def _has_witnesses(E: PointSet, family: str, ratio: Ratio, inv: int | None) -> bool:
    """Whether E has a family witness at r and, if inv is given, at inv = 1/r.

    Both sides of a witness are copies of one pattern with distinct points,
    so swapping them maps the witnesses at r one to one onto those at 1/r:
    one search decides both, and the swapped witness is revalidated at 1/r.
    """
    row = FAMILIES[family]
    witness = row.witness(E, ratio)
    if witness is not None and inv is not None:
        scaled, base = witness if row.scaled_first else witness[::-1]
        revalidate(E, inv, row.pattern(E.d, 2), scaled, base)
    return witness is not None


def _scan_cell(args) -> tuple[int, int, bool]:
    p, d, family, policy, size, sample_index, seed = args
    prime, pairs = _scan_ratios(p, policy)
    cell_seed = f"scan:{seed}:{size}:{sample_index}"
    E = random_point_set(prime, d, size, cell_seed)
    positive = all(_has_witnesses(E, family, ratio, inv) for ratio, inv in pairs)
    return size, sample_index, positive


def scan_threshold(
    prime: Prime,
    d: int,
    family: str,
    r_policy: str,
    sizes,
    samples: int,
    seed: int,
    threads: int = 1,
) -> ScanResult:
    """Fraction of seeded random sets whose family count is positive, per size.

    A sample counts as positive only if every ratio allowed by the policy has
    a witness; one search decides each pair {r, 1/r} of the policy's ratios
    (_scan_ratios).  Cell seeds are derived from (seed, size, sample index), so
    results do not depend on the worker count.  The theoretical threshold is
    None where the family's theorem covers no size for (p, d) at some ratio.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    sizes = tuple(sizes)
    if not sizes:
        raise ValueError("empty size range")
    space = prime.p**d
    if any(not 1 <= s <= space for s in sizes):
        raise TooLargeError(f"sizes must fit the {space}-point space")
    cells = [
        (prime.p, d, family, r_policy, size, i, seed)
        for size in sizes
        for i in range(samples)
    ]
    workers = chunksize = 1
    if threads > 1:
        # about four chunks per worker, and no worker without a chunk: a forked
        # pool starts every worker at its first submit
        chunksize = max(1, len(cells) // (4 * threads))
        workers = min(threads, -(-len(cells) // chunksize))
    if workers > 1:
        # imported here, so that no other command loads the process-pool stack
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_scan_cell, cells, chunksize=chunksize))
    else:
        outcomes = [_scan_cell(cell) for cell in cells]
    positive: dict[int, int] = {size: 0 for size in sizes}
    for size, _, ok in outcomes:
        positive[size] += ok
    fractions = tuple(Fraction(positive[size], samples) for size in sizes)

    min_stable = None
    for size, frac in zip(reversed(sizes), reversed(fractions)):
        if frac == 1:
            min_stable = size
        else:
            break
    return ScanResult(
        p=prime.p,
        d=d,
        family=family,
        r_policy=r_policy,
        sizes=sizes,
        fractions=fractions,
        samples=samples,
        seed=seed,
        min_stable_size=min_stable,
        theoretical_threshold=smallest_size_meeting(family, prime, d, r_policy),
    )


def random_instances(prime: Prime, d: int, count: int, sizes, seed, policy: str):
    """Deterministic stream of (E, ratio) instances for batch verification.

    Instance i takes the i-th ratio of the policy, cyclically, so only its
    first `count` ratios are formed and "all" is never listed whole.  Drawn
    one at a time, so each set and its cached tables can be freed before
    the next; a ratio, then a size that does not fit the space, is refused
    first.
    """
    ratios = [make_ratio(v, prime) for v in _policy_values(policy, prime)[:count]]
    space = prime.p**d
    for n in sizes[:count]:
        if n > space:
            raise SizeExceedsSpaceError(f"cannot pick {n} distinct points from {space}")
    for i in range(count):
        yield (random_point_set(prime, d, sizes[i % len(sizes)], f"{seed}:{i}"),
               ratios[i % len(ratios)])
