"""Expected answers for the benchmark's workloads, written without origamikz.

Nothing here imports the package under test, so a faster run that returns
a wrong answer is counted as a failed operation.

* Counts of primitive n-square origamis in H(2): (3/8)(n-2)n^2 prod(1-p^-2)
  over the primes p dividing n (Eskin-Masur-Schmoll, Duke Math. J. 2003).
* SL2(Z) orbits: for odd n >= 5 two orbits, of sizes (3/16)(n-1)n^2 prod and
  (3/16)(n-3)n^2 prod; otherwise a single orbit (Hubert-Lelievre, Israel
  J. Math. 2006 for prime n; McMullen, Math. Ann. 2005 in general).  At odd
  n the larger orbit holds the L-shapes with both sides even, the smaller
  one those with both sides odd.
* The L(2, k) twist matrices and indices of the paper's two families, and
  the number of primitive directions with |p| + |q| <= 14 the seed code
  sweeps, are constants kept here so that moving the library's own tables
  cannot change both sides of a check.
"""

from fractions import Fraction

# Twist matrices (rows) in the directions verify-paper uses, and the index
# of the subgroup they generate, for L(2, 2n) (odd degree) and L(2, 2n+1).
ODD_DEGREE_MATRICES = ([[2, 1], [-1, 0]], [[1, 0], [-1, 1]])
ODD_DEGREE_INDEX = 1
EVEN_DEGREE_MATRICES = ([[3, 2], [-2, -1]], [[1, 0], [-1, 1]])
EVEN_DEGREE_INDEX = 3

CONJECTURE_INDEX = 3
# primitive directions with |p| + |q| <= 14, as counted by the seed code
CONJECTURE_DIRECTIONS_AT_14 = 128


def _primes_dividing(n):
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


def _n2_prod(n):
    """n^2 * prod over primes p | n of (1 - p^-2), an integer."""
    value = Fraction(n * n)
    for p in _primes_dividing(n):
        value *= 1 - Fraction(1, p * p)
    return value


def _integer(value):
    if value.denominator != 1:
        raise ValueError("closed form is not an integer: %s" % value)
    return value.numerator


def h2_count(n):
    """Number of primitive n-square H(2) origamis up to translation."""
    return _integer(Fraction(3, 8) * (n - 2) * _n2_prod(n))


def h2_orbit_sizes(n):
    """Sizes of the SL2(Z) orbits of primitive n-square H(2) origamis, ascending."""
    if n % 2 == 1 and n >= 5:
        base = Fraction(3, 16) * _n2_prod(n)
        return [_integer(base * (n - 3)), _integer(base * (n - 1))]
    return [h2_count(n)]


def l_orbit_size(d):
    """Size of the orbit of the degree-d L-shape L(2, d-1)."""
    return h2_orbit_sizes(d)[-1]


def l_shapes(d, parity=None):
    """Labels of the L-shapes L(a, b) of degree d, a + b - 1 = d, a, b >= 2.

    With ``parity`` 0 or 1 only those whose first side has that parity.
    """
    return sorted(
        "L(%d,%d)" % (a, d + 1 - a)
        for a in range(2, d)
        if parity is None or a % 2 == parity
    )


def l_shapes_by_orbit(d):
    """Map orbit size -> sorted L-shape labels in that orbit, at degree d."""
    sizes = h2_orbit_sizes(d)
    if len(sizes) == 1:
        return {sizes[0]: l_shapes(d)}
    small, large = sizes
    return {large: l_shapes(d, 0), small: l_shapes(d, 1)}


# ---------------------------------------------------------------------------
# report checks: each returns a list of mismatch descriptions, empty if fine
# ---------------------------------------------------------------------------

def _field(rep, key, expected, errors):
    got = rep.get(key)
    if got != expected:
        errors.append("%s: expected %r, got %r" % (key, expected, got))


def check_census(degree, rep):
    errors = []
    _field(rep, "command", "census", errors)
    _field(rep, "degree", degree, errors)
    _field(rep, "count", h2_count(degree), errors)
    sizes = h2_orbit_sizes(degree)
    _field(rep, "n_orbits", len(sizes), errors)
    orbits = rep.get("orbits") or []
    got = {o.get("size"): sorted(o.get("l_shapes", ())) for o in orbits}
    if len(got) != len(orbits) or got != l_shapes_by_orbit(degree):
        errors.append("orbits: expected sizes and L-shapes %r, got %r"
                      % (l_shapes_by_orbit(degree), got))
    return errors


def check_orbit(degree, rep):
    errors = []
    _field(rep, "command", "orbit", errors)
    _field(rep, "degree", degree, errors)
    _field(rep, "size", l_orbit_size(degree), errors)
    expected = l_shapes_by_orbit(degree)[l_orbit_size(degree)]
    got = sorted(rep.get("l_shapes") or ())
    if got != expected:
        errors.append("l_shapes: expected %r, got %r" % (expected, got))
    return errors


def _check_by_name(case, name):
    return [c for c in case.get("checks", ()) if c.get("check", "").startswith(name)]


def check_verify_paper(n_max, rep):
    errors = []
    _field(rep, "command", "verify-paper", errors)
    _field(rep, "ok", True, errors)
    cases = rep.get("cases") or []
    names = ["L(2,%d)" % k for k in range(2, 2 * n_max + 2)]
    got_names = [c.get("case") for c in cases]
    if got_names != names:
        errors.append("cases: expected %r, got %r" % (names, got_names))
        return errors
    for k, case in zip(range(2, 2 * n_max + 2), cases):
        if k % 2 == 0:
            matrices, index = ODD_DEGREE_MATRICES, ODD_DEGREE_INDEX
        else:
            matrices, index = EVEN_DEGREE_MATRICES, EVEN_DEGREE_INDEX
        if not case.get("ok"):
            errors.append("%s: not ok" % case["case"])
        got = [c.get("got") for c in _check_by_name(case, "twist matrix")]
        if got != list(matrices):
            errors.append("%s twist matrices: expected %r, got %r"
                          % (case["case"], list(matrices), got))
        got = [c.get("got") for c in _check_by_name(case, "index")]
        if got != [index]:
            errors.append("%s index: expected %r, got %r"
                          % (case["case"], [index], got))
    return errors


def check_conjecture(reps, n_directions, rep):
    errors = []
    _field(rep, "command", "conjecture", errors)
    cases = rep.get("cases") or []
    names = ["L(%d,%d)" % nm for nm in reps]
    got_names = [c.get("case") for c in cases]
    if got_names != names:
        errors.append("cases: expected %r, got %r" % (names, got_names))
        return errors
    for case in cases:
        if not case.get("ok") or case.get("index") != CONJECTURE_INDEX:
            errors.append("%s: expected ok with index %d, got ok=%r index=%r"
                          % (case["case"], CONJECTURE_INDEX, case.get("ok"),
                             case.get("index")))
        got = len(case.get("directions") or ())
        if got != n_directions:
            errors.append("%s: expected %d directions, got %d"
                          % (case["case"], n_directions, got))
    return errors
