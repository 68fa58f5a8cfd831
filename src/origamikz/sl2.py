"""Integer 2x2 matrices, words in the S/T generators, and subgroup indices.

SL2(Z) is generated by

    S = [[0, -1], [1, 0]]    (quarter turn),
    T = [[1,  1], [0, 1]]    (horizontal shear).

Words over S and T are lists of ``(letter, exponent)`` pairs with letter in
``{"S", "T"}`` and a nonzero integer exponent; the empty list is the
identity.  Index computations rewrite everything over the amalgam
presentation ``< a, b | a^4, a^2 b^-3 >`` with a = S and b = ST (so
T = a^-1 b) and run one pass of HLT coset enumeration, which leaves the
table closed (Holt, Eick and O'Brien, *Handbook of Computational Group
Theory*, 2005, section 5.1).  Todd-Coxeter can certify a finite index
but never infiniteness, so running past the live-coset cap raises
:class:`IndexCapExceeded` instead of claiming anything.
"""

from collections import deque

from .errors import IndexCapExceeded

# Default cap on the live cosets of an enumeration.
COSET_CAP = 10000

# Cap on a generator's word, the sum of |exponent| over its S/T runs,
# checked before any word is expanded: T^k expands to 2|k| amalgam
# letters, all held at once, so memory grows linearly with it (T^(10^6)
# takes about 46 MB peak RSS on 2 vCPUs with Python 3.11).  The longest
# twist measured within MAX_TRACE_LENGTH, L(2,2) along (1, 39998) in the
# standard basis, is a word of 79,995 letters.
MAX_WORD_LENGTH = 10**6


class _Value:
    """An immutable value whose fields are its ``__slots__``, set once by
    position; equal (to its own type only), hashed and pickled by them."""

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError("%s takes %d values, got %d"
                            % (type(self).__name__, len(self.__slots__), len(values)))
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):  # pickle and copy through __init__, not setattr
        return (type(self), self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(map(repr, self._values())))


class Mat2(_Value):
    """Row-major integer 2x2 matrix [[a, b], [c, d]]; immutable and hashable."""

    __slots__ = ("a", "b", "c", "d")

    def det(self):
        return self.a * self.d - self.b * self.c

    def trace(self):
        return self.a + self.d

    def __mul__(self, other):
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self):
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def inverse(self):
        if self.det() != 1:
            raise ValueError("only determinant-1 matrices are inverted here")
        return Mat2(self.d, -self.b, -self.c, self.a)

    def apply(self, vec):
        x, y = vec
        return (self.a * x + self.b * y, self.c * x + self.d * y)

    def rows(self):
        return ((self.a, self.b), (self.c, self.d))


IDENTITY = Mat2(1, 0, 0, 1)
S = Mat2(0, -1, 1, 0)
T = Mat2(1, 1, 0, 1)

_GEN = {"S": S, "T": T}


def word_to_matrix(word):
    """Multiply out a word over S and T (left-to-right product)."""
    m = IDENTITY
    for letter, exp in word:
        g = _GEN[letter]
        if exp < 0:
            g = g.inverse()
        for _ in range(abs(exp)):
            m = m * g
    return m


def matrix_to_word(m):
    """Write ``m`` (det 1) as a word over S and T.

    Euclidean reduction on the first column: left-multiplications by T^k
    shrink the top-left entry modulo the bottom-left one, S swaps the
    rows, and -I is absorbed as S^2.  Round-trips exactly:
    ``word_to_matrix(matrix_to_word(m)) == m``.
    """
    if m.det() != 1:
        raise ValueError("%r has determinant %d, not 1" % (m, m.det()))
    a, b, c, d = m.a, m.b, m.c, m.d
    ops = []  # letters applied on the left, in application order
    while c != 0:
        k = a // c
        if k:
            a -= k * c
            b -= k * d
            ops.append(("T", -k))
        # S * [[a, b], [c, d]] = [[-c, -d], [a, b]]
        a, b, c, d = -c, -d, a, b
        ops.append(("S", 1))
    if a == -1:
        # (-I) * [[-1, b], [0, -1]] = [[1, -b], [0, 1]]
        a, b, d = 1, -b, 1
        ops.append(("S", 2))
    if b:
        ops.append(("T", -b))
    # ops[-1] * ... * ops[0] * m == I, hence m == inv(ops[0]) * inv(ops[1]) * ...
    return [(g, -e) for g, e in ops]


# ---------------------------------------------------------------------------
# Coset enumeration over < a, b | a^4, a^2 b^-3 >, a = S, b = ST.
# ---------------------------------------------------------------------------

# letters: 0 = a, 1 = a^-1, 2 = b, 3 = b^-1; inverse letter is x ^ 1
_A, _AI, _B, _BI = 0, 1, 2, 3

_RELATORS = (
    (_A, _A, _A, _A),          # a^4
    (_A, _A, _BI, _BI, _BI),   # a^2 b^-3
)


def _amalgam_letters(word):
    """Rewrite an S/T word over the amalgam generators a, b."""
    out = []
    for letter, exp in word:
        if letter == "S":
            out.extend([_A if exp > 0 else _AI] * abs(exp))
        elif exp > 0:
            out.extend([_AI, _B] * exp)        # T = a^-1 b
        else:
            out.extend([_BI, _A] * (-exp))     # T^-1 = b^-1 a
    return tuple(out)


class _CosetTable:
    """HLT coset table over the four letters a, a^-1, b, b^-1."""

    def __init__(self, cap):
        self.cap = cap
        self.tab = [[None, None, None, None]]
        self.p = [0]
        self.n_live = 1
        self._queue = deque()

    def rep(self, k):
        l = k
        p = self.p
        while p[l] != l:
            l = p[l]
        while p[k] != l:
            p[k], k = l, p[k]
        return l

    def define(self, alpha, x):
        if self.n_live >= self.cap:
            raise IndexCapExceeded(
                "coset enumeration exceeded %d live cosets" % self.cap,
                len(self.tab), len(self.tab) - self.n_live,
            )
        beta = len(self.tab)
        self.tab.append([None, None, None, None])
        self.p.append(beta)
        self.n_live += 1
        self.tab[alpha][x] = beta
        self.tab[beta][x ^ 1] = alpha
        return beta

    def _merge(self, k, l):
        k, l = self.rep(k), self.rep(l)
        if k != l:
            lo, hi = (k, l) if k < l else (l, k)
            self.p[hi] = lo
            self.n_live -= 1
            self._queue.append(hi)

    def coincidence(self, alpha, beta):
        self._merge(alpha, beta)
        tab = self.tab
        while self._queue:
            gamma = self._queue.popleft()
            for x in range(4):
                delta = tab[gamma][x]
                if delta is None:
                    continue
                tab[delta][x ^ 1] = None
                mu, nu = self.rep(gamma), self.rep(delta)
                if tab[mu][x] is not None:
                    self._merge(nu, tab[mu][x])
                elif tab[nu][x ^ 1] is not None:
                    self._merge(mu, tab[nu][x ^ 1])
                else:
                    tab[mu][x] = nu
                    tab[nu][x ^ 1] = mu

    def scan_and_fill(self, alpha, word):
        tab = self.tab
        f, i = alpha, 0
        b, j = alpha, len(word) - 1
        while True:
            while i <= j and tab[f][word[i]] is not None:
                f = tab[f][word[i]]
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and tab[b][word[j] ^ 1] is not None:
                b = tab[b][word[j] ^ 1]
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                tab[f][word[i]] = b
                tab[b][word[i] ^ 1] = f
                return
            self.define(f, word[i])


def _enumerate(subgroup_words, cap):
    """One HLT pass, which closes the table (Holt, Eick and O'Brien, 2005, 5.1).

    The subgroup words are scanned at coset 0, shortest first, so a long
    word runs through what the short ones have built instead of spending
    the cap on cosets of its own; then each coset still live when its turn
    comes scans every relator and fills its row.  A merge reopens nothing
    a processed coset closed, so at the end every live row is complete and
    every relator closes at every live coset.  Coset 0 is the subgroup;
    the others are numbered in the order this pass defines them.
    """
    t = _CosetTable(cap)
    for w in sorted(subgroup_words, key=len):
        if w:
            t.scan_and_fill(t.rep(0), w)
    alpha = 0
    while alpha < len(t.tab):
        if t.rep(alpha) == alpha:
            for rel in _RELATORS:
                t.scan_and_fill(alpha, rel)
                if t.rep(alpha) != alpha:
                    break
            if t.rep(alpha) == alpha:
                for x in range(4):
                    if t.tab[alpha][x] is None:
                        t.define(alpha, x)
        alpha += 1
    return t


def coset_action(gens, cap=COSET_CAP):
    """Permutation action of (a, b) on the cosets of <gens> in SL2(Z).

    Returns a pair of image lists (one per letter a, b) over cosets
    relabelled 0..index-1, with coset 0 the subgroup itself.  A generator
    whose S/T word is longer than :data:`MAX_WORD_LENGTH` raises
    ``ValueError`` before any word is expanded.
    """
    words = [matrix_to_word(g) for g in gens]
    for g, word in zip(gens, words):
        length = sum(abs(e) for _, e in word)
        if length > MAX_WORD_LENGTH:
            raise ValueError("generator %r is a word of %d S/T letters, above "
                             "MAX_WORD_LENGTH = %d" % (g, length, MAX_WORD_LENGTH))
    t = _enumerate([_amalgam_letters(w) for w in words], cap)
    live = [k for k in range(len(t.tab)) if t.rep(k) == k]
    number = {k: i for i, k in enumerate(live)}
    act_a = [number[t.rep(t.tab[k][_A])] for k in live]
    act_b = [number[t.rep(t.tab[k][_B])] for k in live]
    return act_a, act_b


def _index_and_minus_identity(gens, cap):
    """The index of <gens> and whether -I lies in it, from one enumeration.

    -I = S^2 = a^2; it is in the subgroup iff a^2 stabilises coset 0 of
    the closed table.
    """
    act_a, _ = coset_action(gens, cap)
    return len(act_a), act_a[act_a[0]] == 0


def index_in_sl2(gens, cap=COSET_CAP):
    """Exact index in SL2(Z) of the subgroup generated by ``gens``.

    Raises :class:`IndexCapExceeded` when the enumeration needs more than
    ``cap`` live cosets (the index is then finite-but-large or infinite).
    """
    return _index_and_minus_identity(gens, cap)[0]


def contains_minus_identity(gens, cap=COSET_CAP):
    """Whether -I lies in the subgroup generated by ``gens``."""
    return _index_and_minus_identity(gens, cap)[1]
