"""Exact arithmetic in the quotient ring Q[x, s, c] / (s^2 + c^2 - 1).

Reading s = sin x and c = cos x, the ring contains x^n sin x, x^n cos x and
everything differentiation generates from them.  The defining relation kills
every power of s above the first, so each element has a unique canonical form

    p(x, c) + s * q(x, c)

and equality is coefficient comparison.  The ring is an integral domain
(the relation is irreducible), hence a product is zero only if a factor is.
Elements are immutable; all operations return fresh values, which keeps
them safe to share across threads and in the rung cache.  Term dicts from
outside are cleaned of zero coefficients once, in the constructor; the ring
operations build their results clean and wrap them as they are.

Every product of two elements goes through one kernel,
``TrigPoly.sum_of_products``: it accumulates a whole signed sum of products
into one pair of term dicts, so a determinant's cofactor expansion or an
entry of a Hankel conjugation S H S^T (independence._conjugated_entry)
builds no intermediate product and copies no partial sum.

Every derivative and (D^2+1)-ladder rung of x^n trig has a closed form
(ladder_rung), tested against differentiate and harmonic_step, the ring's own
rules; no order below the requested one is computed or kept.
"""

from __future__ import annotations

from collections.abc import Iterable
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb, perm
from types import MappingProxyType

Coeff = int | Fraction
# (x degree, c degree) -> coefficient; zero coefficients are never stored
Terms = dict[tuple[int, int], Coeff]


class Trig(Enum):
    SIN = "sin"
    COS = "cos"

    # members are singletons: hash by identity, not through Enum.__hash__,
    # a Python-level call on every ladder_rung cache lookup
    __hash__ = object.__hash__


def _clean(t: Terms) -> Terms:
    return {m: v for m, v in t.items() if v}


def _add(a: Terms, b: Terms) -> Terms:
    out = dict(a)
    for m, v in b.items():
        w = out.get(m, 0) + v
        if w:
            out[m] = w
        elif m in out:
            del out[m]
    return out


def _neg(a: Terms) -> Terms:
    return {m: -v for m, v in a.items()}


def _scale(a: Terms, k: Coeff) -> Terms:
    if not k:
        return {}
    return {m: v * k for m, v in a.items()}


class TrigPoly:
    """One canonical-form element p(x, c) + s * q(x, c)."""

    __slots__ = ("_p", "_q")

    def __init__(self, p: Terms | None = None, q: Terms | None = None):
        self._p = _clean(p) if p else {}
        self._q = _clean(q) if q else {}

    @staticmethod
    def _of(p: Terms, q: Terms) -> "TrigPoly":
        """Wrap fresh term dicts that hold no zero coefficient, without _clean."""
        u = TrigPoly.__new__(TrigPoly)
        u._p = p
        u._q = q
        return u

    # Read-only views; printing and the numeric test oracle iterate these.
    @property
    def p(self):
        return MappingProxyType(self._p)

    @property
    def q(self):
        return MappingProxyType(self._q)

    @staticmethod
    def constant(v: Coeff) -> "TrigPoly":
        return TrigPoly({(0, 0): v} if v else None)

    @staticmethod
    def zero() -> "TrigPoly":
        return TrigPoly()

    @staticmethod
    def _coerce(v) -> "TrigPoly | None":
        if isinstance(v, TrigPoly):
            return v
        if isinstance(v, (int, Fraction)):
            return TrigPoly.constant(v)
        return None

    def __bool__(self) -> bool:
        return bool(self._p or self._q)

    def __eq__(self, other) -> bool:
        o = TrigPoly._coerce(other)
        if o is None:
            return NotImplemented
        return self._p == o._p and self._q == o._q

    def __hash__(self) -> int:
        # well defined because the canonical form is unique; a constant equals
        # its int or Fraction value, so it must hash as that value too
        value = is_constant(self)
        if value is not None:
            return hash(value)
        return hash((frozenset(self._p.items()), frozenset(self._q.items())))

    def __add__(self, other):
        o = TrigPoly._coerce(other)
        if o is None:
            return NotImplemented
        return TrigPoly._of(_add(self._p, o._p), _add(self._q, o._q))

    __radd__ = __add__

    def __neg__(self):
        return TrigPoly._of(_neg(self._p), _neg(self._q))

    def __sub__(self, other):
        o = TrigPoly._coerce(other)
        if o is None:
            return NotImplemented
        return TrigPoly._of(_add(self._p, _neg(o._p)), _add(self._q, _neg(o._q)))

    def __rsub__(self, other):
        o = TrigPoly._coerce(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __mul__(self, other):
        if isinstance(other, TrigPoly):
            return TrigPoly.sum_of_products(((1, self, other),))
        if isinstance(other, (int, Fraction)):
            return TrigPoly._of(_scale(self._p, other), _scale(self._q, other))
        return NotImplemented

    __rmul__ = __mul__

    @staticmethod
    def sum_of_products(terms: Iterable[tuple[Coeff, TrigPoly | Coeff, TrigPoly | Coeff]]) -> TrigPoly:
        """The sum of k * u * v over the (k, u, v) terms, with k an int or
        Fraction and u, v each a TrigPoly, int or Fraction.  An empty sum is
        zero.  A determinant's minor passes signs as k and two entries; an
        entry of a Hankel conjugation passes each convolution coefficient as
        k, one Hankel value and the int 1.

        Every product is added straight into one p dict and one q dict, using
        (p1 + s q1)(p2 + s q2) = p1 p2 + (1 - c^2) q1 q2 + s (p1 q2 + q1 p2),
        and zero coefficients are dropped once at the end: no product is built
        along the way and no partial sum is copied.
        """
        p: Terms = {}
        q: Terms = {}
        pget = p.get
        qget = q.get
        for k, u, v in terms:
            if not isinstance(u, TrigPoly):
                u, v = v, u
            if not isinstance(u, TrigPoly):  # two scalars
                p[(0, 0)] = pget((0, 0), 0) + k * u * v
                continue
            if not isinstance(v, TrigPoly):  # u times a scalar
                k *= v
                for m, w in u._p.items():
                    p[m] = pget(m, 0) + k * w
                for m, w in u._q.items():
                    q[m] = qget(m, 0) + k * w
                continue
            up, uq, vp, vq = u._p, u._q, v._p, v._q
            for (xa, ca), wa in up.items():
                wa *= k
                for (xb, cb), wb in vp.items():
                    m = (xa + xb, ca + cb)
                    p[m] = pget(m, 0) + wa * wb
                for (xb, cb), wb in vq.items():
                    m = (xa + xb, ca + cb)
                    q[m] = qget(m, 0) + wa * wb
            for (xa, ca), wa in uq.items():
                wa *= k
                for (xb, cb), wb in vp.items():
                    m = (xa + xb, ca + cb)
                    q[m] = qget(m, 0) + wa * wb
                for (xb, cb), wb in vq.items():
                    x, c = xa + xb, ca + cb
                    w = wa * wb
                    p[(x, c)] = pget((x, c), 0) + w
                    p[(x, c + 2)] = pget((x, c + 2), 0) - w
        return TrigPoly._of(_clean(p), _clean(q))

    def __str__(self) -> str:
        # term order: (s degree, x degree, c degree) descending
        terms: list[tuple[Coeff, str]] = []
        for (xd, cd), v in sorted(self._q.items(), reverse=True):
            terms.append((v, _monomial(xd, cd, with_s=True)))
        for (xd, cd), v in sorted(self._p.items(), reverse=True):
            terms.append((v, _monomial(xd, cd, with_s=False)))
        return _render(terms)

    def __repr__(self) -> str:
        return f"TrigPoly({self})"


def _monomial(xd: int, cd: int, with_s: bool) -> str:
    parts = []
    if xd:
        parts.append("x" if xd == 1 else f"x^{xd}")
    if cd:
        parts.append("c" if cd == 1 else f"c^{cd}")
    if with_s:
        parts.append("s")
    return "*".join(parts)


def _render(terms: list[tuple[Coeff, str]]) -> str:
    if not terms:
        return "0"
    out = []
    for i, (v, mono) in enumerate(terms):
        negative = v < 0
        mag = -v if negative else v
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if i == 0:
            out.append(f"-{body}" if negative else body)
        else:
            out.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(out)


def differentiate(u: TrigPoly) -> TrigPoly:
    """d/dx under s' = c, c' = -s, x' = 1.

    Closed form on the canonical pair, already free of s^2:
        D(p + s q) = (p_x + c q + (c^2 - 1) q_c) + s (q_x - p_c).
    Terms go straight into one p and one q dict, cleaned once at the end.
    """
    p: Terms = {}
    q: Terms = {}
    for (x, c), v in u._p.items():  # one to one onto new keys: no lookup
        if x:
            p[x - 1, c] = v * x
        if c:
            q[x, c - 1] = -v * c
    pget, qget = p.get, q.get
    for (x, c), v in u._q.items():
        if x:
            m = (x - 1, c)
            q[m] = qget(m, 0) + v * x
        w = v * c  # c q and c^2 q_c meet in the c^(c+1) term
        m = (x, c + 1)
        p[m] = pget(m, 0) + v + w
        if c:
            m = (x, c - 1)
            p[m] = pget(m, 0) - w
    return TrigPoly._of(_clean(p), _clean(q))


def harmonic_step(u: TrigPoly) -> TrigPoly:
    """Apply D^2 + 1, the operator whose powers annihilate x^n sin x, x^n cos x."""
    return differentiate(differentiate(u)) + u


def is_constant(u: TrigPoly) -> Coeff | None:
    """The constant value if u lies in Q, else None."""
    if u._q:
        return None
    if not u._p:
        return 0
    if set(u._p) == {(0, 0)}:
        return u._p[(0, 0)]
    return None


@lru_cache(maxsize=None)
def ladder_rung(power: int, kind: Trig, order: int, k: int) -> TrigPoly:
    """D^order (D^2+1)^k (x^power * sin x or cos x): one rung of the
    (D^2+1)-ladder, in closed form.

    With the trig factor written as e^(ix), the exponential-shift rule
    P(D)(e^(ix) u) = e^(ix) P(D+i) u and (D+i)^2 + 1 = D (D+2i) make the rung
    e^(ix) (D+i)^order D^k (D+2i)^k x^power.  The pair (j, b) with
    m = k+j+b <= power adds C(k,j) 2^(k-j) C(order,b) power!/(power-m)! to
    x^(power-m), turned by i^(order+2k-m): each i turns sin a quarter period on,
    through sin, cos, -sin, -cos (cos is sin turned once).  k > power gives
    zero; order enters only through math.comb, so only power sets the cost.
    """
    if not isinstance(kind, Trig):
        raise TypeError(f"ladder rung kind must be a Trig, not {kind!r}")
    if power < 0 or order < 0 or k < 0:
        raise ValueError("ladder rung needs power >= 0, order >= 0 and k >= 0")
    if k > power:
        return TrigPoly()
    # w[t] = sum over j + b = t of C(k,j) 2^(k-j) C(order,b): the coefficients of
    # (z+1)^order (z+2)^k below z^(power-k+1), all positive, as t <= order + k
    w = [comb(order, t) for t in range(min(power - k, order + k) + 1)]
    for _ in range(k):
        w = [2 * v + u for v, u in zip(w, [0, *w])]  # times z + 2
    p: Terms = {}
    q: Terms = {}
    turn = order + k + (kind is Trig.COS)  # quarter turns at m = k, one more for cos
    for t, v in enumerate(w):
        v *= perm(power, k + t)
        r = (turn - t) & 3  # 0 sin, 1 cos, 2 -sin, 3 -cos
        (p if r & 1 else q)[power - k - t, r & 1] = -v if r & 2 else v
    return TrigPoly._of(p, q)
