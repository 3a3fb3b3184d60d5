"""Linearized-operator algebra through conventional associates.

A q-linearized operator sum c_i x^(q^i) over F_q is stored only as its
associate polynomial sum c_i x^i: composition of operators corresponds to
ordinary multiplication of associates and divisibility transfers the same
way, so the expanded operator (degree q^deg) never needs to be built.
Evaluation uses iterated Frobenius.  operator_matrix is an operator's F_p
matrix, by Horner's rule on the field's one _linalg.frobenius_matrix, and
nonzero_images applies it to one element per orbit of <F_q*> x
<Frobenius> (_linalg.field_orbits).  Whole-field root counting asks it of
an operator and its single-part-omitted cofactors, and the root census
(oracle) decides normality with it: an element is normal exactly when no
cofactor (x^n - 1)/f of x^n - 1 kills it.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from . import _linalg, gf
from .errors import BudgetExceeded
from .polyring import NEG_INF, Factorization, Poly, product, x_pow_minus_one


@dataclasses.dataclass(frozen=True)
class QPoly:
    """A linearized operator, held as its associate polynomial."""

    associate: Poly

    @property
    def field(self):
        return self.associate.field

    @property
    def degree(self):
        """Degree of the associate (the operator itself has degree q^this)."""
        return self.associate.degree

    def to_json_obj(self) -> dict:
        from . import textio

        return {"q": self.field.order, "associate": textio.format_poly(self.associate)}

    def __repr__(self):
        return f"QPoly<{self.associate!r}>"


def symbolic_mul(l1: QPoly, l2: QPoly) -> QPoly:
    """Composition of operators == product of associates."""
    if l1.field != l2.field:
        raise ValueError("operators live over different base fields")
    return QPoly(l1.associate * l2.associate)


def symbolic_divides(l1: QPoly, l: QPoly) -> bool:
    """Operator divisibility == ordinary divisibility of associates."""
    if l1.associate.is_zero():
        raise ValueError("division by the zero operator")
    return (l.associate % l1.associate).is_zero()


def evaluate(l: QPoly, a, ext):
    """sum c_i * a^(q^i) by iterated Frobenius; coefficients embed into ext."""
    if ext.base != l.field:
        raise ValueError("operator coefficients do not live in ext's base field")
    ext.validate(a)
    F = l.field
    acc = ext.zero
    cur = a
    for i, c in enumerate(l.associate.coeffs):
        if i:
            cur = ext.frobenius(cur)
        if c != F.zero:
            acc = ext.add(acc, ext.mul(ext.embed(c), cur))
    return acc


def operator_matrix(l: QPoly, ext):
    """The operator as an F_p matrix acting on ext's prime coordinates,
    sum_i S_i F^i, S_i multiplication by c_i and F the field's one Frobenius
    matrix, in Horner form from the top coefficient down: acc F + S_i is
    one product [acc | S_i] [F; I].  Multiplying by c_i in F_q scales each
    of ext's n coordinates over F_q alike, so S_i is block diagonal: n copies
    of the block whose column j is c_i times the j-th prime unit of F_q."""
    if ext.base != l.field:
        raise ValueError("operator coefficients do not live in ext's base field")
    F = l.field
    p, n, k = ext.char, ext.degree, F.prime_dim
    coeffs = l.associate.coeffs
    if not coeffs:
        return np.zeros((ext.prime_dim, ext.prime_dim), dtype=_linalg.exact_dtype(p))
    frob = _linalg.frobenius_matrix(ext)
    coords = np.array([F.prime_coords(c) for c in coeffs], dtype=frob.dtype)
    scalars = np.zeros((len(coeffs), n, k, n, k), dtype=frob.dtype)
    scalars[:, np.arange(n), :, np.arange(n)] = _linalg.scale_by_basis(coords, F).swapaxes(1, 2)
    scalars = scalars.reshape(len(coeffs), n * k, n * k)
    step = np.concatenate([frob, np.eye(n * k, dtype=frob.dtype)])
    acc = scalars[-1]
    for s in scalars[-2::-1]:
        acc = _linalg.matmul_mod(np.concatenate([acc, s], axis=1), step, p)
    return acc


@dataclasses.dataclass
class SymbolicFactorization:
    """Pairwise-coprime monic operator parts with multiplicities; the
    associates multiply to the associate of the whole operator."""

    parts: list[tuple[QPoly, int]]

    @classmethod
    def from_factorization(cls, fact: Factorization) -> "SymbolicFactorization":
        return cls([(QPoly(base), mult) for base, mult in fact.parts])

    @property
    def field(self):
        return self.parts[0][0].field

    def associate(self) -> Poly:
        return product(self.field, (part.associate**mult for part, mult in self.parts))

    def total_degree(self) -> int:
        return sum(int(part.degree) * mult for part, mult in self.parts)

    def to_json_obj(self) -> dict:
        fact = Factorization([(part.associate, mult) for part, mult in self.parts])
        return {"q": self.field.order, "parts": fact.to_json_obj()}

    def validate(self) -> None:
        if not self.parts:
            raise ValueError("empty symbolic factorization")
        field = self.field
        for part, mult in self.parts:
            if mult < 1:
                raise ValueError("multiplicities must be >= 1")
            if part.field != field:
                raise ValueError("parts live over different fields")
            a = part.associate
            if a.degree is NEG_INF or a.degree < 1 or not a.is_monic():
                raise ValueError("part associates must be monic of degree >= 1")
        for (a, _), (b, _) in itertools.combinations(self.parts, 2):
            if not gf.pcoprime(field, a.associate.coeffs, (b.associate.coeffs,)):
                raise ValueError("parts are not pairwise coprime")


def _phi_closed_form(q: int, total: int, degrees: list[int]) -> int:
    """q^(total - sum d_i) * prod over i of (q^d_i - 1): the closed form
    that root_count and generalized_phi share, in integers only."""
    return q ** (total - sum(degrees)) * math.prod(q**d - 1 for d in degrees)


def root_count(fact: SymbolicFactorization) -> int:
    """Exact number of roots of the factored operator lying in the kernel of
    no single-part-omitted cofactor:

        q^D * prod over parts of (1 - q^(-n_i))
          == q^(D - sum n_i) * prod over parts of (q^n_i - 1)

    with D the total associate degree.  The second form is how it is
    computed, so only integers ever appear."""
    fact.validate()
    degrees = [int(part.degree) for part, _ in fact.parts]
    return _phi_closed_form(fact.field.order, fact.total_degree(), degrees)


def generalized_phi(l: Poly, fact: Factorization) -> int:
    """Number of polynomials of degree < deg l divisible by no factorization
    base.  Closed form mirrors root_count; fact must actually factor l."""
    fact.validate(expected=l)
    degrees = [int(base.degree) for base, _ in fact.parts]
    return _phi_closed_form(l.field.order, int(l.degree), degrees)


def phi_by_residue_enumeration(l: Poly, fact: Factorization, budget=None) -> int:
    """The same count by walking every residue of degree < deg l and trial
    dividing; the independent slow path for generalized_phi."""
    fact.validate(expected=l)
    F = l.field
    deg = int(l.degree)
    cap = gf.resolve_budget(budget, gf.POLY_BUDGET_DEFAULT)
    if F.order**deg > cap:
        raise BudgetExceeded(f"{F.order}^{deg} residues exceed the budget {cap}")
    bases = [base.coeffs for base, _ in fact.parts]
    elems = [F.from_index(i) for i in range(F.order)]
    count = 0
    for tail in itertools.product(elems, repeat=deg):
        r = gf.ptrim(F, tail)
        if all(gf.pmod(F, r, b) for b in bases):
            count += 1
    return count


def refine(fact: Factorization, part_index: int, g: Poly, h: Poly) -> Factorization:
    """Split one base into coprime monic factors g * h at the same
    multiplicity.  The residue count of generalized_phi strictly decreases
    under any such split; that is asserted by the test suite rather than
    recomputed here."""
    if not 0 <= part_index < len(fact.parts):
        raise ValueError("part index out of range")
    base, mult = fact.parts[part_index]
    for piece in (g, h):
        if piece.degree is NEG_INF or piece.degree < 1:
            raise ValueError("split pieces must have degree >= 1")
        if not piece.is_monic():
            raise ValueError("split pieces must be monic")
    if g * h != base:
        raise ValueError("pieces do not multiply to the chosen base")
    if not gf.pcoprime(g.field, g.coeffs, (h.coeffs,)):
        raise ValueError("pieces are not coprime")
    parts = list(fact.parts)
    parts[part_index : part_index + 1] = [(g, mult), (h, mult)]
    return Factorization(sorted(parts, key=lambda bm: bm[0].sort_key()), False)


def nonzero_images(associates, ext, idx: np.ndarray) -> list[np.ndarray]:
    """For each associate over ext's base field, whether its operator
    sends each element of the given indices to a nonzero element: one
    operator_matrix and one product of the elements' prime coordinates
    through it per associate."""
    coords = _linalg.index_coords(idx, ext.char, ext.prime_dim)
    return [
        _linalg.apply_map(coords, operator_matrix(QPoly(assoc), ext), ext.char).any(axis=1)
        for assoc in associates
    ]


def _survivor_mask(fact: SymbolicFactorization, ext, budget=None):
    fact.validate()
    if ext.base != fact.field:
        raise ValueError("factorization does not live over ext's base field")
    gf.check_element_budget(ext.order, budget)
    full = fact.associate()
    if not (x_pow_minus_one(ext.degree, fact.field) % full).is_zero():
        raise ValueError(
            "the associate must divide x^n - 1 so that every operator root "
            "lies in the degree-n extension"
        )
    # Every operator here is F_q-linear and commutes with Frobenius and the
    # scalars of F_q, so the mask is constant on orbits: apply each
    # operator's matrix to the representatives alone, and gather.
    rep, conj = _linalg.field_orbits(ext)
    cofactors = [full // part.associate for part, _ in fact.parts]
    moved = nonzero_images([full] + cofactors, ext, conj[:, 0])
    alive = ~moved[0] & np.logical_and.reduce(moved[1:])
    survives = np.zeros(ext.order, dtype=bool)
    survives[conj[:, 0]] = alive
    return survives[rep]


def root_count_by_enumeration(fact: SymbolicFactorization, ext, budget=None) -> int:
    """Count, over every element of ext, the roots of the whole operator
    killed by no single-part-omitted cofactor, evaluating the operators on
    one element per orbit of <F_q*> x <Frobenius> (_survivor_mask).  Must
    agree with root_count; the cofactor for each part removes exactly one
    copy of that part's operator."""
    return int(_survivor_mask(fact, ext, budget).sum())


def root_survivors(fact: SymbolicFactorization, ext, budget=None) -> list:
    """The actual elements counted by root_count_by_enumeration."""
    mask = _survivor_mask(fact, ext, budget)
    return [ext.from_index(int(i)) for i in np.flatnonzero(mask)]
