"""Linearized operators: composition, divisibility, root counting, Phi."""

import numpy as np
import pytest

from normbase import _linalg, counting, gf, oracle
from normbase.errors import BudgetExceeded
from normbase.linearized import (
    QPoly,
    SymbolicFactorization,
    evaluate,
    generalized_phi,
    operator_matrix,
    phi_by_residue_enumeration,
    refine,
    root_count,
    root_count_by_enumeration,
    root_survivors,
    symbolic_divides,
    symbolic_mul,
)
from normbase.polyring import Factorization, Poly, factor, factor_xn_minus_1, x_pow_minus_one


def P(field, *coeffs):
    return Poly.of(field, coeffs)


def Q(field, *coeffs):
    return QPoly(P(field, *coeffs))


def full_symbolic(n, field):
    return SymbolicFactorization.from_factorization(
        factor_xn_minus_1(n, field).flatten()
    )


def test_symbolic_mul_examples(f2, f3):
    assert symbolic_mul(Q(f2, 1, 1), Q(f2, 1, 1)).associate == P(f2, 1, 0, 1)
    # composing with the identity operator (associate 1) changes nothing
    l1 = Q(f2, 1, 1, 1)
    assert symbolic_mul(l1, Q(f2, 1)).associate == l1.associate
    assert symbolic_mul(Q(f3, 2, 1), Q(f3, 1, 1)).associate == P(f3, 2, 0, 1)


def test_symbolic_mul_field_mismatch(f2, f3):
    with pytest.raises(ValueError):
        symbolic_mul(Q(f2, 1, 1), Q(f3, 1, 1))


def test_operator_of_x2_plus_1_is_composition_square(f2):
    # associate x+1 over F_2 is the operator x^2 + x; composed with itself it
    # must equal the operator of x^2 + 1, i.e. x^4 + x, at every point of F_4.
    F4 = gf.extension(f2, 2)
    l = Q(f2, 1, 1)
    ll = symbolic_mul(l, l)
    for a in F4.elements():
        composed = evaluate(l, evaluate(l, a, F4), F4)
        direct = evaluate(ll, a, F4)
        expanded = F4.add(F4.pow(a, 4), a)
        assert composed == direct == expanded


def test_operator_over_f3_gives_x9_minus_x(f3):
    F9 = gf.extension(f3, 2)
    l = symbolic_mul(Q(f3, 2, 1), Q(f3, 1, 1))  # (x-1)(x+1) = x^2 - 1
    for b in F9.elements():
        assert evaluate(l, b, F9) == F9.sub(F9.pow(b, 9), b)


def test_symbolic_divides(f2):
    assert symbolic_divides(Q(f2, 1, 1), Q(f2, 1, 0, 1))
    assert symbolic_divides(Q(f2, 1, 1, 1), Q(f2, 1, 0, 0, 1))
    assert not symbolic_divides(Q(f2, 1, 1), Q(f2, 1, 1, 1))
    with pytest.raises(ValueError):
        symbolic_divides(QPoly(Poly.zero(f2)), Q(f2, 1, 1))


def test_divisibility_matches_kernel_containment(f2, f3):
    # For divisors of x^n - 1 every operator kernel lies inside F_{q^n}, so
    # associate divisibility must coincide with kernel containment there.
    for field, n in ((f2, 6), (f3, 4)):
        ext = gf.extension(field, n)
        xn1 = x_pow_minus_one(n, field)
        divs = [base for base, _ in factor(xn1).parts]
        products = []
        for i in range(len(divs)):
            for j in range(i, len(divs)):
                products.append(divs[i] if i == j else divs[i] * divs[j])
        vecs = _linalg.index_coords(np.arange(ext.order), ext.char, ext.prime_dim)
        for a in products:
            for b in products:
                ka = ~_linalg.apply_map(vecs, operator_matrix(QPoly(a), ext), ext.char).any(axis=1)
                kb = ~_linalg.apply_map(vecs, operator_matrix(QPoly(b), ext), ext.char).any(axis=1)
                contained = bool(np.all(~ka | kb))
                assert contained == symbolic_divides(QPoly(a), QPoly(b))


def test_evaluate_examples(f2):
    F8 = gf.extension(f2, 3)
    kill = Q(f2, 1, 0, 0, 1)  # x^3 - 1: the operator x^(q^3) - x
    assert all(evaluate(kill, a, F8) == F8.zero for a in F8.elements())
    tr = Q(f2, 1, 1, 1)
    assert all(evaluate(tr, a, F8) == F8.embed(F8.trace(a)) for a in F8.elements())
    F4 = gf.extension(f2, 2)
    assert evaluate(Q(f2, 1, 1), F4.gen, F4) == F4.one


def test_evaluate_validates(f2, f3):
    F4 = gf.extension(f2, 2)
    with pytest.raises(ValueError):
        evaluate(Q(f3, 1, 1), F4.gen, F4)
    with pytest.raises(ValueError):
        evaluate(Q(f2, 1, 1), (0, 1, 0), F4)


def test_operator_matrix_agrees_with_evaluate(rng):
    # over F_4 and F_9 the coefficients y and top lie outside the prime
    # field, so that a transposed scalar block shows; the zero operator
    # too: its associate has no coefficients
    for q, n in ((3, 3), (4, 3), (9, 2)):
        F = gf.field_of_order(q)
        ext = gf.extension(F, n)
        y, top = F.from_index(1), F.from_index(q - 1)
        for l in (Q(F, top, F.zero, F.one), Q(F, y, top), Q(F)):
            mat = operator_matrix(l, ext).astype(int)
            for a in ext.elements():
                coords = np.array(ext.prime_coords(a)) @ mat.T % ext.char
                got = ext.from_prime_coords(tuple(int(v) for v in coords))
                assert got == evaluate(l, a, ext), (ext, l, a)
    # past 2^32 a product of two residues passes 64 bits: column j of the
    # matrix against the image of the j-th prime unit, for random
    # associates of degree n
    for p in (2**32 + 15, 2**61 - 1):
        F = gf.prime_field(p)
        for n in (2, 3):
            ext = gf.extension(F, n)
            for _ in range(5):
                l = Q(F, *(F.random(rng) for _ in range(n)), rng.randrange(1, p))
                mat = operator_matrix(l, ext)
                for j, unit in enumerate(np.eye(n, dtype=int).tolist()):
                    got = ext.from_prime_coords(tuple(int(v) for v in mat[:, j]))
                    assert got == evaluate(l, ext.from_prime_coords(tuple(unit)), ext), (ext, l, j)


def test_root_count_examples(f2):
    F8 = gf.extension(f2, 3)
    fact = full_symbolic(3, f2)
    assert root_count(fact) == 3
    assert root_count_by_enumeration(fact, F8) == 3
    # single part covering the whole degree
    single = SymbolicFactorization([(Q(f2, 1, 0, 0, 1), 1)])
    assert root_count(single) == 7
    # repeated part: (x+1)^2 inside F_4
    rep = SymbolicFactorization([(Q(f2, 1, 1), 2)])
    assert root_count(rep) == 2
    assert root_count_by_enumeration(rep, gf.extension(f2, 2)) == 2


def test_root_count_validates(f2):
    bad = SymbolicFactorization([(Q(f2, 1, 1), 1), (Q(f2, 1, 0, 1), 1)])
    with pytest.raises(ValueError):
        root_count(bad)  # parts share x+1
    with pytest.raises(ValueError):
        root_count(SymbolicFactorization([]))


def test_root_enumeration_requires_divisor_of_field_poly(f2):
    fact = SymbolicFactorization([(Q(f2, 1, 1, 1), 1)])  # x^2+x+1 divides x^3-1
    with pytest.raises(ValueError):
        root_count_by_enumeration(fact, gf.extension(f2, 2))
    assert root_count_by_enumeration(fact, gf.extension(f2, 3)) == root_count(fact) == 3


def test_root_enumeration_budget(f2):
    fact = full_symbolic(3, f2)
    with pytest.raises(BudgetExceeded):
        root_count_by_enumeration(fact, gf.extension(f2, 3), budget=4)


def test_root_survivors_are_the_normal_elements(f2):
    F8 = gf.extension(f2, 3)
    survivors = root_survivors(full_symbolic(3, f2), F8)
    assert len(survivors) == 3
    for a in survivors:
        assert oracle.is_normal(a, F8)


def test_root_survivors_degree_one():
    for q in (2, 3, 5):
        field = gf.prime_field(q)
        ext = gf.extension(field, 1)
        fact = SymbolicFactorization([(QPoly(x_pow_minus_one(1, field)), 1)])
        assert root_count_by_enumeration(fact, ext) == q - 1


def test_root_count_matches_normal_count_across_fields():
    for q, n in ((2, 3), (2, 4), (2, 6), (3, 2), (3, 3), (3, 6), (4, 2), (5, 2)):
        field = gf.field_of_order(q)
        fact = full_symbolic(n, field)
        assert root_count(fact) == counting.normal_element_count(n, q)
        ext = gf.extension(field, n)
        assert root_count_by_enumeration(fact, ext) == counting.normal_element_count(n, q)


def test_serialization(f2):
    l = Q(f2, 1, 1, 1)
    assert l.to_json_obj() == {"q": 2, "associate": "1,1,1"}
    fact = full_symbolic(3, f2)
    obj = fact.to_json_obj()
    assert obj["q"] == 2
    assert obj["parts"] == [
        {"base": "1,1", "multiplicity": 1, "degree": 1},
        {"base": "1,1,1", "multiplicity": 1, "degree": 2},
    ]


def test_generalized_phi_examples(f2):
    l = P(f2, 1, 0, 0, 1)  # x^3 - 1
    fine = factor(l)
    assert generalized_phi(l, fine) == 3
    coarse = Factorization([(l, 1)])
    assert generalized_phi(l, coarse) == 7
    lsq = P(f2, 1, 0, 1)  # (x+1)^2
    fact = Factorization([(P(f2, 1, 1), 2)])
    assert generalized_phi(lsq, fact) == 2
    assert phi_by_residue_enumeration(lsq, fact) == 2


def test_generalized_phi_validates(f2):
    l = P(f2, 1, 0, 0, 1)
    with pytest.raises(ValueError):
        generalized_phi(l, Factorization([(P(f2, 1, 1), 1)]))  # wrong product


def test_phi_enumeration_matches_closed_form(f2, f3):
    cases = [
        (P(f2, 1, 0, 0, 1), None),
        (P(f2, 1, 0, 1), None),
        (P(f3, 2, 0, 1), None),
        (P(f2, 1, 0, 0, 0, 0, 0, 1), None),  # x^6 - 1 over F_2, repeated factors
    ]
    for l, _ in cases:
        fine = factor(l)
        assert generalized_phi(l, fine) == phi_by_residue_enumeration(l, fine)
        coarse = Factorization([(l.monic(), 1)])
        assert generalized_phi(l, coarse) == phi_by_residue_enumeration(l, coarse)


def test_refine_examples(f2, f3):
    l = P(f2, 1, 0, 0, 1)
    coarse = Factorization([(l, 1)])
    refined = refine(coarse, 0, P(f2, 1, 1), P(f2, 1, 1, 1))
    assert generalized_phi(l, coarse) == 7
    assert generalized_phi(l, refined) == 3
    l3 = P(f3, 2, 0, 1)  # x^2 - 1 over F_3
    c3 = Factorization([(l3, 1)])
    r3 = refine(c3, 0, P(f3, 2, 1), P(f3, 1, 1))
    assert generalized_phi(l3, c3) == 8
    assert generalized_phi(l3, r3) == 4


def test_refine_keeps_multiplicity(f2):
    l6 = P(f2, 1, 0, 0, 0, 0, 0, 1)  # x^6 - 1 = (x^3 - 1)^2 over F_2
    base = P(f2, 1, 0, 0, 1)
    fact = Factorization([(base, 2)])
    assert fact.product() == l6
    refined = refine(fact, 0, P(f2, 1, 1), P(f2, 1, 1, 1))
    assert all(mult == 2 for _, mult in refined.parts)
    assert generalized_phi(l6, refined) < generalized_phi(l6, fact)
    assert phi_by_residue_enumeration(l6, refined) == generalized_phi(l6, refined)


def test_refine_rejects_bad_splits(f2):
    l = P(f2, 1, 0, 1)  # (x+1)^2
    fact = Factorization([(l, 1)])
    with pytest.raises(ValueError):
        refine(fact, 0, P(f2, 1, 1), P(f2, 1, 1))  # pieces not coprime
    with pytest.raises(ValueError):
        refine(fact, 0, P(f2, 1, 1), P(f2, 1, 1, 1))  # wrong product
    with pytest.raises(ValueError):
        refine(fact, 3, P(f2, 1, 1), P(f2, 1, 1))  # bad index


def test_phi_agreement_with_root_enumeration(f2, f3):
    # residue counting and operator-root counting agree factorization by
    # factorization, including non-irreducible groupings
    for field, n in ((f2, 6), (f3, 4)):
        ext = gf.extension(field, n)
        l = x_pow_minus_one(n, field)
        fine = factor(l)
        groupings = [fine]
        if len(fine.parts) >= 2:
            (b0, m0), (b1, m1) = fine.parts[0], fine.parts[1]
            if m0 == m1:
                merged = [(b0 * b1, m0)] + list(fine.parts[2:])
                groupings.append(Factorization(merged))
        for fact in groupings:
            sym = SymbolicFactorization.from_factorization(fact)
            assert (
                generalized_phi(l, fact)
                == phi_by_residue_enumeration(l, fact)
                == root_count_by_enumeration(sym, ext)
                == root_count(sym)
            )
