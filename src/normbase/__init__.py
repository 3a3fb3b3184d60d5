"""normbase: exact finite-field computations around normal bases.

Field towers F_p <= F_q <= F_{q^n} with plain-data elements, dense
polynomial arithmetic with full factorization, linearized-operator algebra
through conventional associates, closed-form counts (normal elements,
normal bases, irreducible polynomials by trace coefficient), and exhaustive
brute-force oracles that re-derive every count by enumeration.
"""

from .counting import (
    CountReport,
    build_report,
    equality_predicate,
    euler_phi,
    inequality_sides,
    irr_count_trace,
    is_prime_power,
    is_primitive_root,
    moebius,
    mult_order,
    nonzero_trace_irr_count,
    normal_basis_count,
    normal_element_count,
    prime_power_split,
    q_adic_valuation,
    split_n,
    total_irr_count,
    witness_lower_bound,
    zero_trace_irr_count,
)
from .errors import BudgetExceeded, VerificationError
from .gf import ExtensionField, PrimeField, base_field, extension, field_of_order, prime_field
from .linearized import (
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
from .oracle import (
    conjugate_matrix,
    count_normal_elements,
    degree_of,
    find_witness,
    full_report,
    is_n_polynomial,
    is_normal,
    rank_over_field,
    root_census,
    scan_irreducibles,
)
from .polyring import (
    Factorization,
    Poly,
    cyclotomic,
    factor,
    factor_xn_minus_1,
    gcd,
    is_irreducible,
    poly_trace,
    x_pow_minus_one,
)
from .textio import format_element, format_poly, parse_element, parse_poly

__version__ = "0.1.0"
