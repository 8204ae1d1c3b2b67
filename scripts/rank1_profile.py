"""Profile of the normalized tropical theta function for a rank-1
multiplicative degeneration: exact value table, breakpoints, theta
characteristic and component-group quantization.

Usage: python scripts/rank1_profile.py [ell] [points-per-period]
"""

import sys
from fractions import Fraction

from tropical_heights.degeneration import DegenerationData
from tropical_heights.exact import bernoulli2, format_rational
from tropical_heights.tropical import (
    breakpoints,
    generate_theta_terms,
    quantization_check,
    theta_characteristic,
)


def main():
    ell = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    steps = int(sys.argv[2]) if len(sys.argv) > 2 else 10
    data = DegenerationData(
        rank=1, embedding=[[ell]], gram=[[ell]], linear_part=[-ell]
    )
    theta = generate_theta_terms(data)

    print(f"rank-1 degeneration with period {ell} ({len(theta.terms)} Fourier terms)")
    print(f"{'nu':>8}  {'value':>10}  {'normalized':>12}  {'(ell/2)B2(nu/ell)-ell/12':>24}")
    for k in range(steps + 1):
        nu = Fraction(k * ell, steps)
        closed = Fraction(ell, 2) * bernoulli2(nu / ell) - Fraction(ell, 12)
        print(
            f"{format_rational(nu):>8}  {format_rational(theta.value([nu])):>10}"
            f"  {format_rational(theta.normalized_value([nu])):>12}"
            f"  {format_rational(closed):>24}"
        )

    print("\nbreakpoints:", ", ".join(format_rational(b) for b in breakpoints(theta)))

    tc = theta_characteristic(theta)
    print(
        f"theta characteristic: k = {format_rational(tc.shift[0])}, "
        f"kappa = {format_rational(tc.shift_mod_lattice[0])}, "
        f"r = {format_rational(tc.constant)}"
    )

    report = quantization_check(theta)
    values = ", ".join(format_rational(v) for _, v in report.values)
    print(f"component-group values (all in (1/{2 * report.modulus})Z): {values}")


if __name__ == "__main__":
    main()
