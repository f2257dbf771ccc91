"""The brute-force Gram oracle at d = 512, well above the dimensions the
other Gram tests and the CLI digests reach (d <= 128).

The quadratic phases give an orthonormal basis of d^2 = 262144 states there,
within ``core.ORTHO_TOL``; the check takes a few seconds.
"""

from equibasis import gram_check, quadratic_phases, synthesize_coefficients


def test_quadratic_phases_pass_the_gram_check_at_d_512():
    assert gram_check(synthesize_coefficients(quadratic_phases(512))).passed
