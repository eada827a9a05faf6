"""The interval rule for syzygies, walked by `enumeration_oracle`, against
the representation-level kernel oracle, for every module of every algebra
with n <= 4, c_i <= 5; and `global_dimension`, the package's walk from the
simple modules, against both oracles on those algebras."""

from nakayama import global_dimension
from nakayama.harness import SweepConfig

import enumeration_oracle
from enumeration_oracle import enumerate_kupisch
import repr_oracle


def test_oracle_on_worked_examples(lambda1, lambda3):
    # kernel of P_4 ->> S_4 is P_5 = (5, 3): one copy of S_5, S_1, S_2
    assert repr_oracle.first_syzygy_dims(lambda1, 4, 1) == (1, 1, 0, 0, 1)
    assert repr_oracle.projective_dimension(lambda1, 4, 1) == 1
    # rad^2 = 0: syzygies shift simples forever
    assert repr_oracle.first_syzygy_dims(lambda3, 1, 1) == (0, 1, 0, 0)
    assert repr_oracle.projective_dimension(lambda3, 1, 1) is None


def test_first_syzygy_matches_interval_formula(lambda1, lambda2):
    for algebra in (lambda1, lambda2):
        c = algebra.kupisch
        for top in range(1, algebra.n + 1):
            for length in range(1, c[top - 1] + 1):
                expected = enumeration_oracle.syzygy(algebra, top, length)
                got = repr_oracle.first_syzygy_dims(algebra, top, length)
                if expected is None:
                    assert got == (0,) * algebra.n
                else:
                    dims = [0] * algebra.n
                    expected_top, expected_length = expected
                    for j in range(expected_length):
                        dims[(expected_top - 1 + j) % algebra.n] += 1
                    assert got == tuple(dims)


def test_projective_dimensions_match_oracle():
    checked = 0
    for algebra in enumerate_kupisch(SweepConfig(n_min=2, n_max=4, c_max=5)):
        c = algebra.kupisch
        for top in range(1, algebra.n + 1):
            for length in range(1, c[top - 1] + 1):
                fast = enumeration_oracle.projective_dimension(algebra, top, length)
                slow = repr_oracle.projective_dimension(algebra, top, length)
                assert fast == slow, (algebra.kupisch, top, length)
                checked += 1
    assert checked > 1000


def test_global_dimensions_match_oracle():
    for algebra in enumerate_kupisch(SweepConfig(n_min=2, n_max=4, c_max=5)):
        simples = [repr_oracle.projective_dimension(algebra, top, 1) for top in range(1, algebra.n + 1)]
        slow = None if None in simples else max(simples)
        assert global_dimension(algebra).value == slow, algebra.kupisch
        assert enumeration_oracle.global_dimension(algebra).value == slow, algebra.kupisch
