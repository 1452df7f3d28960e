"""Named verification suites behind `hurwitz-tau verify` and the test rig.

Each check returns a CheckResult; a suite is a list of them.  Checks favour
independent routes: brute-force enumeration, alternant determinants,
explicit group-algebra convolution, elementary series expansions.  Every
comparison is exact (Fraction arithmetic); "tolerance" everywhere is
equality.
"""

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from . import center, groupalg, oracles, symfunc, tauseries, twists
from .characters import character, character_table
from .groupalg import (
    GroupAlgebraElement,
    WalkQuery,
    class_sum,
    count_walks,
    count_walks_all_targets,
    jm_power_sum,
    mixed,
    multi_monotone,
    plain,
    plain_count_via_class_dp,
    strictly_monotone,
    weak_then_strict,
    weakly_monotone,
)
from .partitions import (
    cells,
    dimension,
    format_partition,
    hook_product,
    partitions_of,
    z_of,
)
from .series import SeriesSpace
from .twists import E, Exp, H, connection_coeffs, twist, twist_eigenvalue


@dataclass
class CheckResult:
    name: str
    passed: bool
    seconds: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        msg = f"{status} {self.name} ({self.seconds:.2f}s)"
        if self.detail and not self.passed:
            msg += f" :: {self.detail}"
        return msg


def _run(name: str, fn) -> CheckResult:
    start = time.perf_counter()
    try:
        detail = fn()
        ok, detail = True, (detail or "")
    except AssertionError as exc:
        ok, detail = False, str(exc)
    except Exception as exc:  # a crash is a failure with the error as witness
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    return CheckResult(name, ok, time.perf_counter() - start, detail)


def _seeded_points(seed: int, count: int, distinct=True):
    rng = random.Random(seed)
    return oracles.random_rationals(rng, count, distinct=distinct)


# -- characters suite ---------------------------------------------------------

def characters_suite(nmax: int = 8, oracle_nmax: int = 6, seed: int = 2014) -> list[CheckResult]:
    checks = []

    def orthogonality():
        for n in range(nmax + 1):
            character_table(n).validate()
        return f"both orthogonality relations and chi(Id)=n!/h exact, n<={nmax}"

    checks.append(_run("characters.orthogonality", orthogonality))

    def dims():
        for n in range(nmax + 1):
            total = sum(dimension(lam) ** 2 for lam in partitions_of(n))
            assert total == factorial(n), f"sum of dim^2 fails at n={n}"
        return f"sum_lam dim^2 = n! for n<={nmax}"

    checks.append(_run("characters.dimension_squares", dims))

    def hook_det():
        for n in range(1, nmax + 1):
            for lam in partitions_of(n):
                det = oracles.hook_product_via_determinant(lam)
                assert det == hook_product(lam), f"hook determinant fails at {lam}"
        return f"h_lam = 1/det(1/(lam_i-i+j)!) for n<={nmax}"

    checks.append(_run("characters.hook_determinant", hook_det))

    def alternant_entries():
        top = min(oracle_nmax, 6)
        for n in range(1, top + 1):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    got = character(lam, mu)
                    want = oracles.character_via_alternant(lam, mu)
                    assert got == want, (
                        f"chi_{lam}({mu}): border-strip {got} vs alternant {want}"
                    )
        return f"per-entry alternant coefficient oracle, n<={top}"

    checks.append(_run("characters.alternant_oracle", alternant_entries))

    def alternant_ratio_points():
        top = min(oracle_nmax, 6)
        for n in range(1, top + 1):
            for trial in range(3):
                xs = _seeded_points(seed + 101 * n + trial, n)
                for mu in partitions_of(n):
                    lhs = symfunc.evaluate_powersums(mu, xs)
                    rhs = sum(
                        character(lam, mu) * oracles.schur_via_alternant(lam, xs)
                        for lam in partitions_of(n)
                    )
                    assert lhs == rhs, f"alternant-ratio identity fails at n={n}, {mu}"
            # the 3-variable projection of the same identity
            xs3 = _seeded_points(seed + 7 * n, 3)
            for mu in partitions_of(n):
                lhs = symfunc.evaluate_powersums(mu, xs3)
                rhs = sum(
                    character(lam, mu) * oracles.schur_via_alternant(lam, xs3)
                    for lam in partitions_of(n)
                )
                assert lhs == rhs, f"3-variable alternant identity fails at {mu}"
        return f"P_mu = sum chi S_lam at seeded points, n<={top}"

    checks.append(_run("characters.alternant_ratio_points", alternant_ratio_points))

    def row_sums():
        for n in range(1, nmax + 1):
            for lam in partitions_of(n):
                total = sum(
                    Fraction(factorial(n), z_of(mu)) * character(lam, mu)
                    for mu in partitions_of(n)
                )
                expected = factorial(n) if lam == (n,) else 0
                assert total == expected, f"row sum fails at {lam}"
        return f"sum_mu |C_mu| chi_lam(mu) = n! delta(lam,(n)), n<={nmax}"

    checks.append(_run("characters.row_sums", row_sums))

    def sym_roundtrip():
        for n in range(nmax + 1):
            for mu in partitions_of(n):
                f = symfunc.powersum_to_schur(mu)
                back = symfunc.to_powersum(f)
                assert back.terms == {mu: Fraction(1)}, f"round trip fails at {mu}"
        return f"p -> s -> p round trip, n<={nmax}"

    checks.append(_run("characters.basis_roundtrip", sym_roundtrip))

    def cauchy():
        for n in range(nmax + 1):
            for trial in range(3):
                xs = _seeded_points(seed + 13 * n + trial, 3)
                ys = _seeded_points(seed + 31 * n + trial + 1, 3)
                p_side, s_side = symfunc.cauchy_sides(n, xs, ys)
                kernel = symfunc.cauchy_kernel_coeff(n, xs, ys)
                assert p_side == s_side == kernel, f"Cauchy identity fails at n={n}"
        return f"Cauchy-Littlewood degree slices, n<={nmax}, 3 points each"

    checks.append(_run("characters.cauchy_littlewood", cauchy))

    def evaluation():
        assert symfunc.evaluate_schur((2, 1), [1, 1, 1]) == oracles.ssyt_count((2, 1), 3)
        for lam in partitions_of(4):
            for m in (1, 2, 3, 5):
                xs = [Fraction(1)] * m
                assert symfunc.evaluate_schur(lam, xs) == oracles.ssyt_count(lam, m), (
                    f"SSYT count fails at {lam}, {m} variables"
                )
        # vanishing for more rows than variables
        assert symfunc.evaluate_schur((1, 1, 1), [1, 2]) == 0
        rng = random.Random(seed)
        for _ in range(5):
            xs = oracles.random_rationals(rng, 3, distinct=True)
            for lam in ((2, 1), (3,), (2, 2)):
                assert symfunc.evaluate_schur(lam, xs) == oracles.schur_via_alternant(
                    lam, xs
                ), f"p-basis and alternant Schur evaluations disagree at {lam}"
        return "Schur evaluation vs SSYT enumeration and alternant ratio"

    checks.append(_run("characters.schur_evaluation", evaluation))

    def ring_hom():
        rng = random.Random(seed + 5)
        parts_pool = [lam for n in range(7) for lam in partitions_of(n)]
        for _ in range(10):
            f = symfunc.p_basis(
                {rng.choice(parts_pool): Fraction(rng.randint(-3, 3)) for _ in range(3)}
            )
            g = symfunc.p_basis(
                {rng.choice(parts_pool): Fraction(rng.randint(-3, 3)) for _ in range(3)}
            )
            xs = oracles.random_rationals(rng, 3)
            lhs = symfunc.evaluate(symfunc.multiply(f, g), xs)
            rhs = symfunc.evaluate(f, xs) * symfunc.evaluate(g, xs)
            assert lhs == rhs, "evaluate is not multiplicative"
        return "evaluate(f*g) = evaluate(f)*evaluate(g) on random pairs"

    checks.append(_run("characters.evaluation_ring_hom", ring_hom))

    return checks


# -- center suite --------------------------------------------------------------

def center_suite(
    roundtrip_nmax: int = 8,
    idem_nmax: int = 6,
    remark_nmax: int = 7,
    oracle_nmax: int = 5,
) -> list[CheckResult]:
    checks = []

    def roundtrips():
        for n in range(roundtrip_nmax + 1):
            for lam in partitions_of(n):
                v = center.unit_idempotent(n, lam)
                back = center.class_to_idem(center.idem_to_class(v))
                assert back.coords == v.coords, f"F round trip fails at {lam}"
                w = center.unit_class(n, lam)
                back = center.idem_to_class(center.class_to_idem(w))
                assert back.coords == w.coords, f"C round trip fails at {lam}"
        return f"class <-> idempotent basis round trips, n<={roundtrip_nmax}"

    checks.append(_run("center.basis_roundtrips", roundtrips))

    def idempotency():
        for n in range(1, idem_nmax + 1):
            constants = center.class_structure_constants(n)
            f_class = {
                lam: center.idem_to_class(center.unit_idempotent(n, lam)).coords
                for lam in partitions_of(n)
            }
            for lam in partitions_of(n):
                for nu in partitions_of(n):
                    product: dict = {}
                    for m1, c1 in f_class[lam].items():
                        for m2, c2 in f_class[nu].items():
                            for kappa, s in constants[(m1, m2)].items():
                                product[kappa] = product.get(kappa, Fraction(0)) + c1 * c2 * s
                    product = {k: v for k, v in product.items() if v}
                    expected = f_class[lam] if lam == nu else {}
                    assert product == expected, (
                        f"F_{lam} F_{nu} fails at n={n}"
                    )
        return f"F idempotency/orthogonality in explicit C[S_n], n<={idem_nmax}"

    checks.append(_run("center.idempotents", idempotency))

    def remark_identities():
        for n in range(4, remark_nmax + 1):
            ident = GroupAlgebraElement.unit(n)
            p0 = Fraction(n)
            p1 = jm_power_sum(n, 1)
            p2 = jm_power_sum(n, 2)
            assert p1 == class_sum(n, (2,) + (1,) * (n - 2)), f"P1 fails at n={n}"
            lhs = p2 - ident.scale(p0 * (p0 - 1) / 2)
            assert lhs == class_sum(n, (3,) + (1,) * (n - 3)), f"P2 identity fails at n={n}"
            lhs = (p1 * p1).scale(Fraction(1, 2)) - p2.scale(Fraction(3, 2)) + ident.scale(
                p0 * (p0 - 1) / 2
            )
            assert lhs == class_sum(n, (2, 2) + (1,) * (n - 4)), (
                f"P1^2 identity fails at n={n}"
            )
            c2 = class_sum(n, (2,) + (1,) * (n - 2))
            want = (
                class_sum(n, (3,) + (1,) * (n - 3)).scale(3)
                + class_sum(n, (2, 2) + (1,) * (n - 4)).scale(2)
                + ident.scale(Fraction(n * (n - 1), 2))
            )
            assert c2 * c2 == want, f"C2*C2 identity fails at n={n}"
        return f"power-sum class expressions and C2*C2 product, 4<=n<={remark_nmax}"

    checks.append(_run("center.jm_class_identities", remark_identities))

    def centrality():
        from .errors import CentralityError

        for n in range(2, idem_nmax + 1):
            c2 = class_sum(n, (2,) + (1,) * (n - 2))
            for i in range(5):
                p = jm_power_sum(n, i)
                center.project_to_classes(p)  # raises on non-centrality
                assert p.commutes_with(c2), f"P_{i} does not commute at n={n}"
        # a lone JM element is not central
        try:
            center.project_to_classes(groupalg.jm_element(3, 3))
            raise AssertionError("expected CentralityError for a lone JM element")
        except CentralityError:
            pass
        return f"JM power sums central and commute with C2, n<={idem_nmax}, i<=4"

    checks.append(_run("center.jm_centrality", centrality))

    def characteristic_consistency():
        for n in range(1, idem_nmax + 1):
            for mu in partitions_of(n):
                via_class = center.characteristic_map(center.unit_class(n, mu))
                via_idem = center.characteristic_map(
                    center.class_to_idem(center.unit_class(n, mu))
                )
                assert via_class == via_idem, f"ch basis consistency fails at {mu}"
                schur_form = symfunc.to_schur(via_class)
                table = character_table(n)
                for lam in partitions_of(n):
                    expected = Fraction(table.value(lam, mu), z_of(mu))
                    assert schur_form.terms.get(lam, Fraction(0)) == expected
        return f"characteristic map agrees across bases, n<={idem_nmax}"

    checks.append(_run("center.characteristic_map", characteristic_consistency))

    def cut_and_join():
        for n in range(1, idem_nmax + 1):
            c2 = (2,) + (1,) * (n - 2) if n >= 2 else None
            for mu in partitions_of(n):
                f = center.characteristic_map(center.unit_class(n, mu))
                euler = center.euler_operator(f)
                assert euler == f.scale(n), f"Euler operator fails at {mu}"
                if c2 is None:
                    continue
                lhs = center.cut_and_join_operator(f)
                product = center.center_multiply(
                    center.unit_class(n, c2), center.unit_class(n, mu)
                )
                rhs = center.characteristic_map(product)
                assert lhs == rhs, f"cut-and-join fails at {mu}"
        return f"cut-and-join = multiplication by C2 under ch, n<={idem_nmax}"

    checks.append(_run("center.cut_and_join", cut_and_join))

    def multiply_oracle():
        for n in range(1, oracle_nmax + 1):
            for mu in partitions_of(n):
                for nu in partitions_of(n):
                    fast = center.center_multiply(
                        center.unit_class(n, mu), center.unit_class(n, nu)
                    )
                    slow = center.project_to_classes(class_sum(n, mu) * class_sum(n, nu))
                    assert fast.coords == slow.coords, (
                        f"center_multiply vs convolution fails at {mu} * {nu}"
                    )
        return f"diagonalised multiplication = raw convolution, n<={oracle_nmax}"

    checks.append(_run("center.multiply_oracle", multiply_oracle))

    return checks


# -- walks suite ---------------------------------------------------------------

def _family_cases(n: int, plain_cap=4, weak_cap=6, mixed_cap=5, multi_cap=5):
    """(family, twist spec, [(segments, extractor kwargs, factor)]) tuples."""
    cases = []
    t_exp = twist((Exp("q", "beta"),), (n, plain_cap))
    cases.append(
        (
            "plain",
            t_exp,
            [
                (plain(k), {"q": n, "beta": k}, factorial(k))
                for k in range(plain_cap + 1)
            ],
        )
    )
    t_h = twist((H("z"),), (weak_cap,))
    cases.append(
        (
            "monotone",
            t_h,
            [(weakly_monotone(k), {"z": k}, 1) for k in range(weak_cap + 1)],
        )
    )
    t_e = twist((E("w"),), (n,))
    cases.append(
        (
            "strict",
            t_e,
            [(strictly_monotone(k), {"w": k}, 1) for k in range(n)],
        )
    )
    t_mixed = twist((Exp("q", "beta"), H("z")), (n, mixed_cap, mixed_cap))
    cases.append(
        (
            "mixed",
            t_mixed,
            [
                (mixed(p, k), {"q": n, "z": p, "beta": k - p}, factorial(k - p))
                for k in range(mixed_cap + 1)
                for p in range(k + 1)
            ],
        )
    )
    t_multi = twist((E("w1"), E("w2")), (multi_cap, multi_cap))
    cases.append(
        (
            "multi",
            t_multi,
            [
                (multi_monotone([d1, d2]), {"w1": d1, "w2": d2}, 1)
                for total in range(multi_cap + 1)
                for d1 in range(total + 1)
                for d2 in (total - d1,)
            ],
        )
    )
    t_ws = twist((H("z"), E("w")), (4, 4))
    cases.append(
        (
            "weak_then_strict",
            t_ws,
            [
                (weak_then_strict(k, l), {"z": k, "w": l}, 1)
                for k in range(5)
                for l in range(5 - k)
            ],
        )
    )
    return cases


def walks_suite(nmax: int = 5, spot_n6: bool = True) -> list[CheckResult]:
    checks = []

    def sweep():
        for n in range(1, nmax + 1):
            parts = partitions_of(n)
            for family, spec, entries in _family_cases(n):
                coeffs = connection_coeffs(spec, n)
                oracle_cache = {}
                for segments, kwargs, factor in entries:
                    for lam in parts:
                        if (lam, segments) not in oracle_cache:
                            oracle_cache[(lam, segments)] = count_walks_all_targets(
                                n, lam, segments
                            )
                        counts = oracle_cache[(lam, segments)]
                        for mu in parts:
                            got = coeffs[(lam, mu)].coeff(**kwargs) * factor
                            want = counts.get(mu, 0)
                            assert got == want, (
                                f"{family} n={n} {lam}->{mu} {kwargs}: "
                                f"twist {got} vs oracle {want}"
                            )
        return f"all families, all pairs, n<={nmax}"

    checks.append(_run("walks.twist_vs_oracle", sweep))

    if spot_n6:

        def spot():
            n = 6
            parts = partitions_of(n)
            spec = twist((H("z"),), (4,))
            coeffs = connection_coeffs(spec, n)
            for lam in parts:
                counts = {
                    k: count_walks_all_targets(n, lam, weakly_monotone(k))
                    for k in range(5)
                }
                for mu in parts:
                    for k in range(5):
                        got = coeffs[(lam, mu)].coeff(z=k)
                        want = counts[k].get(mu, 0)
                        assert got == want, f"n=6 weak {lam}->{mu} k={k}"
            spec_e = twist((E("w"),), (3,))
            coeffs_e = connection_coeffs(spec_e, n)
            for lam in parts:
                counts = {
                    k: count_walks_all_targets(n, lam, strictly_monotone(k))
                    for k in range(4)
                }
                for mu in parts:
                    for k in range(4):
                        got = coeffs_e[(lam, mu)].coeff(w=k)
                        assert got == counts[k].get(mu, 0), f"n=6 strict {lam}->{mu} k={k}"
            spec_p = twist((Exp("q", "beta"),), (n, 3))
            coeffs_p = connection_coeffs(spec_p, n)
            for lam in parts:
                counts = {
                    k: count_walks_all_targets(n, lam, plain(k)) for k in range(4)
                }
                for mu in parts:
                    for k in range(4):
                        got = coeffs_p[(lam, mu)].coeff(q=n, beta=k) * factorial(k)
                        assert got == counts[k].get(mu, 0), f"n=6 plain {lam}->{mu} k={k}"
            return "full n=6 sweeps: plain k<=3, weak k<=4, strict k<=3, all pairs"

        checks.append(_run("walks.n6_spot_checks", spot))

    def symmetry():
        for n in range(1, min(nmax, 5) + 1):
            spec = twist((H("z"), E("w")), (4, 4))
            coeffs = connection_coeffs(spec, n)
            assert twists.symmetry_check(coeffs, n), f"symmetry fails at n={n}"
        return "Z_mu^-1 G(lam,mu) = Z_lam^-1 G(mu,lam)"

    checks.append(_run("walks.symmetry", symmetry))

    def composition():
        n = 4
        caps = (3, 3)
        spec_he = twist((H("z"), E("w")), caps)
        space = spec_he.space()
        coeffs_joint = connection_coeffs(spec_he, n)
        # component matrices computed in the joint space
        table = character_table(n)
        parts = table.parts

        def component(spec):
            eig = {nu: twist_eigenvalue(spec, nu, space) for nu in parts}
            sums = table.character_sum(eig, space.zero())
            return {
                (lam, mu): total * Fraction(1, z_of(lam)) for (lam, mu), total in sums.items()
            }

        mat_h = component(twist((H("z"),), (caps[0],)))
        mat_e = component(twist((E("w"),), (caps[1],)))
        for lam in parts:
            for mu in parts:
                total = space.zero()
                for kap in parts:
                    total = total + mat_h[(lam, kap)] * mat_e[(kap, mu)]
                assert total == coeffs_joint[(lam, mu)], (
                    f"composition fails at {lam}->{mu}"
                )
        return "G(H*E) = G(H) G(E) as matrices in the class basis, n=4"

    checks.append(_run("walks.composition", composition))

    def class_dp():
        for n in range(1, min(nmax, 5) + 1):
            for lam in partitions_of(n):
                counts = {
                    k: count_walks_all_targets(n, lam, plain(k)) for k in range(5)
                }
                for mu in partitions_of(n):
                    for k in range(5):
                        dp = plain_count_via_class_dp(n, lam, mu, k)
                        assert dp == counts[k].get(mu, 0), (
                            f"class DP disagrees at {lam}->{mu}, k={k}"
                        )
        return "plain counts equal the class-matrix DP"

    checks.append(_run("walks.plain_class_dp", class_dp))

    def representative_independence():
        for n in range(2, min(nmax, 5) + 1):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    segs = weakly_monotone(3)
                    counts = groupalg.count_walks_to_elements(n, lam, segs)
                    members = groupalg.conjugacy_classes(n)[mu]
                    sample = {counts.get(members[0], 0), counts.get(members[-1], 0)}
                    assert len(sample) == 1, (
                        f"count depends on the representative for {lam}->{mu}"
                    )
        return "counts independent of the target representative (two samples)"

    checks.append(_run("walks.representative_independence", representative_independence))

    def degenerations():
        n = 4
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert count_walks(WalkQuery(n, lam, mu, multi_monotone([3]))) == count_walks(
                    WalkQuery(n, lam, mu, strictly_monotone(3))
                )
                assert count_walks(WalkQuery(n, lam, mu, mixed(4, 4))) == count_walks(
                    WalkQuery(n, lam, mu, weakly_monotone(4))
                )
                assert count_walks(WalkQuery(n, lam, mu, mixed(0, 3))) == count_walks(
                    WalkQuery(n, lam, mu, plain(3))
                )
                assert count_walks(
                    WalkQuery(n, lam, mu, strictly_monotone(n))
                ) == 0
        return "multi(1 segment)=strict, mixed(p=k)=weak, mixed(0)=plain, strict(n)=0"

    checks.append(_run("walks.degenerations", degenerations))

    def element_level_twist():
        for n in range(1, 5):
            cap = 3
            spec = twist((H("z"),), (cap,))
            space = spec.space()
            h_parts = _complete_jm(n, cap)
            for lam in partitions_of(n):
                twisted = twists.apply_twist(spec, center.unit_class(n, lam), space)
                for k in range(cap + 1):
                    product = h_parts[k] * class_sum(n, lam)
                    slow = (
                        center.project_to_classes(product).coords
                        if product.terms
                        else {}
                    )
                    for mu in partitions_of(n):
                        got = twisted.coeff(mu)
                        got_k = got.coeff(z=k) if got else Fraction(0)
                        assert got_k == slow.get(mu, Fraction(0)), (
                            f"element-level twist fails at n={n}, {lam}->{mu}, z^{k}"
                        )
        return "apply_twist = multiplication by truncated H(z, J) in C[S_n], n<=4"

    checks.append(_run("walks.element_level_twist", element_level_twist))

    return checks


def _complete_jm(n: int, cap: int) -> list[GroupAlgebraElement]:
    """h_k evaluated at the JM elements, for k <= cap, by the standard
    one-alphabet-at-a-time recursion."""
    h = [GroupAlgebraElement.unit(n)] + [
        GroupAlgebraElement.zero(n) for _ in range(cap)
    ]
    for b in range(1, n + 1):
        jb = groupalg.jm_element(n, b)
        powers = [GroupAlgebraElement.unit(n)]
        for _ in range(cap):
            powers.append(powers[-1] * jb)
        new = []
        for k in range(cap + 1):
            acc = GroupAlgebraElement.zero(n)
            for j in range(k + 1):
                acc = acc + powers[j] * h[k - j]
            new.append(acc)
        h = new
    return h


# -- tau suite -------------------------------------------------------------------

TWIST_FAMILIES = {
    "Exp": lambda n: twist((Exp("q", "beta"),), (n, 4)),
    "H": lambda n: twist((H("z"),), (5,)),
    "E": lambda n: twist((E("w"),), (n,)),
    "H*E": lambda n: twist((H("z"), E("w")), (4, 4)),
    "E*E": lambda n: twist((E("w1"), E("w2")), (4, 4)),
}


def tau_suite(
    nmax: int = 6, seed: int = 2014, walk_nmax: int = 5, only=None
) -> list[CheckResult]:
    checks = []

    def add(name, fn):
        if only is None or name in only:
            checks.append(_run(name, fn))

    def twisted_cauchy():
        for name, make in TWIST_FAMILIES.items():
            for n in range(min(nmax, 6) + 1):
                spec = make(n)
                space = spec.space()
                parts = partitions_of(n)
                coeffs = connection_coeffs(spec, n)
                # route B: diagonal multiplication via the idempotent basis
                for lam in parts:
                    twisted = twists.apply_twist(spec, center.unit_class(n, lam), space)
                    for mu in parts:
                        got = twisted.coeff(mu)
                        if not got:
                            got = space.zero()
                        assert got == coeffs[(lam, mu)], (
                            f"{name}: matrix route disagrees at n={n}, {lam}->{mu}"
                        )
                # random-point identity with 3 variables per side
                rng = random.Random(seed + n)
                xs = oracles.random_rationals(rng, 3)
                ys = oracles.random_rationals(rng, 3)
                lhs = space.zero()
                for lam in parts:
                    pl = symfunc.evaluate_powersums(lam, xs)
                    for mu in parts:
                        pm = symfunc.evaluate_powersums(mu, ys)
                        weight = pl * pm * Fraction(1, z_of(mu))
                        if weight:
                            lhs = lhs + coeffs[(lam, mu)] * weight
                rhs = space.zero()
                for nu in parts:
                    weight = symfunc.evaluate_schur(nu, xs) * symfunc.evaluate_schur(
                        nu, ys
                    )
                    if weight:
                        rhs = rhs + twist_eigenvalue(spec, nu, space) * weight
                assert lhs == rhs, f"{name}: point identity fails at n={n}"
        return f"corrected twisted Cauchy identity, all families, n<={min(nmax, 6)}"

    add("tau.twisted_cauchy", twisted_cauchy)

    def vacuum():
        t0 = tauseries.vacuum_tau(min(nmax, 6))
        rng = random.Random(seed)
        xs = oracles.random_rationals(rng, 2)
        ys = oracles.random_rationals(rng, 2)
        per_degree = Fraction(0)
        for n in range(min(nmax, 6) + 1):
            p_side, s_side = symfunc.cauchy_sides(n, xs, ys)
            kernel = symfunc.cauchy_kernel_coeff(n, xs, ys)
            assert p_side == s_side == kernel
            per_degree += kernel
        value = tauseries.tau_eval(t0, xs, ys).constant_term()
        assert value == per_degree, "vacuum tau disagrees with the Cauchy kernel"
        return "vacuum tau = Cauchy kernel degree slices"

    add("tau.vacuum_cauchy", vacuum)

    def intertwining():
        for caps, names in (((8,), ("z",)), ((6, 6), ("z1", "z2"))):
            spec = twist(tuple(H(z) for z in names), caps)
            conv = twists.intertwine(spec)
            conv.check_ratio(-4, 6)
            for n in range(9):
                for lam in partitions_of(n):
                    got = conv.r_lambda(lam, 0)
                    assert got.qexp == 0
                    want = twist_eigenvalue(spec, lam, spec.space())
                    assert got.series == want, (
                        f"intertwining fails at {lam} with {len(names)} z's"
                    )
        return "r_lambda(0) from the rho branches = content-product eigenvalue, |lam|<=8"

    add("tau.intertwining_theorem", intertwining)

    def alpha_q_branches():
        for alpha in (Fraction(1, 2), Fraction(-3), Fraction(7, 3)):
            space = SeriesSpace(("q",), (24,))
            fam = twists.AlphaQConvolution(alpha, space)
            fam.check_ratio(-3, 8)
            for N in range(6):
                for n in range(7):
                    for lam in partitions_of(n):
                        if len(lam) > N:
                            assert (
                                twists.alpha_q_coeff(lam, fam, N).is_zero()
                            ), f"defined-zero flag fails at {lam}, N={N}"
                            continue
                        branch = fam.r_lambda(lam, N)
                        closed = fam.closed_form_r_lambda(lam, N)
                        assert branch == closed, (
                            f"alpha-q branches disagree at {lam}, N={N}, alpha={alpha}"
                        )
        return "branch r_lambda = r0 q^|lam| (N-a)_lam/(N)_lam, |lam|<=6, N<=5"

    add("tau.alpha_q_family", alpha_q_branches)

    def hciz():
        rng = random.Random(seed + 3)
        for N in (1, 2, 3):
            a_vals = oracles.random_rationals(rng, N, distinct=True)
            b_vals = oracles.random_rationals(rng, N, distinct=True)
            t = tauseries.hciz_tau(N, 6, 6)
            det_side = tauseries.hciz_determinant(N, a_vals, b_vals, 6)
            schur_side = tauseries.tau_eval(t, a_vals, b_vals)
            assert det_side == schur_side.truncate_to(det_side.space), (
                f"determinant identity fails at N={N}"
            )
            # p-side and Schur-side assemblies agree at the points too
            other = tauseries.tau_eval_schur_side(t, a_vals, b_vals)
            assert schur_side == other
        return "det route = Schur expansion through z^6, N=1,2,3"

    add("tau.hciz_determinant", hciz)

    def connectivity():
        top = walk_nmax
        t_plain = tauseries.okounkov_tau(top, 4)
        log_plain = tauseries.log_tau(t_plain)
        for n in range(1, top + 1):
            for lam in partitions_of(n):
                transitive = {
                    b: count_walks_all_targets(n, lam, plain(b), transitive=True)
                    for b in range(5)
                }
                for mu in partitions_of(n):
                    series = log_plain.coeff(lam, mu)
                    for b in range(5):
                        got = (
                            series.coeff(q=n, beta=b) if series is not None else Fraction(0)
                        ) * factorial(b) * z_of(mu)
                        want = transitive[b].get(mu, 0)
                        assert got == want, (
                            f"connected plain fails at {lam}->{mu}, b={b}: {got} vs {want}"
                        )
        t_mono = tauseries.monotone_tau(top, 5)
        log_mono = tauseries.log_tau(t_mono)
        for n in range(1, top + 1):
            for lam in partitions_of(n):
                transitive = {
                    k: count_walks_all_targets(
                        n, lam, weakly_monotone(k), transitive=True
                    )
                    for k in range(6)
                }
                for mu in partitions_of(n):
                    series = log_mono.coeff(lam, mu)
                    for k in range(6):
                        got = (
                            series.coeff(q=n, z=k) if series is not None else Fraction(0)
                        ) * z_of(mu)
                        want = transitive[k].get(mu, 0)
                        assert got == want, (
                            f"connected monotone fails at {lam}->{mu}, k={k}"
                        )
        return f"log tau = transitive counts (plain b<=4, monotone k<=5), n<={top}"

    add("tau.log_connectivity", connectivity)

    def log_roundtrip():
        t = tauseries.okounkov_tau(4, 3)
        log = tauseries.log_tau(t)
        back = tauseries.exp_tensor(log, 4)
        assert back == t.tensor, "exp(log tau) != tau"
        return "exp(log tau) = tau to the sheet cap"

    add("tau.exp_log_roundtrip", log_roundtrip)

    def exponent_law():
        from .partitions import content_sum, size as psize

        for N in range(5):
            for n in range(7):
                for lam in partitions_of(n):
                    qe, be = twists.okounkov_exponents(lam, N)
                    assert qe == N * (N - 1) // 2 + psize(lam)
                    assert be == N * (N * N - 1) // 6 + N * psize(lam) + content_sum(lam), (
                        f"beta exponent law fails at {lam}, N={N}"
                    )
        return "q-exponent N(N-1)/2+|lam|; beta-exponent N(N^2-1)/6+N|lam|+cont"

    add("tau.okounkov_exponent_law", exponent_law)

    def multimonotone_reparam():
        rng = random.Random(seed + 9)
        for m in (1, 2):
            us = oracles.random_rationals(rng, m, distinct=True)
            s_val = oracles.random_rationals(rng, 1)[0]
            q_val = Fraction((-1) ** m) * s_val
            for u in us:
                q_val *= u
            ws = [Fraction(-1) / u for u in us]
            for n in range(5):
                for lam in partitions_of(n):
                    direct = s_val ** sum(lam)
                    for u in us:
                        for i, j in cells(lam):
                            direct *= u + i - j
                    reparam = q_val ** sum(lam)
                    for w in ws:
                        for i, j in cells(lam):
                            reparam *= 1 + w * (j - i)
                    if m % 2 == 0:
                        assert direct == reparam, f"even-m reparametrization fails at {lam}"
                    else:
                        assert direct == reparam * Fraction(-1) ** (m * sum(lam) % 2), (
                            f"odd-m sign law fails at {lam}"
                        )
        return "Z-coefficients match the q,w form (exact for even m; odd m flips by (-1)^(m|lam|))"

    add("tau.multimonotone_reparametrization", multimonotone_reparam)

    def multimonotone_table():
        rows = tauseries.hurwitz_table("multi", min(walk_nmax, 5), 4)
        indexed = {
            (r["n"], r["from"], r["to"], tuple(r["steps"]["segments"])): int(r["count"])
            for r in rows
        }
        for n in range(1, min(walk_nmax, 5) + 1):
            for lam in partitions_of(n):
                cache = {}
                for mu in partitions_of(n):
                    for d1 in range(5):
                        for d2 in range(5 - d1):
                            if (d1, d2) not in cache:
                                cache[(d1, d2)] = count_walks_all_targets(
                                    n, lam, multi_monotone([d1, d2])
                                )
                            want = cache[(d1, d2)].get(mu, 0)
                            got = indexed[
                                (n, format_partition(lam), format_partition(mu), (d1, d2))
                            ]
                            assert got == want, (
                                f"multimonotone table fails at {lam}->{mu}, ({d1},{d2})"
                            )
        return f"E*E table = segmented oracle, n<={min(walk_nmax, 5)}, d1+d2<=4"

    add("tau.multimonotone_table", multimonotone_table)

    def alpha_q_report():
        report = build_alpha_q_report(seed)
        for entry in report["cases"]:
            assert isinstance(entry["entrywise_matches_schur_expansion"], bool)
        return "exploratory determinant comparison report generated"

    add("tau.alpha_q_report", alpha_q_report)

    return checks


def build_alpha_q_report(seed: int = 2014) -> dict:
    """The committed exploratory artifact: entrywise-power determinant
    versus the Schur expansion of the alpha-q family, N <= 2, q-cap 5."""
    rng = random.Random(seed + 17)
    cases = []
    for N in (1, 2):
        for alpha in (Fraction(1, 2), Fraction(-3), Fraction(7, 3)):
            a_vals = oracles.random_rationals(rng, N, distinct=True)
            b_vals = oracles.random_rationals(rng, N, distinct=True)
            cases.append(
                tauseries.alpha_q_determinant(N, alpha, a_vals, b_vals, 5)
            )
    all_match = all(c["entrywise_matches_schur_expansion"] for c in cases)
    return {
        "question": (
            "whether det((1 - q a_i b_j))^(alpha-1) should be read as an"
            " entrywise power inside the determinant or as a power of the"
            " whole determinant"
        ),
        "resolution": (
            "entrywise: det((1 - q a_i b_j)^(alpha-1)) / (Delta(a) Delta(b))"
            " reproduces the Schur expansion of the alpha-q family exactly,"
            " including the r_0(N) normalisation, in every tested case;"
            " the whole-determinant reading has no formal-series meaning for"
            " N >= 2 because det(1 - q a_i b_j) has zero constant term"
            if all_match
            else "mismatch observed; see cases"
        ),
        "all_entrywise_match": all_match,
        "cases": cases,
    }


# -- dispatcher -------------------------------------------------------------------

SUITES = ("characters", "center", "walks", "tau", "all")


def run_suite(name: str, nmax: int | None = None, seed: int = 2014) -> list[CheckResult]:
    if name == "characters":
        return characters_suite(nmax=nmax or 6, oracle_nmax=min(nmax or 6, 6), seed=seed)
    if name == "center":
        top = nmax or 6
        return center_suite(
            roundtrip_nmax=max(top, 6),
            idem_nmax=min(top, 6),
            remark_nmax=max(min(top + 1, 7), 4),
            oracle_nmax=min(top, 5),
        )
    if name == "walks":
        return walks_suite(nmax=min(nmax or 5, 5), spot_n6=(nmax or 5) >= 5)
    if name == "tau":
        return tau_suite(nmax=min(nmax or 6, 6), seed=seed, walk_nmax=min(nmax or 5, 5))
    if name == "all":
        out = []
        out.extend(characters_suite(seed=seed))
        out.extend(center_suite())
        out.extend(walks_suite())
        out.extend(tau_suite(seed=seed))
        return out
    raise ValueError(f"unknown suite {name!r}")
