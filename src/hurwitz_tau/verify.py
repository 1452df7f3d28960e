"""Named verification suites behind `hurwitz-tau verify` and the test rig.

A suite is a function of one top size nmax that returns its checks, unrun,
as an ordered list of (name, zero-argument check) pairs; each check runs at
min(nmax, its own ceiling).  run_suite runs them through _run, one
CheckResult each.  Checks favour independent routes: brute-force
enumeration, alternant determinants, explicit group-algebra convolution,
elementary series expansions.  Every comparison is exact (Fraction
arithmetic); "tolerance" everywhere is equality.
"""

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import factorial, prod

from . import center, groupalg, oracles, symfunc, tauseries, twists
from .characters import character, character_table
from .config import CHARTABLE_CAP, DEFAULT_SEED
from .errors import CentralityError
from .groupalg import (
    GroupAlgebraElement,
    Segment,
    WalkQuery,
    class_representative,
    class_sum,
    conjugacy_classes,
    count_walks,
    count_walks_to,
    graded_walks_to,
    jm_power_sum,
    mixed,
    multi_monotone,
    plain,
    plain_count_via_class_dp,
    strictly_monotone,
    weakly_monotone,
)
from .partitions import (
    cells,
    content_sum,
    dimension,
    hook_product,
    partitions_of,
    size,
    z_of,
)
from .series import SeriesSpace, series_json
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


def _require(ok, detail: str) -> None:
    """A check's condition, raised explicitly so that python -O keeps it."""
    if not ok:
        raise AssertionError(detail)


def _seeded_points(seed: int, count: int):
    return oracles.random_rationals(random.Random(seed), count, distinct=True)


# -- characters suite ---------------------------------------------------------

def characters_suite(nmax: int = 8, seed: int = DEFAULT_SEED) -> list:
    top = min(nmax, 6)  # the alternant oracles

    def orthogonality():
        for n in range(nmax + 1):
            character_table(n).validate()
        return f"both orthogonality relations and chi(Id)=n!/h exact, n<={nmax}"

    def dims():
        for n in range(nmax + 1):
            total = sum(dimension(lam) ** 2 for lam in partitions_of(n))
            _require(total == factorial(n), f"sum of dim^2 fails at n={n}")
        return f"sum_lam dim^2 = n! for n<={nmax}"

    def hook_det():
        for n in range(1, nmax + 1):
            for lam in partitions_of(n):
                det = oracles.hook_product_via_determinant(lam)
                _require(det == hook_product(lam), f"hook determinant fails at {lam}")
        return f"h_lam = 1/det(1/(lam_i-i+j)!) for n<={nmax}"

    def alternant_entries():
        for n in range(1, top + 1):
            for mu in partitions_of(n):
                column = oracles.character_via_alternant(mu)
                for lam in partitions_of(n):
                    got, want = character(lam, mu), column[lam]
                    _require(
                        got == want, f"chi_{lam}({mu}): border-strip {got} vs alternant {want}"
                    )
        return f"per-entry alternant coefficient oracle, n<={top}"

    def alternant_ratio_points():
        def first_failure(n, xs):
            """The mu at which P_mu(xs) = sum_lam chi_lam(mu) S_lam(xs) fails,
            or None; one alternant ratio per lam."""
            schur = {lam: oracles.schur_via_alternant(lam, xs) for lam in partitions_of(n)}
            powers = symfunc.powersum_products(xs, n)
            for mu in partitions_of(n):
                rhs = sum(character(lam, mu) * s for lam, s in schur.items())
                if powers[mu] != rhs:
                    return mu
            return None

        for n in range(1, top + 1):
            for trial in range(3):
                mu = first_failure(n, _seeded_points(seed + 101 * n + trial, n))
                _require(mu is None, f"alternant-ratio identity fails at n={n}, {mu}")
            # the 3-variable projection of the same identity
            mu = first_failure(n, _seeded_points(seed + 7 * n, 3))
            _require(mu is None, f"3-variable alternant identity fails at {mu}")
        return f"P_mu = sum chi S_lam at seeded points, n<={top}"

    def row_sums():
        for n in range(1, nmax + 1):
            for lam in partitions_of(n):
                total = sum(
                    Fraction(factorial(n), z_of(mu)) * character(lam, mu)
                    for mu in partitions_of(n)
                )
                expected = factorial(n) if lam == (n,) else 0
                _require(total == expected, f"row sum fails at {lam}")
        return f"sum_mu |C_mu| chi_lam(mu) = n! delta(lam,(n)), n<={nmax}"

    def sym_roundtrip():
        for n in range(nmax + 1):
            for mu in partitions_of(n):
                back = symfunc.s_basis(symfunc.to_schur(symfunc.SymFunc({mu: 1})))
                _require(back.terms == {mu: Fraction(1)}, f"round trip fails at {mu}")
        return f"p -> s -> p round trip, n<={nmax}"

    def cauchy():
        for n in range(nmax + 1):
            for trial in range(3):
                xs = _seeded_points(seed + 13 * n + trial, 3)
                ys = _seeded_points(seed + 31 * n + trial + 1, 3)
                p_side, s_side = symfunc.cauchy_sides(n, xs, ys)
                kernel = oracles.cauchy_kernel_coeff(n, xs, ys)
                _require(p_side == s_side == kernel, f"Cauchy identity fails at n={n}")
        return f"Cauchy-Littlewood degree slices, n<={nmax}, 3 points each"

    def evaluation():
        # every shape with |lam| <= top, the zeros of too many rows included
        shapes = [lam for n in range(top + 1) for lam in partitions_of(n)]
        for m in (1, 2, 3, 5):
            values = symfunc.schur_values([1] * m, top)
            for lam in shapes:
                _require(
                    values.get(lam, 0) == oracles.ssyt_count(lam, m),
                    f"schur_values vs SSYT count fails at {lam}, {m} variables",
                )
        rng = random.Random(seed)
        for _ in range(5):
            xs = oracles.random_rationals(rng, 3, distinct=True)
            values = symfunc.schur_values(xs, top)
            for lam in shapes:
                _require(
                    values.get(lam, 0) == oracles.schur_via_alternant(lam, xs),
                    f"schur_values and alternant Schur evaluations disagree at {lam}",
                )
        return f"schur_values vs SSYT enumeration and alternant ratio, every |lam|<={top}"

    def ring_hom():
        rng = random.Random(seed + 5)
        parts_pool = [lam for n in range(7) for lam in partitions_of(n)]
        for _ in range(10):
            f = symfunc.SymFunc(
                {rng.choice(parts_pool): Fraction(rng.randint(-3, 3)) for _ in range(3)}
            )
            g = symfunc.SymFunc(
                {rng.choice(parts_pool): Fraction(rng.randint(-3, 3)) for _ in range(3)}
            )
            xs = oracles.random_rationals(rng, 3)
            lhs = symfunc.evaluate(symfunc.multiply(f, g), xs)
            rhs = symfunc.evaluate(f, xs) * symfunc.evaluate(g, xs)
            _require(lhs == rhs, "evaluate is not multiplicative")
        return "evaluate(f*g) = evaluate(f)*evaluate(g) on random pairs"

    return [
        ("characters.orthogonality", orthogonality),
        ("characters.dimension_squares", dims),
        ("characters.hook_determinant", hook_det),
        ("characters.alternant_oracle", alternant_entries),
        ("characters.alternant_ratio_points", alternant_ratio_points),
        ("characters.row_sums", row_sums),
        ("characters.basis_roundtrip", sym_roundtrip),
        ("characters.cauchy_littlewood", cauchy),
        ("characters.schur_evaluation", evaluation),
        ("characters.evaluation_ring_hom", ring_hom),
    ]


# -- center suite --------------------------------------------------------------

def center_suite(nmax: int = 8) -> list:
    idem_nmax, remark_nmax, oracle_nmax = min(nmax, 6), min(nmax, 7), min(nmax, 5)

    def roundtrips():
        for n in range(nmax + 1):
            for lam in partitions_of(n):
                back = center.class_to_idem(center.unit_idempotent(n, lam))
                _require(back == {lam: 1}, f"F round trip fails at {lam}")
                w = center.unit_class(n, lam)
                back = center.idem_to_class(n, center.class_to_idem(w))
                _require(back.coords == w.coords, f"C round trip fails at {lam}")
        return f"class <-> idempotent basis round trips, n<={nmax}"

    def idempotency():
        # In integers: X_lam = h_lam F_lam = sum_mu chi_lam(mu) C_mu, read off
        # the basis change, must satisfy X_lam X_nu = delta_{lam nu} h_lam X_lam
        # under the counted class structure constants.
        for n in range(1, idem_nmax + 1):
            parts = partitions_of(n)
            constants = center.class_structure_constants(n)
            hooks = {lam: hook_product(lam) for lam in parts}
            x = {}
            for lam in parts:
                f = center.unit_idempotent(n, lam).coords
                scaled = {mu: c * hooks[lam] for mu, c in f.items()}
                _require(
                    all(c.denominator == 1 for c in scaled.values()),
                    f"h_{lam} F_{lam} is not integral at n={n}",
                )
                x[lam] = {mu: int(c) for mu, c in scaled.items()}
            for lam in parts:
                for nu in parts:
                    product = {}
                    for m1, c1 in x[lam].items():
                        for m2, c2 in x[nu].items():
                            for kappa, s in constants[(m1, m2)].items():
                                product[kappa] = product.get(kappa, 0) + c1 * c2 * s
                    product = {k: v for k, v in product.items() if v}
                    expected = (
                        {mu: hooks[lam] * c for mu, c in x[lam].items()} if lam == nu else {}
                    )
                    _require(product == expected, f"F_{lam} F_{nu} fails at n={n}")
        return f"F idempotency/orthogonality in explicit C[S_n], n<={idem_nmax}"

    def remark_identities():
        for n in range(4, remark_nmax + 1):
            ident = GroupAlgebraElement.unit(n)
            p0 = Fraction(n)
            p1 = jm_power_sum(n, 1)
            p2 = jm_power_sum(n, 2)
            _require(p1 == class_sum(n, (2,) + (1,) * (n - 2)), f"P1 fails at n={n}")
            lhs = p2 - ident.scale(p0 * (p0 - 1) / 2)
            _require(lhs == class_sum(n, (3,) + (1,) * (n - 3)), f"P2 identity fails at n={n}")
            lhs = (p1 * p1).scale(Fraction(1, 2)) - p2.scale(Fraction(3, 2)) + ident.scale(
                p0 * (p0 - 1) / 2
            )
            _require(lhs == class_sum(n, (2, 2) + (1,) * (n - 4)), f"P1^2 identity fails at n={n}")
            c2 = class_sum(n, (2,) + (1,) * (n - 2))
            want = (
                class_sum(n, (3,) + (1,) * (n - 3)).scale(3)
                + class_sum(n, (2, 2) + (1,) * (n - 4)).scale(2)
                + ident.scale(Fraction(n * (n - 1), 2))
            )
            _require(c2 * c2 == want, f"C2*C2 identity fails at n={n}")
        return f"power-sum class expressions and C2*C2 product, 4<=n<={remark_nmax}"

    def centrality():
        for n in range(2, idem_nmax + 1):
            c2 = class_sum(n, (2,) + (1,) * (n - 2))
            for i in range(5):
                p = jm_power_sum(n, i)
                center.project_to_classes(p)  # raises on non-centrality
                _require(p.commutes_with(c2), f"P_{i} does not commute at n={n}")
        # a lone JM element is not central
        try:
            center.project_to_classes(groupalg.jm_element(3, 3))
            raise AssertionError("expected CentralityError for a lone JM element")
        except CentralityError:
            pass
        return f"JM power sums central and commute with C2, n<={idem_nmax}, i<=4"

    def characteristic_consistency():
        for n in range(1, idem_nmax + 1):
            for mu in partitions_of(n):
                via_class = center.characteristic_map(center.unit_class(n, mu))
                # F_lam -> S_lam/h_lam on the idempotent coordinates of C_mu
                idem = center.class_to_idem(center.unit_class(n, mu)).items()
                via_idem = symfunc.s_basis({lam: c / hook_product(lam) for lam, c in idem})
                _require(via_class == via_idem, f"ch basis consistency fails at {mu}")
                schur_form = symfunc.to_schur(via_class)
                table = character_table(n)
                for lam in partitions_of(n):
                    expected = Fraction(table.value(lam, mu), z_of(mu))
                    _require(
                        schur_form.get(lam, 0) == expected,
                        f"ch of C_{mu} has the wrong Schur coefficient at {lam}",
                    )
        return f"characteristic map agrees across bases, n<={idem_nmax}"

    def cut_and_join():
        for n in range(1, idem_nmax + 1):
            c2 = (2,) + (1,) * (n - 2) if n >= 2 else None
            for mu in partitions_of(n):
                f = center.characteristic_map(center.unit_class(n, mu))
                euler = center.euler_operator(f)
                _require(euler == f.scale(n), f"Euler operator fails at {mu}")
                if c2 is None:
                    continue
                lhs = center.cut_and_join_operator(f)
                product = center.center_multiply(
                    center.unit_class(n, c2), center.unit_class(n, mu)
                )
                rhs = center.characteristic_map(product)
                _require(lhs == rhs, f"cut-and-join fails at {mu}")
        return f"cut-and-join = multiplication by C2 under ch, n<={idem_nmax}"

    def multiply_oracle():
        for n in range(1, oracle_nmax + 1):
            for mu in partitions_of(n):
                for nu in partitions_of(n):
                    fast = center.center_multiply(
                        center.unit_class(n, mu), center.unit_class(n, nu)
                    )
                    slow = center.project_to_classes(class_sum(n, mu) * class_sum(n, nu))
                    _require(
                        fast.coords == slow.coords,
                        f"center_multiply vs convolution fails at {mu} * {nu}",
                    )
        return f"diagonalised multiplication = raw convolution, n<={oracle_nmax}"

    return [
        ("center.basis_roundtrips", roundtrips),
        ("center.idempotents", idempotency),
        ("center.jm_class_identities", remark_identities),
        ("center.jm_centrality", centrality),
        ("center.characteristic_map", characteristic_consistency),
        ("center.cut_and_join", cut_and_join),
        ("center.multiply_oracle", multiply_oracle),
    ]


# -- walks suite ---------------------------------------------------------------

def _oracle_counts(kind: str, n: int, cap: int, transitive: bool = False):
    """(lam, mu, step data, read, oracle count) for every class pair of n and
    every step datum of the walk kind of total length <= cap.  Step data
    that differ only in the length of their first segment read one graded
    back-walk per end class, that segment as long as the cap allows."""
    parts = partitions_of(n)
    graded = {}
    for data, (first, *rest), read in tauseries.WALK_KINDS[kind].steps(cap):
        longest = (Segment(first.kind, cap - sum(seg.length for seg in rest)), *rest)
        for mu in parts:
            if (longest, mu) not in graded:
                end = class_representative(mu, n)
                graded[longest, mu] = graded_walks_to(n, end, longest, transitive)
            column = graded[longest, mu][first.length]
            for lam in parts:
                yield lam, mu, data, read, column.get(lam, 0)


def _twist_matches_oracle(kind: str, n: int, cap: int) -> None:
    """Connection coefficients of the walk kind's twist = oracle counts."""
    coeffs = connection_coeffs(tauseries.WALK_KINDS[kind].twist(n, cap), n)
    for lam, mu, data, read, want in _oracle_counts(kind, n, cap):
        got = read(coeffs[(lam, mu)], n)
        _require(got == want, f"{kind} n={n} {lam}->{mu} {data}: twist {got} vs oracle {want}")


def _table_matches_oracle(kind: str, n_max: int, cap: int, connected: bool = False) -> None:
    """Every hurwitz_table row = the oracle count; transitive walks when
    connected, so this checks exactly what `table --connected` prints."""
    rows = tauseries.hurwitz_table(kind, n_max, cap, connected=connected)
    table = {(lam, mu, repr(data)): count for _, lam, mu, data, count in rows}
    for n in range(1, n_max + 1):
        for lam, mu, data, _, want in _oracle_counts(kind, n, cap, connected):
            got = table[(lam, mu, repr(data))]
            _require(got == want, f"{kind} table {lam}->{mu} {data}: {got} vs oracle {want}")


def walks_suite(nmax: int = 6) -> list:
    top = min(nmax, 5)  # the sweeps; the n = 6 spot sweeps run from nmax 6

    def sweep():
        for n in range(1, top + 1):
            for kind, cap in (
                ("plain", 4), ("monotone", 6), ("strict", n - 1),
                ("mixed", 5), ("multi", 5), ("weakstrict", 4),
            ):
                _twist_matches_oracle(kind, n, cap)
        return f"all families, all pairs, n<={top}"

    def spot():
        for kind, cap in (("monotone", 4), ("strict", 3), ("plain", 3)):
            _twist_matches_oracle(kind, 6, cap)
        return "full n=6 sweeps: plain k<=3, weak k<=4, strict k<=3, all pairs"

    def symmetry():
        # the walks' product in C[S_n] is a polynomial in the JM elements, so
        # inversion fixes it: D(lam, mu) Z_lam = D(mu, lam) Z_mu on the counts
        for n in range(1, top + 1):
            parts = partitions_of(n)
            by_data = {}  # repr(step data) -> (step data, {(lam, mu): D(lam, mu)})
            for lam, mu, data, _, count in _oracle_counts("weakstrict", n, 3):
                by_data.setdefault(repr(data), (data, {}))[1][lam, mu] = count
            for data, d in by_data.values():
                for i, lam in enumerate(parts):
                    for mu in parts[:i]:
                        if d[lam, mu] * z_of(lam) != d[mu, lam] * z_of(mu):
                            raise AssertionError(f"symmetry fails at n={n}, {lam}->{mu} {data}")
        return "Z_lam D(lam,mu) = Z_mu D(mu,lam) on H*E oracle counts, k+l<=3, n<=5"

    def composition():
        # each matrix in its own space: [z^a w^b] G(H*E) = sum [z^a] G(H) [w^b] G(E)
        n, cap, parts = 4, 3, partitions_of(4)
        joint = connection_coeffs(twist((H("z"), E("w")), cap), n)
        mat_h = connection_coeffs(twist((H("z"),), cap), n)
        mat_e = connection_coeffs(twist((E("w"),), cap), n)
        for lam in parts:
            for mu in parts:
                total = {}
                for kap in parts:
                    for (a,), x in mat_h[lam, kap].terms.items():
                        for (b,), y in mat_e[kap, mu].terms.items():
                            total[a, b] = total.get((a, b), 0) + x * y
                _require({e: c for e, c in total.items() if c} == joint[lam, mu].terms,
                         f"composition fails at {lam}->{mu}")
        return "G(H*E) = G(H) G(E) as matrices in the class basis, n=4"

    def class_dp():
        for n in range(1, top + 1):
            for mu in partitions_of(n):
                for k in range(5):
                    column = count_walks_to(n, class_representative(mu, n), plain(k))
                    for lam in partitions_of(n):
                        dp = plain_count_via_class_dp(n, lam, mu, k)
                        _require(
                            dp == column.get(lam, 0), f"class DP disagrees at {lam}->{mu}, k={k}"
                        )
        return "plain counts equal the class-matrix DP"

    def representative_independence():
        for n in range(2, top + 1):
            for mu, members in conjugacy_classes(n).items():
                first = count_walks_to(n, members[0], weakly_monotone(3))
                last = count_walks_to(n, members[-1], weakly_monotone(3))
                _require(first == last, f"counts depend on the representative of {mu}")
        return "counts independent of the target representative (two samples)"

    def degenerations():
        n = 4
        for lam in partitions_of(n):
            for mu in partitions_of(n):

                def count(segments):
                    return count_walks(WalkQuery(n, lam, mu, segments))

                _require(
                    count(multi_monotone([3])) == count(strictly_monotone(3)),
                    f"multi(1 segment) != strict at {lam}->{mu}",
                )
                _require(
                    count(mixed(4, 4)) == count(weakly_monotone(4)),
                    f"mixed(p=k) != weak at {lam}->{mu}",
                )
                _require(
                    count(mixed(0, 3)) == count(plain(3)), f"mixed(p=0) != plain at {lam}->{mu}"
                )
                _require(
                    count(strictly_monotone(n)) == 0,
                    f"strict walks of length n do not vanish at {lam}->{mu}",
                )
        return "multi(1 segment)=strict, mixed(p=k)=weak, mixed(0)=plain, strict(n)=0"

    def element_level_twist():
        for n in range(1, 5):
            cap = 3
            spec = twist((H("z"),), (cap,))
            h_parts = _complete_jm(n, cap)
            for lam in partitions_of(n):
                twisted = twists.apply_twist(spec, center.unit_class(n, lam))
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
                        _require(
                            got_k == slow.get(mu, Fraction(0)),
                            f"element-level twist fails at n={n}, {lam}->{mu}, z^{k}",
                        )
        return "apply_twist = multiplication by truncated H(z, J) in C[S_n], n<=4"

    return [
        ("walks.twist_vs_oracle", sweep),
        *([("walks.n6_spot_checks", spot)] if nmax >= 6 else []),
        ("walks.symmetry", symmetry),
        ("walks.composition", composition),
        ("walks.plain_class_dp", class_dp),
        ("walks.representative_independence", representative_independence),
        ("walks.degenerations", degenerations),
        ("walks.element_level_twist", element_level_twist),
    ]


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

# walk kind -> series cap of its twist in tau.twisted_cauchy (None: the sheet n)
TWIST_FAMILIES = {"plain": 4, "monotone": 5, "strict": None, "weakstrict": 4, "multi": 4}


def tau_suite(nmax: int = 8, seed: int = DEFAULT_SEED) -> list:
    # the Cauchy checks at n <= 6, the walk tables at n <= 5 and the
    # intertwining theorem at n <= 8 (its walk kinds at n <= 6)
    cauchy_nmax, walk_nmax, intertwining_nmax = min(nmax, 6), min(nmax, 5), min(nmax, 8)

    def twisted_cauchy():
        # p and S tables at two 3-variable random points, drawn once per n
        tables = {}
        for n in range(cauchy_nmax + 1):
            rng = random.Random(seed + n)
            xs, ys = oracles.random_rationals(rng, 3), oracles.random_rationals(rng, 3)
            tables[n] = (symfunc.powersum_products(xs, n), symfunc.powersum_products(ys, n),
                         symfunc.schur_values(xs, n), symfunc.schur_values(ys, n))
        for kind, cap in TWIST_FAMILIES.items():
            walk = tauseries.WALK_KINDS[kind]
            for n in range(cauchy_nmax + 1):
                spec = walk.twist(n, n if cap is None else cap)
                space = spec.space()
                parts = partitions_of(n)
                coeffs = connection_coeffs(spec, n)
                # route B: diagonal multiplication via the idempotent basis
                for lam in parts:
                    twisted = twists.apply_twist(spec, center.unit_class(n, lam))
                    for mu in parts:
                        got = twisted.coeff(mu)
                        if not got:
                            got = space.zero()
                        _require(
                            got == coeffs[(lam, mu)],
                            f"{walk.label}: matrix route disagrees at n={n}, {lam}->{mu}",
                        )
                # random-point identity with 3 variables per side
                px, py, sx, sy = tables[n]
                lhs = space.zero()
                for lam in parts:
                    for mu in parts:
                        weight = px[lam] * py[mu] * Fraction(1, z_of(mu))
                        if weight:
                            lhs = lhs + coeffs[(lam, mu)] * weight
                rhs = space.zero()
                for nu in parts:
                    weight = sx.get(nu, 0) * sy.get(nu, 0)
                    if weight:
                        rhs = rhs + twists.twist_eigenvalue(spec, nu) * weight
                _require(lhs == rhs, f"{walk.label}: point identity fails at n={n}")
        return f"corrected twisted Cauchy identity, all families, n<={cauchy_nmax}"

    def vacuum():
        rng = random.Random(seed)
        xs = oracles.random_rationals(rng, 2)
        ys = oracles.random_rationals(rng, 2)
        kernel = sum(oracles.cauchy_kernel_coeff(n, xs, ys) for n in range(cauchy_nmax + 1))
        value = tauseries.tau_eval(tauseries.vacuum_tau(cauchy_nmax), xs, ys).constant_term()
        _require(value == kernel, "vacuum tau disagrees with the Cauchy kernel")
        return "vacuum tau = Cauchy kernel degree slices"

    def intertwining():
        top = min(intertwining_nmax, 6)
        h_twists = (twist((H("z"),), 8), twist((H("z1"), H("z2")), 6))
        cases = [(spec, intertwining_nmax) for spec in h_twists]
        cases += [(walk.twist(top, 3), top) for walk in tauseries.WALK_KINDS.values()]
        for spec, n_top in cases:
            conv = twists.TwistConvolution(spec)
            q = spec.q_param()
            for n in range(n_top + 1):
                for lam in partitions_of(n):
                    got = conv.r_lambda(lam, 0)
                    got = got if q is None else got.shift_up(q, n)  # q^|lam|
                    _require(got == twist_eigenvalue(spec, lam), f"intertwining fails at {lam}")
        # the second method: each graded family's fermionic determinant
        rng = random.Random(seed + 5)
        graded = [((H("z"),), 3), ((H("z1"), H("z2")), 2)]
        for atoms, n_points in graded + [(w.atoms, 2) for w in tauseries.WALK_KINDS.values()]:
            for N in range(1, n_points + 1):
                view = twists.twist_at_points(atoms, N, 3)
                a, b = (oracles.random_rationals(rng, N, distinct=True) for _ in "ab")
                det = tauseries.family_determinant(view.rho, N, a, b, view.space, view.pivot)
                _require(det == tauseries.tau_at_points(view.space, 3, view.r_of, a, b),
                         f"determinant route fails at N={N} for {atoms}")
        return ("det route = Schur side at cap 3 for H (N<=3), H*H and every walk kind (N<=2);"
                f" r_lambda(0) q^|lam| = content-product eigenvalue, every walk kind at cap 3"
                f" with |lam|<={top}, H and H*H with |lam|<={intertwining_nmax}")

    def alpha_q_branches():
        # the family at N points (tauseries.alpha_q_family) against the
        # closed form, its zeros past N rows included
        for alpha in (Fraction(1, 2), Fraction(-3), Fraction(7, 3)):
            for N in range(6):
                view = tauseries.alpha_q_family(alpha, N, 6)
                for n in range(7):
                    for lam in partitions_of(n):
                        closed = twists.alpha_q_coeff(lam, view.family, N)
                        _require(view.r_of(lam) == closed,
                                 f"alpha-q branches disagree at {lam}, N={N}, alpha={alpha}")
        return "branch r_lambda = r0 q^|lam| (N-a)_lam/(N)_lam, |lam|<=6, N<=5"

    def hciz():
        rng = random.Random(seed + 3)
        for N in (1, 2, 3):
            a_vals = oracles.random_rationals(rng, N, distinct=True)
            b_vals = oracles.random_rationals(rng, N, distinct=True)
            # the closed form reads no r_j; the determinant and the view do
            view = tauseries.hciz_family(N, 6)
            closed = twists.ExpConvolution(N, view.printed_space).schur_expansion_r_lambda
            t = tauseries.TauSeries(view.printed_space, 6, closed)
            det_side = tauseries.hciz_determinant(N, a_vals, b_vals, 6)
            schur_side = tauseries.tau_eval(t, a_vals, b_vals)
            _require(det_side == schur_side, f"determinant identity fails at N={N}")
            # p-side and Schur-side assemblies agree at the points too, and
            # so does the Schur-diagonal route the tau command prints
            other = tauseries.tau_eval_schur_side(t, a_vals, b_vals)
            _require(schur_side == other, f"p-side and Schur-side evaluations disagree at N={N}")
            diagonal = view.printed(tauseries.tau_at_points(view.space, 6, view.r_of, a_vals, b_vals))
            _require(diagonal == schur_side, f"Schur-diagonal evaluation disagrees at N={N}")
        return "det route = Schur expansion through z^6, N=1,2,3"

    def connectivity():
        _table_matches_oracle("plain", walk_nmax, 4, connected=True)
        _table_matches_oracle("monotone", walk_nmax, 5, connected=True)
        return f"log tau = transitive counts (plain b<=4, monotone k<=5), n<={walk_nmax}"

    def log_roundtrip():
        t = tauseries.okounkov_tau(4, 3)
        log = tauseries.log_tau(t)
        back = tauseries.exp_tensor(log, 4)
        _require(back == t.tensor, "exp(log tau) != tau")
        return "exp(log tau) = tau to the sheet cap"

    def exponent_law():
        # the plain twist's r_lam(N) = e^{E beta} reads 1 + E beta at beta cap 1
        conv = twists.TwistConvolution(twist((Exp("q", "beta"),), (0, 1)))
        for N in range(5):
            for n in range(7):
                for lam in partitions_of(n):
                    _require(
                        conv.r_lambda(lam, N).coeff(beta=1)
                        == N * (N * N - 1) // 6 + N * size(lam) + content_sum(lam),
                        f"beta exponent law fails at {lam}, N={N}",
                    )
        return "beta-exponent N(N^2-1)/6+N|lam|+cont"

    def multimonotone_reparam():
        rng = random.Random(seed + 9)
        for m in (1, 2):
            us = oracles.random_rationals(rng, m, distinct=True)
            s_val = oracles.random_rationals(rng, 1)[0]
            q_val = Fraction((-1) ** m) * s_val
            for u in us:
                q_val *= u
            ws = [Fraction(-1) / u for u in us]
            spec = twist([E(f"w{a}") for a in range(1, m + 1)], 4)
            for n in range(5):
                for lam in partitions_of(n):
                    direct = s_val ** sum(lam)
                    for u in us:
                        for i, j in cells(lam):
                            direct *= u + i - j
                    # the library's E(w_1)...E(w_m) eigenvalue at w_alpha = -1/u_alpha
                    eig = twist_eigenvalue(spec, lam).terms.items()
                    reparam = q_val ** sum(lam) * sum(c * prod(map(pow, ws, e)) for e, c in eig)
                    if m % 2 == 0:
                        _require(direct == reparam, f"even-m reparametrization fails at {lam}")
                    else:
                        _require(
                            direct == reparam * Fraction(-1) ** (m * sum(lam) % 2),
                            f"odd-m sign law fails at {lam}",
                        )
        return "Z-coefficients match the q,w form (exact for even m; odd m flips by (-1)^(m|lam|))"

    def multimonotone_table():
        _table_matches_oracle("multi", walk_nmax, 4)
        return f"E*E table = segmented oracle, n<={walk_nmax}, d1+d2<=4"

    def alpha_q_report():
        report = build_alpha_q_report(seed)
        _require(
            report["all_entrywise_match"],
            "the entrywise determinant misses the Schur expansion in some case",
        )
        for case in report["cases"]:  # both sides read r_j; the closed form does not
            fam = twists.AlphaQConvolution(Fraction(case["alpha"]), SeriesSpace(("q",), (5,)))
            r_of = partial(twists.alpha_q_coeff, family=fam, N=case["N"])
            a, b = ([Fraction(x) for x in case[k]] for k in "ab")
            closed = tauseries.tau_at_points(fam.space, 5, r_of, a, b)
            _require(series_json(closed) == case["schur_expansion"], "the closed form disagrees")
        return "exploratory determinant comparison report generated"

    return [
        ("tau.twisted_cauchy", twisted_cauchy),
        ("tau.vacuum_cauchy", vacuum),
        ("tau.intertwining_theorem", intertwining),
        ("tau.alpha_q_family", alpha_q_branches),
        ("tau.hciz_determinant", hciz),
        ("tau.log_connectivity", connectivity),
        ("tau.exp_log_roundtrip", log_roundtrip),
        ("tau.okounkov_exponent_law", exponent_law),
        ("tau.multimonotone_reparametrization", multimonotone_reparam),
        ("tau.multimonotone_table", multimonotone_table),
        ("tau.alpha_q_report", alpha_q_report),
    ]


def build_alpha_q_report(seed: int = DEFAULT_SEED) -> dict:
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


def run_suite(name: str, nmax: int | None = None, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run one named suite at top size nmax (>= 1; None: its part of
    "all"), each check at min(nmax, its ceiling); "all" runs the four
    suites at their defaults."""
    if nmax is not None and nmax < 1:
        raise ValueError(f"nmax must be >= 1, got {nmax}")
    if name in ("characters", "center") and nmax is not None and nmax > CHARTABLE_CAP:
        raise ValueError(f"the {name} suite needs character tables, capped at n <= {CHARTABLE_CAP}")
    suites = {
        "characters": partial(characters_suite, seed=seed),
        "center": center_suite,
        "walks": walks_suite,
        "tau": partial(tau_suite, seed=seed),
    }
    if name == "all":
        if nmax is not None:
            raise ValueError("the all suite runs its default sizes and takes no nmax")
        checks = [check for suite in suites.values() for check in suite()]
    elif name in suites:
        checks = suites[name]() if nmax is None else suites[name](nmax)
    else:
        raise ValueError(f"unknown suite {name!r}")
    return [_run(check_name, fn) for check_name, fn in checks]
