"""The benchmark's seeded workloads: the op set each seed sends, and the
independent routes their results are checked against.

An op set is a fixed mix of op cells (kind and input sizes), so every seed
costs about the same work; the seed draws every input that is free within a
cell (start and end classes, step splits, rational points, alpha).  A run
sends its op set several times, each time in a fresh seeded order.

Checks run after the timed region and use the library's independent routes
(the walk oracle, the class-vector DP, the Schur side of the Cauchy identity,
exp of the connected series), never the route the op itself took.
"""

import json
import random
from fractions import Fraction
from math import factorial
from pathlib import Path

from hurwitz_tau import tauseries
from hurwitz_tau.groupalg import (
    count_walks_all_targets,
    mixed,
    multi_monotone,
    plain,
    plain_count_via_class_dp,
    strictly_monotone,
    weak_then_strict,
    weakly_monotone,
)
from hurwitz_tau.partitions import (
    class_size,
    format_partition,
    parse_partition,
    partitions_of,
    z_of,
)
from hurwitz_tau.series import SeriesSpace, TruncSeries
from hurwitz_tau.symfunc import TensorSymFunc
from hurwitz_tau.twists import E, Exp, H, connection_coeffs, symmetry_check, twist

GOLDEN_ARGV = ("table", "--family", "multi", "--nmax", "5", "--kmax", "4")


def seeded(workload: str, seed: int, purpose) -> random.Random:
    return random.Random(f"{workload}/{seed}/{purpose}")


def draw_class(rng, n):
    """A cycle type of S_n with probability proportional to its class size."""
    parts = partitions_of(n)
    return rng.choices(parts, weights=[class_size(p) for p in parts])[0]


def draw_classes(rng, n, count):
    """count cycle types of S_n, each drawn with probability proportional to
    its class size, by systematic sampling: every seed gets nearly the same
    mix of classes, in its own random order."""
    parts = partitions_of(n)
    sizes = [class_size(p) for p in parts]
    step = sum(sizes) / count
    position, covered, i, out = rng.random() * step, 0, 0, []
    for _ in range(count):
        while covered + sizes[i] <= position:
            covered += sizes[i]
            i += 1
        out.append(parts[i])
        position += step
    rng.shuffle(out)
    return out


def draw_points(rng, count):
    """Distinct nonzero rationals p/q with 1 <= p, q <= 9 and a random sign."""
    out = []
    while len(out) < count:
        value = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))
        if value not in out:
            out.append(value)
    return out


def fractions_arg(values):
    return ",".join(str(v) for v in values)


def options(argv) -> dict:
    """{"--n": "7", "--transitive": True, ...} from a CLI argv; values may
    follow their flag or be joined to it with "=" (needed when they start
    with a minus sign)."""
    opts, flag = {}, None
    for token in argv[1:]:
        if token.startswith("--"):
            flag, _, value = token.partition("=")
            opts[flag] = value or True
            if value:
                flag = None
        elif flag is not None:
            opts[flag], flag = token, None
    return opts


def parse_series(params, payload) -> dict:
    """Invert cli.series_json: {"q^6 beta^2": "3/4"} -> {(6, 2): Fraction}."""
    out = {}
    for label, value in payload.items():
        exps = [0] * len(params)
        if label != "1":
            for bit in label.split():
                name, power = bit.split("^")
                exps[params.index(name)] = int(power)
        out[tuple(exps)] = Fraction(value)
    return out


# -- coeffs --------------------------------------------------------------------

LIGHT_TWISTS = ("exp", "monotone", "strict")  # one step parameter: beta, z or w
HEAVY_TWISTS = ("mixed", "weakstrict", "multi")  # two step parameters
COEFF_TABLES = (("okounkov", 7), ("monotone", 6), ("strict", 6), ("mixed", 5))


def coeffs_ops(rng):
    """gmatrix for the light twists at n = 6, 7 with caps 4..6 and at n = 8
    with cap 5, for the heavy twists at n = 6 with caps 4 and 6 and at n = 7
    with cap 4; one table per family, nmax 5..7, the multi one being the
    table with a committed golden.  The heavy twists at n = 8 (one to two
    seconds an op) are left out so that a run has room for four passes.  No
    input is left free, so the seed only orders the passes."""
    cells = [(name, n, cap) for name in LIGHT_TWISTS for n in (6, 7) for cap in (4, 5, 6)]
    cells += [(name, 8, 5) for name in LIGHT_TWISTS]
    cells += [(name, 6, cap) for name in HEAVY_TWISTS for cap in (4, 6)]
    cells += [(name, 7, 4) for name in HEAVY_TWISTS]
    ops = [("gmatrix", "--n", str(n), "--twist", name, "--cap", str(cap)) for name, n, cap in cells]
    ops += [
        ("table", "--family", family, "--nmax", str(nmax), "--kmax", "4")
        for family, nmax in COEFF_TABLES
    ]
    ops.append(GOLDEN_ARGV)
    return ops


def table_segments(kind, steps):
    if kind in ("okounkov", "plain"):
        return plain(steps["b"])
    if kind == "monotone":
        return weakly_monotone(steps["k"])
    if kind == "strict":
        return strictly_monotone(steps["k"])
    if kind == "mixed":
        return mixed(steps["p"], steps["k"])
    return multi_monotone(steps["segments"])


def gmatrix_sample(rng, name, n, cap, max_steps):
    """(segments, exponents, factor): the walk family one coefficient of
    the named CLI twist counts, with at most max_steps steps."""
    top = min(cap, max_steps)
    if name == "exp":
        b = rng.randint(0, top)
        return plain(b), (n, b), factorial(b)
    if name == "monotone":
        k = rng.randint(0, top)
        return weakly_monotone(k), (k,), 1
    if name == "strict":
        k = rng.randint(0, top)
        return strictly_monotone(k), (k,), 1
    k = rng.randint(0, top)
    first = rng.randint(0, k)
    if name == "mixed":
        return mixed(first, k), (n, k - first, first), factorial(k - first)
    if name == "weakstrict":
        return weak_then_strict(first, k - first), (first, k - first), 1
    return multi_monotone([first, k - first]), (first, k - first), 1


GMATRIX_PARAMS = {
    "exp": ("q", "beta"),
    "monotone": ("z",),
    "strict": ("w",),
    "mixed": ("q", "beta", "z"),
    "weakstrict": ("z", "w"),
    "multi": ("w1", "w2"),
}


class Memo:
    """Independent-route results, shared by one run's checks."""

    def __init__(self):
        self.memo = {}

    def get(self, key, compute):
        if key not in self.memo:
            self.memo[key] = compute()
        return self.memo[key]

    def walks(self, n, lam, segments):
        return self.get(("walks", n, lam, segments),
                        lambda: count_walks_all_targets(n, lam, segments))


class CoeffsChecker:
    """gmatrix: sampled coefficients against the walk oracle (n <= 7) and
    the Z-symmetry of the whole matrix; table: every row with n <= 4 and
    sampled rows with n = 5, 6 against the walk oracle, and the multi table
    against its golden."""

    def __init__(self, root: Path, rng):
        self.rng = rng
        self.memo = Memo()
        self.golden = json.loads(
            (root / "tests" / "goldens" / "multimonotone_table.json").read_text()
        )

    def check(self, argv, out):
        opts = options(argv)
        if argv[0] == "gmatrix":
            n, cap = int(opts["--n"]), int(opts["--cap"])
            return self.check_gmatrix(n, opts["--twist"], cap, json.loads(out))
        return self.check_table(argv, opts["--family"], json.loads(out))

    def check_gmatrix(self, n, name, cap, payload):
        params = GMATRIX_PARAMS[name]
        caps = (n, cap, cap)[: len(params)] if params[0] == "q" else (cap,) * len(params)
        space = SeriesSpace(params, caps)
        parts = partitions_of(n)
        coeffs = {(lam, mu): space.zero() for lam in parts for mu in parts}
        for entry in payload["entries"]:
            key = (parse_partition(entry["from"]), parse_partition(entry["to"]))
            coeffs[key] = TruncSeries(space, parse_series(params, entry["series"]))
        if not symmetry_check(coeffs, n):
            return "Z-symmetry of the connection coefficients fails"
        if n > 7:
            return None
        for _ in range(2 if n <= 6 else 1):
            lam = draw_class(self.rng, n)
            segments, exps, factor = gmatrix_sample(self.rng, name, n, cap, 4 if n <= 6 else 3)
            counts = self.memo.walks(n, lam, segments)
            for mu in parts:
                got = coeffs[(lam, mu)].terms.get(exps, 0) * factor
                if got != counts.get(mu, 0):
                    return f"{lam}->{mu} {segments}: twist {got} vs oracle {counts.get(mu, 0)}"
        return None

    def check_table(self, argv, kind, rows):
        if tuple(argv) == GOLDEN_ARGV and rows != self.golden:
            return "multi table differs from tests/goldens/multimonotone_table.json"
        index = {}
        for row in rows:
            key = (row["n"], row["from"], json.dumps(row["steps"], sort_keys=True))
            index.setdefault(key, {})[row["to"]] = int(row["count"])
        every = [key for key in index if key[0] <= 4]
        sampled = self.rng.sample([key for key in index if 5 <= key[0] <= 6], 3)
        for n, start, steps in every + sampled:
            counts = self.memo.walks(
                n, parse_partition(start), table_segments(kind, json.loads(steps))
            )
            for mu in partitions_of(n):
                got = index[(n, start, steps)][format_partition(mu)]
                if got != counts.get(mu, 0):
                    return f"{start}->{mu} {steps}: table {got} vs oracle {counts.get(mu, 0)}"
        return None


# -- walks ---------------------------------------------------------------------

WALK_KINDS = ("plain", "monotone", "strict", "mixed", "multi")
TRANSITIVE_CELLS = (("plain", 5, 4), ("plain", 6, 3), ("monotone", 5, 3), ("monotone", 6, 4))


def walks_ops(rng):
    """Every kind six times at n = 6 with k = 2, 3, 4 and at n = 7
    with k = 2, plus four transitive walks at n = 5, 6 (plain and monotone,
    the kinds whose connected counts the formal log is known to give);
    start and end classes drawn by class size.  The thirty n = 7 walks are
    the costliest ops, so the tail rank falls among them.  Longer walks at
    n = 7 (up to a second an op, and the most sensitive to other tenants'
    memory traffic) are left out so that a run has room for two passes
    at least.

    An op's cost grows with the size of its start class, so the drawn
    start classes are sorted by size into six bands and each (kind, k)
    cell takes one from each band; the splits of mixed and multi walks
    step through 0..k from a drawn offset.  Every seed then sends nearly
    the same mix of costs, in other inputs."""
    ops = []
    for n, ks, copies in ((6, (2, 3, 4), 6), (7, (2,), 6)):
        cells = [(kind, k) for kind in WALK_KINDS for k in ks]
        offsets = [rng.randint(0, k) for _, k in cells]
        starts = sorted(draw_classes(rng, n, copies * len(cells)), key=class_size)
        for band in range(copies):
            chosen = starts[band * len(cells):(band + 1) * len(cells)]
            rng.shuffle(chosen)
            for (kind, k), offset, start in zip(cells, offsets, chosen):
                ops.append(walk_argv(rng, kind, n, k, start, (offset + band) % (k + 1)))
    for kind, n, k in TRANSITIVE_CELLS:
        argv = walk_argv(rng, kind, n, k, draw_class(rng, n), rng.randint(0, k))
        ops.append(argv + ("--transitive",))
    return ops


def walk_argv(rng, kind, n, k, start, split):
    argv = (
        "walks", "--n", str(n),
        "--from", format_partition(start),
        "--to", format_partition(draw_class(rng, n)),
        "--kind", kind, "--steps", str(k),
    )
    if kind == "mixed":
        argv += ("--p", str(split))
    if kind == "multi":
        argv += ("--segments", f"{split},{k - split}")
    return argv


WALK_TWISTS = {
    "plain": lambda n: twist((Exp("q", "beta"),), (n, 4)),
    "monotone": lambda n: twist((H("z"),), (4,)),
    "strict": lambda n: twist((E("w"),), (4,)),
    "mixed": lambda n: twist((Exp("q", "beta"), H("z")), (n, 4, 4)),
    "multi": lambda n: twist((E("w1"), E("w2")), (4, 4)),
}


class WalksChecker:
    """Every count against the twist coefficient from connection_coeffs;
    plain counts also against the class-vector DP; transitive counts against
    the formal log of the tau series."""

    def __init__(self, root: Path, rng):
        self.memo = Memo()

    def check(self, argv, out):
        opts = options(argv)
        n, k, kind = int(opts["--n"]), int(opts["--steps"]), opts["--kind"]
        lam, mu = parse_partition(opts["--from"]), parse_partition(opts["--to"])
        got = int(json.loads(out.splitlines()[1])["count"])
        if "--transitive" in opts:
            want = self.connected(kind, n, lam, mu, k)
            return None if got == want else f"transitive {got} vs log tau {want}"
        coeffs = self.memo.get(("twist", kind, n),
                                  lambda: connection_coeffs(WALK_TWISTS[kind](n), n))
        series = coeffs[(lam, mu)]
        if kind == "plain":
            want = series.coeff(q=n, beta=k) * factorial(k)
            if plain_count_via_class_dp(n, lam, mu, k) != got:
                return f"plain {got} vs class DP {plain_count_via_class_dp(n, lam, mu, k)}"
        elif kind in ("monotone", "strict"):
            want = series.terms.get((k,), 0)
        elif kind == "mixed":
            p = int(opts["--p"])
            want = series.coeff(q=n, beta=k - p, z=p) * factorial(k - p)
        else:
            d1, d2 = (int(x) for x in opts["--segments"].split(","))
            want = series.coeff(w1=d1, w2=d2)
        return None if got == want else f"walk count {got} vs twist coefficient {want}"

    def connected(self, kind, n, lam, mu, k):
        if kind == "plain":
            log = self.memo.get(("log", kind, n),
                                   lambda: tauseries.log_tau(tauseries.okounkov_tau(n, 4)))
            series = log.coeff(lam, mu)
            value = series.coeff(q=n, beta=k) * factorial(k) if series is not None else 0
        else:
            log = self.memo.get(("log", kind, n),
                                   lambda: tauseries.log_tau(tauseries.monotone_tau(n, 4)))
            series = log.coeff(lam, mu)
            value = series.coeff(q=n, z=k) if series is not None else 0
        return value * z_of(mu)


# -- tau_points ------------------------------------------------------------------

CONNECTED_TABLES = tuple((family, nmax) for family in ("okounkov", "monotone") for nmax in (6, 7))


def tau_points_ops(rng):
    """hciz at N = 1..3 and alpha_q at N = 1..4 with caps 5..8 at seeded
    points; the connected (formal log) tables at nmax 6, 7 (nmax 8 takes a
    second an op and would leave room for few passes).

    hciz stops at N = 3 because its determinant check fails at N = 4 in the
    library as it stands (the top z coefficient differs: the Bareiss route
    in hciz_determinant runs one guard degree short); alpha_q covers N = 4.
    Add hciz N = 4 to this op set in the change that fixes the guard
    degree, so the benchmark shows both the fix and the cost of the extra
    degree."""
    ops = []
    for cap in (5, 6, 7, 8):
        for N in (1, 2, 3):
            ops.append((
                "tau", "--family", "hciz", "--N", str(N),
                "--a=" + fractions_arg(draw_points(rng, N)),
                "--b=" + fractions_arg(draw_points(rng, N)),
                "--zcap", str(cap), "--check-determinant",
            ))
        for N in (1, 2, 3, 4):
            ops.append((
                "tau", "--family", "alpha_q", "--N", str(N), "--alpha=" + str(draw_alpha(rng)),
                "--a=" + fractions_arg(draw_points(rng, N)),
                "--b=" + fractions_arg(draw_points(rng, N)),
                "--qcap", str(cap), "--check-determinant",
            ))
    ops += [
        ("table", "--family", family, "--nmax", str(nmax), "--kmax", "4", "--connected")
        for family, nmax in CONNECTED_TABLES
    ]
    return ops


def draw_alpha(rng):
    """A rational alpha that is not a positive integer."""
    while True:
        alpha = Fraction(rng.randint(-9, 9), rng.randint(2, 5))
        if not (alpha.denominator == 1 and alpha >= 1):
            return alpha


class TauPointsChecker:
    """hciz: the determinant flag, and the power-sum evaluation against the
    Schur side; alpha_q: the entrywise-determinant flag, and the Schur
    expansion against the Schur side; connected tables: exp of the printed
    connected counts must give tau back."""

    def __init__(self, root: Path, rng):
        self.memo = Memo()

    def check(self, argv, out):
        payload = json.loads(out)
        opts = options(argv)
        if argv[0] == "table":
            nmax, cap = int(opts["--nmax"]), int(opts["--kmax"])
            return self.check_connected(opts["--family"], nmax, cap, payload)
        N = int(opts["--N"])
        a = [Fraction(x) for x in opts["--a"].split(",")]
        b = [Fraction(x) for x in opts["--b"].split(",")]
        if opts["--family"] == "hciz":
            cap = int(opts["--zcap"])
            if payload.get("determinant_matches") is not True:
                return "determinant_matches is not true"
            t = self.memo.get(("hciz", N, cap), lambda: tauseries.hciz_tau(N, cap, cap))
            want = tauseries.tau_eval_schur_side(t, a, b).terms
            if parse_series(("z",), payload["series"]) != want:
                return "tau_eval differs from tau_eval_schur_side"
            return None
        cap, alpha = int(opts["--qcap"]), Fraction(opts["--alpha"])
        if payload.get("entrywise_matches_schur_expansion") is not True:
            return "entrywise_matches_schur_expansion is not true"
        n_max = min(cap, tauseries.TAU_NMAX_CAP)
        t = self.memo.get(("alpha_q", alpha, N, cap),
                             lambda: tauseries.alpha_q_tau(alpha, N, n_max, cap + N))
        want = tauseries.tau_eval_schur_side(t, a, b)
        want = want.truncate_to(SeriesSpace(("q",), (min(cap, n_max),))).terms
        if parse_series(("q",), payload["schur_expansion"]) != want:
            return "schur_expansion differs from tau_eval_schur_side"
        return None

    def check_connected(self, family, nmax, cap, rows):
        """Rebuild the log series from the printed counts and take exp."""
        if family == "okounkov":
            tau, axis, steps = tauseries.okounkov_tau(nmax, cap), "beta", "b"
        else:
            tau, axis, steps = tauseries.monotone_tau(nmax, cap), "z", "k"
        space = tau.space
        terms = {}
        for row in rows:
            lam, mu = parse_partition(row["from"]), parse_partition(row["to"])
            e = row["steps"][steps]
            denom = z_of(mu) * (factorial(e) if axis == "beta" else 1)
            exps = space.exponents(q=row["n"], **{axis: e})
            terms.setdefault((lam, mu), {})[exps] = Fraction(int(row["count"]), denom)
        log = TensorSymFunc({key: TruncSeries(space, value) for key, value in terms.items()})
        if tauseries.exp_tensor(log, nmax) != tau.tensor:
            return "exp of the connected table is not tau"
        return None


# -- registry --------------------------------------------------------------------

def verify_all_ops(rng):
    """One run of the whole verify suite, 36 checks."""
    return [("verify", "all", rng.randrange(2**31))]


# name -> (largest n the workload uses, op set generator, checker class)
WORKLOADS = {
    "coeffs": (8, coeffs_ops, CoeffsChecker),
    "walks": (7, walks_ops, WalksChecker),
    "tau_points": (8, tau_points_ops, TauPointsChecker),
    "verify_all": (8, verify_all_ops, None),
}
