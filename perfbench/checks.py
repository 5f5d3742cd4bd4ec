"""Output checks of the perfbench workloads (perfbench/README.md, "Checks").

Each check takes the parsed outputs of one run and returns a list of
failure messages; an empty list means the outputs passed.  The reference
side of every check is computed here, apart from the program: the
pigeonhole floor, the fluid-limit fixed point (an ODE integrated below),
the step-movement lower bound on a meeting time, a binomial tail, and
the in-process replay data the harness gathers.
"""
import math

# Theorem 1 horizon: Pr[T > ceil(m ln(m/eps))] <= eps for scenario A.
THEOREM1_EPS = 0.25
# One-sided binomial test level for the Theorem 1 tail share.
BINOMIAL_ALPHA = 1e-3
# Allowed gap between the mean stationary max load and the fluid-limit
# prediction, for d >= 2 (README.md, "Checks").
FLUID_TOLERANCE = 1.0


def check_exp05_rows(rows):
    """Lemmas 6.2/6.3: worst slack <= its 4-sigma allowance, every row."""
    failures = []
    if not rows:
        failures.append("exp05 printed no rows")
    for row in rows:
        if row["pairs"] < 1:
            failures.append(f"exp05 row {row} tested no pairs")
        if row["slack"] > row["sigma4"]:
            failures.append(
                f"exp05 n={row['n']} {row['set']} k={row['k']}: worst slack "
                f"{row['slack']} exceeds its 4-sigma allowance {row['sigma4']}")
    return failures


def exp05_rows_from_replay(replay):
    """exp05's table rebuilt from per-pair post-step distances: per (set,
    k), the pair count and the rows of the pairs with the worst slack
    mean(d) - k + 1/C(n,2), each with its 4 standard errors and merge
    frequency.  exp05 prints the first of equal worst pairs; pairs whose
    slacks differ by rounding only are all kept as candidates."""
    n = replay["n"]
    inv_choose2 = 2.0 / (n * (n - 1.0))
    groups = {}
    for pair in replay["pairs"]:
        d, k = pair["d"], pair["k"]
        mean = sum(d) / len(d)
        var = sum((x - mean) ** 2 for x in d) / (len(d) - 1)
        groups.setdefault((pair["set"], k), []).append({
            "slack": mean - k + inv_choose2,
            "sigma4": 4.0 * math.sqrt(var / len(d)),
            "merge": sum(1 for x in d if x == 0) / len(d)})
    rebuilt = {}
    for key, rows in groups.items():
        top = max(r["slack"] for r in rows)
        rebuilt[key] = {"pairs": len(rows),
                        "worst": [r for r in rows if r["slack"] >= top - 1e-9]}
    return rebuilt


def check_exp05_replay(rows, replay):
    """exp05's printed rows against the same rows rebuilt from the
    harness's replay, whose distances come from its own Γ-graph search."""
    if any(x < 0 for pair in replay["pairs"] for x in pair["d"]):
        return ["replay: a post-step distance exceeds k + 2"]
    failures = []
    rebuilt = exp05_rows_from_replay(replay)
    printed = {(r["set"], r["k"]): r for r in rows}
    if set(printed) != set(rebuilt):
        failures.append(f"exp05 rows {sorted(printed)} but the replay has "
                        f"{sorted(rebuilt)}")
    for key in sorted(set(printed) & set(rebuilt)):
        got, want = printed[key], rebuilt[key]
        if got["pairs"] != want["pairs"]:
            failures.append(f"exp05 {key}: {got['pairs']} pairs, replay "
                            f"{want['pairs']}")
        # exp05 prints 4 decimals.
        if not any(all(abs(got[name] - w[name]) <= 0.5e-4 + 1e-9
                       for name in ("slack", "sigma4", "merge"))
                   for w in want["worst"]):
            failures.append(
                f"exp05 {key}: printed slack/4sigma/merge "
                f"{got['slack']}/{got['sigma4']}/{got['merge']}, the replay "
                f"gives {[(round(w['slack'], 6), round(w['sigma4'], 6), round(w['merge'], 6)) for w in want['worst']]}")
    return failures


def check_orient_samples(samples):
    """orientation_distance against an own shortest path over the Γ-graph:
    equal, symmetric, finite within the bound, and 0 exactly on equal
    states."""
    failures = []
    if not samples:
        failures.append("no distance samples")
    for i, s in enumerate(samples):
        tag = f"distance sample {i} (k={s['k']})"
        if s["d_xy"] < 0:
            failures.append(f"{tag}: no distance within the bound")
        if s["d_xy"] != s["own"]:
            failures.append(
                f"{tag}: orientation_distance {s['d_xy']} != shortest "
                f"path {s['own']}")
        if s["d_xy"] != s["d_yx"]:
            failures.append(f"{tag}: not symmetric ({s['d_xy']} vs {s['d_yx']})")
        if s["d_xx"] != 0:
            failures.append(f"{tag}: d(x, x) = {s['d_xx']}")
        if (s["d_xy"] == 0) != s["equal"]:
            failures.append(
                f"{tag}: distance {s['d_xy']} but states "
                f"{'equal' if s['equal'] else 'differ'}")
    return failures


def start_pair_distance(n, m):
    """Half the L1 distance between the sorted all-in-one and balanced
    load vectors of m balls in n bins."""
    base, extra = divmod(m, n)
    balanced = [base + 1] * extra + [base] * (n - extra)
    pile = [m] + [0] * (n - 1)
    return sum(abs(a - b) for a, b in zip(pile, balanced)) // 2


def max_move_per_step(exp, n, m):
    """Largest change of that distance one coupled step can make: a
    scenario-A step moves one ball in each copy; an RBB round moves at
    most one ball per non-empty bin in each copy."""
    return 2 if exp == "exp01" else 2 * min(n, m)


def binomial_tail(trials, k, p):
    """Pr[Bin(trials, p) >= k]."""
    return sum(math.comb(trials, j) * p**j * (1 - p) ** (trials - j)
               for j in range(k, trials + 1))


def _same(a, b):
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def check_coalescence(exp, sweep_rows, cells):
    """Per-replica meeting times, replayed by the harness, against the
    sweep_runner table and the properties the estimator must have."""
    failures = []
    if len(sweep_rows) != len(cells) or not cells:
        return [f"{exp}: {len(sweep_rows)} sweep rows but {len(cells)} "
                "replayed cells"]
    for row, cell in zip(sweep_rows, cells):
        tag = f"{exp} {cell['key']}"
        if row["censored"] != 0:
            failures.append(f"{tag}: {row['censored']} censored replicas")
        times = cell["times"]
        if any(t < 0 for t in times):
            failures.append(f"{tag}: replay has censored replicas")
            continue
        for name in ("T_mean", "T_q50", "T_q95"):
            if not _same(row[name], cell[name]):
                failures.append(
                    f"{tag}: sweep {name}={row[name]} but the replay gives "
                    f"{cell[name]}")
        n, m = cell["n"], cell["m"]
        bound = -(-start_pair_distance(n, m) // max_move_per_step(exp, n, m))
        for t in times:
            if t < bound:
                failures.append(
                    f"{tag}: meeting time {t} below the movement bound {bound}")
            if t % cell["check_interval"] != 0:
                failures.append(
                    f"{tag}: meeting time {t} not a multiple of the check "
                    f"interval {cell['check_interval']}")
        if exp == "exp01":
            horizon = math.ceil(m * math.log(m / THEOREM1_EPS))
            beyond = sum(1 for t in times if t > horizon)
            p = binomial_tail(len(times), beyond, THEOREM1_EPS)
            if p < BINOMIAL_ALPHA:
                failures.append(
                    f"{tag}: {beyond}/{len(times)} replicas beyond "
                    f"m ln(m/eps) = {horizon} (binomial p = {p:.2e})")
    return failures


def fluid_fixed_point(scenario, d, load_ratio=1.0, levels=40, dt=0.05,
                      tol=1e-11, t_max=1e4):
    """Stationary tail profile s_1..s_L of the ABKU[d] fluid limit
    (Mitzenmacher): insertion s_{i-1}^d - s_i^d, removal (i/rho)(s_i -
    s_{i+1}) in scenario A and (s_i - s_{i+1})/s_1 in scenario B, RK4 from
    the balanced profile until the drift vanishes."""

    def tail(s, i):
        if i == 0:
            return 1.0
        if i > levels:
            return 0.0
        return min(1.0, max(0.0, s[i - 1]))

    def drift(s):
        s1 = max(tail(s, 1), 1e-300)
        out = []
        for i in range(1, levels + 1):
            step = tail(s, i) - tail(s, i + 1)
            remove = (i / load_ratio) * step if scenario == "A" else step / s1
            out.append(tail(s, i - 1) ** d - tail(s, i) ** d - remove)
        return out

    s, left = [], load_ratio
    for _ in range(levels):
        s.append(min(1.0, max(0.0, left)))
        left -= s[-1]
    t = 0.0
    while t < t_max:
        k1 = drift(s)
        k2 = drift([a + 0.5 * dt * b for a, b in zip(s, k1)])
        k3 = drift([a + 0.5 * dt * b for a, b in zip(s, k2)])
        k4 = drift([a + dt * b for a, b in zip(s, k3)])
        s = [a + dt / 6 * (b + 2 * c + 2 * e + f)
             for a, b, c, e, f in zip(s, k1, k2, k3, k4)]
        t += dt
        if max(abs(x) for x in k1) < tol:
            break
    return s


def predicted_max_load(profile, n):
    """Largest i with s_i >= 1/n."""
    return max((i + 1 for i, v in enumerate(profile) if v >= 1.0 / n),
               default=0)


def check_stationary(rows, fluid):
    """exp10 rows (m = n): mean max load >= ceil(m/n); for d >= 2 within
    FLUID_TOLERANCE of the fluid fixed point.  `fluid` maps (scenario, d,
    n) to the predicted max load."""
    failures = []
    if not rows:
        failures.append("exp10 printed no rows")
    for row in rows:
        n, d = row["n"], row["d"]
        floor = -(-n // n)
        for sc in ("A", "B"):
            got = row[f"maxload_{sc}"]
            tag = f"exp10 n={n} d={d} scenario {sc}"
            if got < floor:
                failures.append(f"{tag}: mean max load {got} < ceil(m/n) = {floor}")
            if d >= 2:
                want = fluid[(sc, d, n)]
                if abs(got - want) > FLUID_TOLERANCE:
                    failures.append(
                        f"{tag}: mean max load {got} is more than "
                        f"{FLUID_TOLERANCE} from the fluid prediction {want}")
                if row[f"fluid_{sc}"] != want:
                    failures.append(
                        f"{tag}: program fluid column {row[f'fluid_{sc}']} "
                        f"!= the ODE's {want}")
    return failures


def check_serve(client, router, backend_requests):
    """Every request answered ok; every run_cell reply equal to the
    in-process serve::dispatch bytes; router and backend tallies agree
    with what the client sent."""
    failures = []
    if client["transport_failed"]:
        failures.append("a connection failed mid-run")
    if client["ok"] != client["attempted"]:
        failures.append(
            f"{client['attempted'] - client['ok']} of {client['attempted']} "
            "requests got no ok reply")
    for cell in client["cells"]:
        if not cell["local"]:
            failures.append(f"key {cell['key']}: in-process dispatch failed")
        if len(cell["replies"]) != 1:
            failures.append(
                f"key {cell['key']}: {len(cell['replies'])} different replies")
        for reply in cell["replies"]:
            if reply != cell["local"]:
                failures.append(
                    f"key {cell['key']}: reply differs from serve::dispatch")
    if router["hits"] + router["misses"] != client["run_cells"]:
        failures.append(
            f"router hits {router['hits']} + misses {router['misses']} != "
            f"{client['run_cells']} run_cell requests sent")
    if sum(backend_requests) != router["misses"]:
        failures.append(
            f"backends served {sum(backend_requests)} run_cells but the "
            f"router missed {router['misses']}")
    return failures
