"""Frank-Wolfe steps from a few exact leverages keep every design bit for bit.

compute_design picks each step from leverages estimated with one r x r
inverse and solves exactly only for the arms near an extreme
(design._step_extremes).  `oracle_design` below is the loop as it was before
that change, solving for every arm on every iteration; each design must
equal it bit for bit, and each error must match it in type and message.
The exactness of the few solved arms rests on two facts about OpenBLAS and
numpy that are pinned here too, and this file runs in CI under several
OpenBLAS kernels.
"""

import numpy as np
import pytest

import rpbandits.design as design
from rpbandits.design import ActionSet, Design, compute_design
from rpbandits.env import generate_instance
from rpbandits.errors import FailsToConverge


def oracle_design(actions: ActionSet, tol: float) -> Design:
    """compute_design with design._leverages on every iteration (frozen)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    vecs = actions.vectors
    K = actions.count

    diag, piv = design.pivoted_qr(vecs.T)
    if diag.size == 0 or diag[0] <= design.RANK_TOL:
        raise ValueError("action set spans no direction (all actions are zero)")
    rank = int(np.sum(diag > design.RANK_TOL * diag[0]))
    basis, _ = np.linalg.qr(vecs[piv[:rank]].T)
    coords = vecs @ basis

    w = np.zeros(K)
    w[design._greedy_basis(coords, rank)] = 1.0 / rank

    target = (1.0 + tol) * rank
    for _ in range(design.MAX_ITERS):
        gram = coords.T @ (coords * w[:, None])
        lev = design._leverages(coords, gram)
        j_fw = int(np.argmax(lev))
        g_fw = float(lev[j_fw])
        if g_fw <= target:
            break

        support = np.flatnonzero(w > 0)
        use_away = False
        if rank > 1 and support.size > 1:
            j_aw = int(support[np.argmin(lev[support])])
            g_aw = float(lev[j_aw])
            use_away = (rank - g_aw) > (g_fw - rank) and g_aw < rank

        if use_away:
            u_star = (rank - g_aw) / (g_aw * (rank - 1)) if g_aw > 0 else np.inf
            u_max = float(w[j_aw])
            u = min(u_star, u_max)
            if u <= 0 or u >= 1.0:
                u = u_max
            gamma = u / (1.0 - u)
            w = w * (1.0 + gamma)
            if u >= u_max - 1e-15:
                w[j_aw] = 0.0
            else:
                w[j_aw] -= gamma
            w = np.maximum(w, 0.0)
            w /= w.sum()
        else:
            gamma = (g_fw / rank - 1.0) / (g_fw - 1.0)
            gamma = float(np.clip(gamma, 0.0, 1.0 - 1e-12))
            if gamma <= 0:
                break
            w *= 1.0 - gamma
            w[j_fw] += gamma

    w[w < design.PRUNE_FRACTION / K] = 0.0
    w /= w.sum()
    w = design._thin_support(coords, w, rank, design._support_bound(rank))

    gvalue = float(np.max(design.span_leverages(vecs, (vecs * w[:, None]).T @ vecs)[0]))
    if gvalue > 2.0 * rank + 1e-9:
        raise FailsToConverge(
            f"design certificate {gvalue:.4f} exceeds {2 * rank} "
            f"after {design.MAX_ITERS} iterations"
        )
    weights = {int(i): float(w[i]) for i in np.flatnonzero(w > 0)}
    return Design(weights=weights, gvalue=gvalue, effective_dim=rank)


def outcome(fn, actions, tol):
    """A design's exact bits, or its error's type and message."""
    try:
        d = fn(actions, tol)
    except Exception as exc:  # noqa: BLE001 - compared between the two loops
        return type(exc), str(exc)
    values = np.array(list(d.weights.values()))
    return list(d.weights), values.tobytes(), repr(d.gvalue), d.effective_dim


def assert_same_design(vecs, tol):
    actions = ActionSet(vecs)
    assert outcome(compute_design, actions, tol) == outcome(oracle_design, actions, tol)


def unit_rows(rng, k, d):
    v = rng.normal(size=(k, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def duplicated(rng, distinct, copies, d):
    base = unit_rows(rng, distinct, d)
    return base[rng.permutation(np.repeat(np.arange(distinct), copies))]


def low_rank(rng, k, d, rank):
    basis, _ = np.linalg.qr(rng.normal(size=(d, rank)))
    v = rng.normal(size=(k, rank)) @ basis.T
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def signed_identity(d, copies):
    return np.tile(np.vstack([np.eye(d), -np.eye(d)]), (copies, 1))


def active_subset(rng, vecs, keep):
    return vecs[np.sort(rng.choice(len(vecs), size=keep, replace=False))]


def generated(dim, count, seed):
    return generate_instance(dim, count, seed).actions.vectors


SETS = {
    "generated-20x2000": lambda rng: generated(20, 2000, 0),
    "generated-10x600": lambda rng: generated(10, 600, 3),
    "generated-5x300": lambda rng: generated(5, 300, 1),
    "subset-20x1337": lambda rng: active_subset(rng, generated(20, 2000, 1), 1337),
    "subset-12x513": lambda rng: active_subset(rng, generated(12, 900, 2), 513),
    "subset-8x257": lambda rng: active_subset(rng, generated(8, 400, 4), 257),
    "duplicates-6x480": lambda rng: duplicated(rng, 40, 12, 6),
    "duplicates-15x600": lambda rng: duplicated(rng, 100, 6, 15),
    "rank3-in-8x400": lambda rng: low_rank(rng, 400, 8, 3),
    "rank2-in-6x300": lambda rng: low_rank(rng, 300, 6, 2),
    "rank1-in-4x300": lambda rng: np.outer(rng.choice([-1.0, 1.0], 300) * rng.random(300),
                                          unit_rows(rng, 1, 4)[0]),
    "signed-identity-8x272": lambda rng: signed_identity(8, 17),
    "signed-identity-20x40": lambda rng: signed_identity(20, 1),
    "small-3x7": lambda rng: unit_rows(rng, 7, 3),
    "small-4x16": lambda rng: unit_rows(rng, 16, 4),
    "tail-5x17": lambda rng: unit_rows(rng, 17, 5),
    "tail-6x33": lambda rng: unit_rows(rng, 33, 6),
    "tail-10x145": lambda rng: unit_rows(rng, 145, 10),
    "one-action": lambda rng: unit_rows(rng, 1, 3),
}


@pytest.fixture(params=["default", "always-estimate"])
def cheap_min_arms(request, monkeypatch):
    """Run each set as compute_design runs it, and again with the estimate
    taken at every size, so small sets and 1 (mod 16) tails go through it."""
    if request.param == "always-estimate":
        monkeypatch.setattr(design, "CHEAP_MIN_ARMS", 1)
    return request.param


@pytest.mark.parametrize("tol", [0.25, 0.05])
@pytest.mark.parametrize("name", sorted(SETS))
def test_designs_equal_the_full_solve_loop(name, tol, cheap_min_arms):
    rng = np.random.default_rng(sorted(SETS).index(name))
    assert_same_design(SETS[name](rng), tol)


def test_designs_equal_on_random_subsets_and_shapes():
    rng = np.random.default_rng(18)
    base = generated(14, 1200, 7)
    for _ in range(12):
        keep = int(rng.integers(256, 1200))
        assert_same_design(active_subset(rng, base, keep), float(rng.choice([0.25, 0.05])))


def test_errors_match_the_full_solve_loop(monkeypatch):
    vecs = generated(20, 300, 1)
    for tol in (0.0, -1.0):
        assert_same_design(vecs, tol)
    assert_same_design(np.zeros((300, 3)), 0.25)
    monkeypatch.setattr(design, "MAX_ITERS", 1)
    actions = ActionSet(vecs)
    assert outcome(compute_design, actions, 0.05)[0] is FailsToConverge
    assert_same_design(vecs, 0.05)
    monkeypatch.setattr(design, "MAX_ITERS", 5000)
    monkeypatch.setattr(design, "SUPPORT_CONSTANT", 0.5)
    assert outcome(compute_design, actions, 0.05)[0] is FailsToConverge
    assert_same_design(vecs, 0.05)


def test_singular_gram_raises_as_the_full_solve_loop(monkeypatch, cheap_min_arms):
    # A start on two of three axes leaves the Gram exactly singular.
    monkeypatch.setattr(design, "_greedy_basis", lambda coords, rank: np.array([0, 1]))
    actions = ActionSet(signed_identity(3, 50))
    got = outcome(compute_design, actions, 0.25)
    assert got == outcome(oracle_design, actions, 0.25)
    assert got == (np.linalg.LinAlgError, "Singular matrix")


# ------------------------------------------------------ the exact few columns


def fw_gram(rng, coords):
    w = rng.random(coords.shape[0])
    w /= w.sum()
    return coords.T @ (coords * w[:, None])


@pytest.mark.parametrize("count", [*range(1, 41), 129, 2000])
def test_leverages_at_equal_the_full_solve_at_every_arm(count):
    rng = np.random.default_rng(count)
    rank = 20 if count == 2000 else int(rng.integers(1, min(count, 8) + 1))
    coords = rng.normal(size=(count, rank)) / np.sqrt(rank)
    gram = fw_gram(rng, coords)
    full = design._leverages(coords, gram)
    alone = np.array([design._leverages_at(coords, gram, [i])[0] for i in range(count)])
    assert alone.tobytes() == full.tobytes()
    every = np.array(design._leverages_at(coords, gram, list(range(count))))
    assert every.tobytes() == full.tobytes()
    some = np.flatnonzero(rng.random(count) < 0.1).tolist()
    if some:
        picked = np.array(design._leverages_at(coords, gram, some))
        assert picked.tobytes() == full[some].tobytes()


def test_a_lone_column_solves_to_other_bits():
    # Why _leverages_at solves whole aligned blocks: the same right-hand
    # side rounds differently alone than among others.
    rng = np.random.default_rng(0)
    coords = rng.normal(size=(129, 5)) / np.sqrt(5)
    gram = fw_gram(rng, coords)
    full = np.linalg.solve(gram, coords.T)
    alone = np.array([np.linalg.solve(gram, coords[i:i + 1].T)[:, 0] for i in range(129)]).T
    assert (alone != full).any()


def test_einsum_adds_each_row_left_to_right():
    # _leverages_at's dot products copy np.einsum("ij,ji->i") on whole
    # columns; on a column subset einsum picks another loop.
    rng = np.random.default_rng(1)
    coords = rng.normal(size=(2000, 20)) / np.sqrt(20)
    sol = np.linalg.solve(fw_gram(rng, coords), coords.T)
    acc = np.zeros(2000)
    for j in range(20):
        acc += coords[:, j] * sol[j]
    assert acc.tobytes() == np.einsum("ij,ji->i", coords, sol).tobytes()
    sub = np.arange(0, 2000, 3)
    assert (np.einsum("ij,ji->i", coords[sub], sol[:, sub]) != acc[sub]).any()


# ------------------------------------------------------------- both branches


def full_extremes(coords, gram, support):
    lev = design._leverages(coords, gram)
    j_fw = int(np.argmax(lev))
    j_aw = int(support[np.argmin(lev[support])])
    return j_fw, float(lev[j_fw]), j_aw, float(lev[j_aw])


def spy_branches(monkeypatch):
    calls = {"full": 0, "few": 0}
    full, few = design._leverages, design._leverages_at

    def full_spy(*args):
        calls["full"] += 1
        return full(*args)

    def few_spy(*args):
        calls["few"] += 1
        return few(*args)

    monkeypatch.setattr(design, "_leverages", full_spy)
    monkeypatch.setattr(design, "_leverages_at", few_spy)
    return calls


def test_well_conditioned_gram_solves_a_few_arms(monkeypatch):
    rng = np.random.default_rng(2)
    coords = rng.normal(size=(600, 10)) / np.sqrt(10)
    gram = fw_gram(rng, coords)
    support = np.sort(rng.choice(600, size=40, replace=False))
    want = full_extremes(coords, gram, support)
    calls = spy_branches(monkeypatch)
    assert design._step_extremes(coords, gram, support) == want
    assert calls == {"full": 0, "few": 1}


def test_ill_conditioned_gram_takes_the_full_solve(monkeypatch):
    rng = np.random.default_rng(3)
    coords = rng.normal(size=(600, 10)) / np.sqrt(10)
    coords[:, 0] *= 1e-4  # condition number about 1e8
    gram = fw_gram(rng, coords)
    support = np.arange(0, 600, 7)
    want = full_extremes(coords, gram, support)
    calls = spy_branches(monkeypatch)
    assert design._step_extremes(coords, gram, support) == want
    assert calls == {"full": 1, "few": 0}


def test_small_sets_take_the_full_solve(monkeypatch):
    rng = np.random.default_rng(4)
    coords = rng.normal(size=(design.CHEAP_MIN_ARMS - 1, 5)) / np.sqrt(5)
    gram = fw_gram(rng, coords)
    support = np.arange(0, coords.shape[0], 5)
    want = full_extremes(coords, gram, support)
    calls = spy_branches(monkeypatch)
    assert design._step_extremes(coords, gram, support) == want
    assert calls == {"full": 1, "few": 0}


def test_ties_resolve_to_the_first_arm(monkeypatch):
    # Repeated rows tie in estimate; the exact values decide, first index
    # first, as np.argmax and np.argmin decide on the full vector.
    monkeypatch.setattr(design, "CHEAP_MIN_ARMS", 1)
    rng = np.random.default_rng(5)
    for count in (17, 48, 300):
        coords = np.tile(rng.normal(size=(count // 3 + 1, 4)), (3, 1))[:count]
        gram = fw_gram(rng, coords)
        support = np.arange(0, count, 2)
        assert design._step_extremes(coords, gram, support) == full_extremes(coords, gram, support)


def tied_top(rng, count, rank, ties):
    """Arms whose top leverages tie in exact arithmetic, in other directions,
    so that their computed leverages differ in the last bits only."""
    coords = rng.normal(size=(count, rank)) / np.sqrt(rank)
    top = rng.choice(count, size=ties, replace=False)
    w = rng.random(count)
    w[top] = 0.0
    w /= w.sum()
    gram = coords.T @ (coords * w[:, None])
    y = rng.normal(size=(ties, rank))
    y *= 1.5 * np.sqrt(design._leverages(coords, gram).max()) / np.linalg.norm(y, axis=1)[:, None]
    coords[top] = y @ np.linalg.cholesky(gram).T
    return coords, gram, np.flatnonzero(w > 0)


def tied_bottom(rng, count, rank):
    """A support of one rotated orthonormal frame, whose leverages are all
    rank in exact arithmetic."""
    coords = rng.normal(size=(count, rank)) / np.sqrt(rank) / 2
    support = np.sort(rng.choice(count, size=rank, replace=False))
    coords[support] = np.linalg.qr(rng.normal(size=(rank, rank)))[0].T
    w = np.zeros(count)
    w[support] = 1.0 / rank
    return coords, coords.T @ (coords * w[:, None]), support


def test_exact_ties_are_decided_by_exact_values(monkeypatch):
    # An estimate can order such near-ties differently from the solve; the
    # band keeps all of them, and their exact values decide.
    rng = np.random.default_rng(6)
    cases = [tied_top(rng, 300, int(rng.integers(2, 12)), 12) for _ in range(30)]
    cases += [tied_bottom(rng, 300, int(rng.integers(3, 12))) for _ in range(30)]
    wants = [full_extremes(*case) for case in cases]
    calls = spy_branches(monkeypatch)
    for case, want in zip(cases, wants):
        assert design._step_extremes(*case) == want
    assert calls == {"full": 0, "few": 60}
