"""Kernel sources for the compiled simulator backend.

Every function in this module is written in the *nopython subset* of
Python that numba's ``@njit`` accepts -- scalar loops over preallocated
numpy arrays, no Python objects, no closures -- but carries no decorator
itself.  :mod:`repro.sim._native.compiled` compiles these exact function
objects when numba is importable; the differential tests run the same
objects **uncompiled** on every machine, so the kernel logic is pinned
bit-identical to :mod:`repro.sim._reference` even where numba is absent.
Numba's default ``@njit`` (no ``fastmath``) preserves IEEE-754 operation
order, so compiling cannot change a single bit of the results.

The fluid kernel is a *step machine*, not a closed loop: max-min fair
rate allocations are the one piece of the event loop that must stay in
Python (they are memoized by :class:`repro.sim.memory.RateAllocator`,
whose results the differential harness pins bit-for-bit), so when the
kernel encounters a demand set it has no cached allocation for it
returns ``NEED_ALLOC`` with the set written to ``need_mask``.  The
wrapper in :mod:`repro.sim._native` computes the allocation through the
real allocator, appends it to the memo arrays, and re-enters; all loop
state lives in caller-owned arrays, so re-entry resumes mid-iteration
with nothing recomputed.  Distinct demand sets number a handful per run
(see ``RateAllocator``), so the Python round trips are O(sets), not
O(events).
"""

from __future__ import annotations

__all__ = [
    "DONE",
    "NEED_ALLOC",
    "STALLED",
    "BUDGET",
    "load_phase",
    "fluid_steps",
    "lru_scan",
]

#: ``fluid_steps`` status codes (plain ints so the jitted and uncompiled
#: kernels return identical values).
DONE = 0  #: every instance retired; ``f_state[0]`` holds the makespan
NEED_ALLOC = 1  #: allocation cache miss; demand set written to ``need_mask``
STALLED = 2  #: active work but no progress (mirrors the engine's error)
BUDGET = 3  #: iteration budget exhausted (mirrors the engine's error)


def load_phase(phase_c, phase_b, phase_off, phase_idx, c_rem, b_rem, eps, i):
    """Advance instance ``i`` to its next non-empty phase.

    The flat-array twin of ``engine._load_next_phase``: ``phase_idx[i]``
    is an absolute cursor into the instance-major ``phase_c``/``phase_b``
    arrays, bounded by ``phase_off[i + 1]``.  Returns True when a phase
    was loaded, False when instance ``i`` is exhausted.
    """
    pi = phase_idx[i]
    end = phase_off[i + 1]
    while pi < end:
        c = phase_c[pi]
        b = phase_b[pi]
        pi += 1
        if c > eps or b > eps:
            phase_idx[i] = pi
            c_rem[i] = c
            b_rem[i] = b
            return True
    phase_idx[i] = pi
    return False


def fluid_steps(
    phase_c,
    phase_b,
    phase_off,
    eps,
    max_iters,
    f_state,
    phase_idx,
    c_rem,
    b_rem,
    done,
    demand,
    completions,
    counts,
    memo_masks,
    memo_rates,
    memo_sums,
    profile_t,
    profile_bw,
    need_mask,
):
    """Run the incremental fluid event loop until done or a cache miss.

    Arithmetic is performed scalar-by-scalar in the exact order of the
    fault-free, untraced ``repro.sim.engine._run_fluid`` (itself pinned
    against the frozen reference), so the produced makespan, completions, and bandwidth
    profile are bit-identical to the Python engine.

    State contract (all caller-owned, mutated in place):

    - ``f_state[0]``      -- current simulated time ``t``
    - ``phase_idx[i]``    -- absolute cursor into the flat phase arrays
    - ``counts[0]``       -- instances still active
    - ``counts[1]``       -- iterations consumed (budget accounting)
    - ``counts[2]``       -- bandwidth-profile entries written
    - ``counts[3]``       -- memo row of the standing allocation (-1: none)
    - ``counts[4]``       -- memo rows filled
    - ``memo_*[m]``       -- demand mask / rates / aggregate rate of row m
    - ``profile_t/bw[k]`` -- piecewise-constant bandwidth profile

    Returns one of ``DONE`` / ``NEED_ALLOC`` / ``STALLED`` / ``BUDGET``.
    """
    n = done.shape[0]
    inf = float("inf")
    t = f_state[0]
    while True:
        # Budget first: the engine's ``for _ in range(max_iters)`` raises
        # on range exhaustion even when the next entry would break.
        if counts[1] >= max_iters:
            f_state[0] = t
            return BUDGET
        if counts[0] == 0:
            f_state[0] = t
            return DONE

        # Standing allocation: reuse while the demand set is unchanged,
        # else look the set up in the memo; a miss bounces to Python.
        ai = counts[3]
        match = ai >= 0
        if match:
            for i in range(n):
                if memo_masks[ai, i] != demand[i]:
                    match = False
                    break
        if not match:
            ai = -1
            for m in range(counts[4]):
                ok = True
                for i in range(n):
                    if memo_masks[m, i] != demand[i]:
                        ok = False
                        break
                if ok:
                    ai = m
                    break
            if ai < 0:
                for i in range(n):
                    need_mask[i] = demand[i]
                f_state[0] = t
                return NEED_ALLOC
            counts[3] = ai
        counts[1] += 1
        rates_sum = memo_sums[ai]

        # Next sub-completion (same scan order and guards as the engine).
        dt = inf
        for i in range(n):
            if done[i]:
                continue
            b = b_rem[i]
            if b > eps:
                r = memo_rates[ai, i]
                if r > 0.0:
                    if r > eps:
                        t_mem = b / r
                    else:
                        t_mem = b / eps
                    if t_mem < dt:
                        dt = t_mem
            c = c_rem[i]
            if c > eps and c < dt:
                dt = c
        if dt == inf:
            f_state[0] = t
            return STALLED
        t = t + dt
        k = counts[2]
        profile_t[k] = t
        profile_bw[k] = rates_sum
        counts[2] = k + 1

        for i in range(n):
            if done[i]:
                continue
            b = b_rem[i] - memo_rates[ai, i] * dt
            if b > eps:
                b_rem[i] = b
            else:
                # Mirrors the engine (and reference) clamp exactly: any
                # residual in (0, eps] is kept but the demand set drops
                # the user.
                b_rem[i] = b if b > 0.0 else 0.0
                demand[i] = False
            c = c_rem[i] - dt
            c_rem[i] = c if c > 0.0 else 0.0

        for i in range(n):
            if done[i] or b_rem[i] > eps or c_rem[i] > eps:
                continue
            # Inline load_phase (kept call-free so one njit compilation
            # covers the whole hot loop).
            pi = phase_idx[i]
            end = phase_off[i + 1]
            loaded = False
            c = 0.0
            b = 0.0
            while pi < end:
                c = phase_c[pi]
                b = phase_b[pi]
                pi += 1
                if c > eps or b > eps:
                    loaded = True
                    break
            phase_idx[i] = pi
            if loaded:
                c_rem[i] = c
                b_rem[i] = b
                if b > eps:
                    demand[i] = True
                continue
            done[i] = True
            counts[0] -= 1
            completions[i] = t


def lru_scan(ids, capacity, last_seen, misses):
    """O(n) windowed-LRU miss scan over non-negative integer ids.

    ``last_seen`` is a dense previous-position table (``-1`` = never
    seen) covering ``0..ids.max()``; ``misses`` arrives all-True.  An
    access hits iff the previous access to the same id happened within
    the last ``capacity`` accesses -- the same window rule as the sorted
    implementations in :mod:`repro.sim.cache`, whose miss masks are pure
    integer logic and therefore identical across implementations.
    """
    n = ids.shape[0]
    for i in range(n):
        r = ids[i]
        prev = last_seen[r]
        if prev >= 0 and i - prev <= capacity:
            misses[i] = False
        last_seen[r] = i
