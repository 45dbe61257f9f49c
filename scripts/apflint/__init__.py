"""apf-lint: the repo's static-analysis framework.

One shared scanning core (apflint.base: comment/string stripping, waiver
markers, compile_commands plumbing) and four analyzers built on it:

  determinism   bitwise-determinism contract (rng/wallclock/accumulate/
                unordered source rules + fp-contract/fast-math/isa-gate
                flag rules); run it alone with
                scripts/apf_lint.py --analyzer determinism.
  layering      #include-edge layer DAG over src/, include-cycle and
                header-guard checks.
  lock-order    static deadlock detection: lock-acquisition graph from
                APF_REQUIRES annotations and MutexLock sites; cycles and
                self-deadlocks fail.
  arena         arena-lifetime escapes: returning/storing tensors built
                under an ArenaScope without an ArenaPauseGuard.

Run everything through scripts/apf_lint.py (see apflint.cli).
"""

from . import arena_escape, base, determinism, layering, lockorder  # noqa: F401

ANALYZERS = {
    determinism.NAME: determinism,
    layering.NAME: layering,
    lockorder.NAME: lockorder,
    arena_escape.NAME: arena_escape,
}
