#!/usr/bin/env python3
"""Fixture tests for the apf-lint lock-order analyzer.

Seeded AB/BA deadlock shapes MUST be flagged; unlock toggles, disjoint
orders, and waivers MUST pass; and the committed tree must be clean.
Snippets feed scan_sources via its in-memory files= override so the
two-pass member/REQUIRES resolution runs exactly as it does on disk.
Run directly (python3 tests/test_lint_lockorder.py) or via ctest.
"""

import os
import sys
import unittest

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scripts"))

from apflint import lockorder as lint  # noqa: E402


def rules_for(files):
    violations = lint.scan_sources(None, files=list(files.items()))
    return sorted({v.rule for v in violations})


PAIR_CYCLE = """
#include "core/thread_annotations.h"
namespace apf {
class Pair {
 public:
  void ab() {
    MutexLock la(&mu_a_);
    MutexLock lb(&mu_b_);
  }
  void ba() {
    MutexLock lb(&mu_b_);
    MutexLock la(&mu_a_);
  }
 private:
  Mutex mu_a_;
  Mutex mu_b_;
};
}  // namespace apf
"""


class LockOrderCycle(unittest.TestCase):
    def test_ab_ba_cycle_flagged(self):
        self.assertIn("lock-order-cycle",
                      rules_for({"src/core/pair.cpp": PAIR_CYCLE}))

    def test_cycle_message_names_both_mutexes(self):
        violations = lint.scan_sources(
            None, files=[("src/core/pair.cpp", PAIR_CYCLE)])
        cyc = [v for v in violations if v.rule == "lock-order-cycle"]
        self.assertTrue(cyc)
        self.assertIn("Pair::mu_a_", cyc[0].message)
        self.assertIn("Pair::mu_b_", cyc[0].message)

    def test_consistent_order_passes(self):
        text = PAIR_CYCLE.replace(
            "MutexLock lb(&mu_b_);\n    MutexLock la(&mu_a_);",
            "MutexLock la(&mu_a_);\n    MutexLock lb(&mu_b_);")
        self.assertEqual([], rules_for({"src/core/pair.cpp": text}))

    def test_unlock_toggle_breaks_edge(self):
        # Dropping mu_a_ before taking mu_b_ in ba() removes the B->A edge.
        text = """
class T {
 public:
  void ab() {
    MutexLock la(&mu_a_);
    MutexLock lb(&mu_b_);
  }
  void ba() {
    MutexLock lb(&mu_b_);
    lb.unlock();
    MutexLock la(&mu_a_);
  }
 private:
  Mutex mu_a_;
  Mutex mu_b_;
};
"""
        self.assertEqual([], rules_for({"src/core/t.cpp": text}))

    def test_requires_annotation_contributes_edge(self):
        # f() REQUIRES mu_a_, then locks mu_b_; g() does the reverse via
        # MutexLock order. The cycle exists only if REQUIRES is honored.
        text = """
class R2 {
 public:
  void f() APF_REQUIRES(mu_a_) {
    MutexLock lb(&mu_b_);
  }
  void g() APF_REQUIRES(mu_b_) {
    MutexLock la(&mu_a_);
  }
 private:
  Mutex mu_a_;
  Mutex mu_b_;
};
"""
        self.assertIn("lock-order-cycle", rules_for({"src/core/r2.cpp": text}))

    def test_interprocedural_one_level(self):
        # helper() locks mu_b_; caller holds mu_a_ across the call, and a
        # second path locks b-then-a directly.
        text = """
class Q {
 public:
  void helper() {
    MutexLock lb(&mu_b_);
  }
  void caller() {
    MutexLock la(&mu_a_);
    helper();
  }
  void other() {
    MutexLock lb(&mu_b_);
    MutexLock la(&mu_a_);
  }
 private:
  Mutex mu_a_;
  Mutex mu_b_;
};
"""
        self.assertIn("lock-order-cycle", rules_for({"src/core/q.cpp": text}))

    def test_header_requires_follows_out_of_line_definition(self):
        files = {
            "src/core/hdr.h": """
#pragma once
class H {
 public:
  void f() APF_REQUIRES(mu_a_);
  void g() APF_REQUIRES(mu_b_);
 private:
  Mutex mu_a_;
  Mutex mu_b_;
};
""",
            "src/core/hdr.cpp": """
#include "core/hdr.h"
void H::f() {
  MutexLock lb(&mu_b_);
}
void H::g() {
  MutexLock la(&mu_a_);
}
""",
        }
        self.assertIn("lock-order-cycle", rules_for(files))

    # Cycles anchor at their lexically-first edge — here the nested
    # acquisition inside ab() — so that is where the waiver goes.
    ANCHOR = "    MutexLock la(&mu_a_);\n    MutexLock lb(&mu_b_);\n  }"

    def test_marker_suppresses_cycle(self):
        text = PAIR_CYCLE.replace(
            self.ANCHOR,
            "    MutexLock la(&mu_a_);\n"
            "    // lock-order-ok(lock-order-cycle): ba() is only reachable "
            "during single-threaded teardown\n"
            "    MutexLock lb(&mu_b_);\n  }")
        self.assertEqual([], rules_for({"src/core/pair.cpp": text}))

    def test_bare_marker_rejected(self):
        text = PAIR_CYCLE.replace(
            self.ANCHOR,
            "    MutexLock la(&mu_a_);\n"
            "    // lock-order-ok(lock-order-cycle):\n"
            "    MutexLock lb(&mu_b_);\n  }")
        self.assertIn("lock-order-cycle",
                      rules_for({"src/core/pair.cpp": text}))

    def test_lambda_resets_held_set(self):
        # The lambda body runs on another thread; holding mu_a_ at the
        # spawn site must not create an edge to the lambda's mu_b_.
        text = """
class L {
 public:
  void spawn() {
    MutexLock la(&mu_a_);
    pool_.submit([this] {
      MutexLock lb(&mu_b_);
    });
  }
  void other() {
    MutexLock lb(&mu_b_);
    MutexLock la(&mu_a_);
  }
 private:
  Mutex mu_a_;
  Mutex mu_b_;
  Pool pool_;
};
"""
        self.assertEqual([], rules_for({"src/core/l.cpp": text}))


class LockRecursion(unittest.TestCase):
    def test_self_edge_flagged(self):
        text = """
class R {
 public:
  void f() {
    MutexLock a(&mu_);
    MutexLock b(&mu_);
  }
 private:
  Mutex mu_;
};
"""
        self.assertIn("lock-recursion", rules_for({"src/core/r.cpp": text}))

    def test_sequential_locks_pass(self):
        text = """
class S {
 public:
  void f() {
    { MutexLock a(&mu_); }
    { MutexLock b(&mu_); }
  }
 private:
  Mutex mu_;
};
"""
        self.assertEqual([], rules_for({"src/core/s.cpp": text}))

    def test_distinct_instances_same_member_name(self):
        # Two classes each with a mu_ member: identities are qualified, so
        # no false A::mu_ -> B::mu_ self edge.
        text = """
class A1 {
 public:
  void f() { MutexLock l(&mu_); }
 private:
  Mutex mu_;
};
class B1 {
 public:
  void f() { MutexLock l(&mu_); }
 private:
  Mutex mu_;
};
"""
        self.assertEqual([], rules_for({"src/core/two.cpp": text}))


# The serve/cache.cpp shape: an array of shards, each owning its mutex,
# accessed through a typed local reference (`Shard& s = ...; MutexLock
# lock(s.mu);`). The analyzer folds every shard into one Shard::mu node,
# so the discipline the real cache follows — exactly one shard lock per
# operation, never held across another acquisition — is what keeps it
# clean, and the classic sharded-container mistakes are what get flagged.
SHARDED_LRU = """
#include "core/thread_annotations.h"
namespace apf {
class ShardedLru {
 public:
  void get(int i) {
    Shard& s = *shards_[i];
    MutexLock lock(s.mu);
  }
  void put(int i) {
    Shard& s = *shards_[i];
    MutexLock lock(s.mu);
  }
  void stats() {
    for (int i = 0; i < 4; ++i) {
      Shard& s = *shards_[i];
      MutexLock lock(s.mu);
    }
  }
 private:
  struct Shard {
    Mutex mu;
  };
  Shard* shards_[4];
};
}  // namespace apf
"""


class ShardedLruShapes(unittest.TestCase):
    def test_one_shard_lock_per_operation_is_clean(self):
        self.assertEqual([], rules_for({"src/serve/lru.cpp": SHARDED_LRU}))

    def test_cross_shard_hold_is_self_recursion(self):
        # A naive rebalance locking shard i while holding shard j: every
        # shard maps to the same Shard::mu node, and the analyzer treats
        # holding two at once as the self-deadlock it can become (i == j,
        # or two threads migrating in opposite directions).
        text = SHARDED_LRU.replace(
            " private:",
            """  void migrate(int i, int j) {
    Shard& a = *shards_[i];
    Shard& b = *shards_[j];
    MutexLock la(a.mu);
    MutexLock lb(b.mu);
  }
 private:""")
        self.assertIn("lock-recursion",
                      rules_for({"src/serve/lru.cpp": text}))

    def test_aggregate_mutex_over_shard_lock_cycles(self):
        # snapshot() holds the aggregate stats mutex while reading a
        # shard; the eviction path publishes shard->aggregate. That is
        # the AB/BA deadlock the real Server::stats() avoids by gathering
        # shard stats BEFORE taking stats_mu_.
        text = """
class CacheStatsBad {
 public:
  void snapshot() {
    MutexLock stats(stats_mu_);
    Shard& s = *shards_[0];
    MutexLock lock(s.mu);
  }
  void evict_notify() {
    Shard& s = *shards_[0];
    MutexLock lock(s.mu);
    MutexLock stats(stats_mu_);
  }
 private:
  struct Shard {
    Mutex mu;
  };
  Shard* shards_[4];
  Mutex stats_mu_;
};
"""
        self.assertIn("lock-order-cycle",
                      rules_for({"src/serve/lru.cpp": text}))

    def test_gather_before_aggregate_lock_is_clean(self):
        # The shipped ordering: shard locks are released (scoped block)
        # before the aggregate mutex is taken, so only the
        # shard->aggregate edge exists and there is no cycle.
        text = """
class CacheStatsGood {
 public:
  void snapshot() {
    {
      Shard& s = *shards_[0];
      MutexLock lock(s.mu);
    }
    MutexLock stats(stats_mu_);
  }
  void evict_notify() {
    Shard& s = *shards_[0];
    MutexLock lock(s.mu);
    MutexLock stats(stats_mu_);
  }
 private:
  struct Shard {
    Mutex mu;
  };
  Shard* shards_[4];
  Mutex stats_mu_;
};
"""
        self.assertEqual([], rules_for({"src/serve/lru.cpp": text}))


class CommittedTree(unittest.TestCase):
    ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

    def test_src_tree_clean(self):
        violations = lint.scan_sources(self.ROOT)
        self.assertEqual([], violations,
                         "committed tree has lock-order violations: %s" %
                         violations)


if __name__ == "__main__":
    unittest.main()
