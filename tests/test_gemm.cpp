// apf::gemm conformance suite, parameterized over every *available*
// registered backend: every transpose combination, beta in {0, 1, 0.5},
// alpha scaling, and shapes that are not multiples of the kernel's cache
// blocks (m=65, n=257, k=300 vs 64/256/256 panels), all checked against a
// naive triple-loop reference. Per backend it also pins the split-m
// guarantees the serving paths depend on (gemm.h): panel-boundary splits
// for every backend, arbitrary-row splits plus n/k prefix truncation for
// the bitwise-exact ones. Cross-backend, bitwise-exact backends must match
// the reference backend bit for bit; the tolerance-grade fma backend
// must agree within fp32 rounding. Registry tests cover name lookup,
// unknown-name fallback, and APF_GEMM_BACKEND selection.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/gemm_backend.h"
#include "core/rng.h"
#include "tensor/tensor.h"
#include "core/thread_pool.h"

namespace apf {
namespace {

// Naive reference for C = alpha * op(A) @ op(B) + beta * C. beta == 0
// overwrites (never reads) C, matching the kernel's memset semantics.
void naive_gemm_beta(bool ta, bool tb, std::int64_t m, std::int64_t n,
                     std::int64_t k, float alpha, const Tensor& a,
                     const Tensor& b, float beta, Tensor& c) {
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0;
      for (std::int64_t p = 0; p < k; ++p) {
        const float av = ta ? a.at({p, i}) : a.at({i, p});
        const float bv = tb ? b.at({j, p}) : b.at({p, j});
        acc += static_cast<double>(av) * bv;
      }
      const double prior = beta == 0.f ? 0.0 : beta * c.at({i, j});
      c.at({i, j}) = static_cast<float>(alpha * acc + prior);
    }
}

// Runs one gemm on clones of the inputs under the named backend and
// returns C. Restores the previously active backend.
Tensor run_backend(const std::string& backend, bool ta, bool tb,
                   std::int64_t m, std::int64_t n, std::int64_t k,
                   float alpha, const Tensor& a, const Tensor& b, float beta,
                   const Tensor& c_init) {
  const std::string prev = active_gemm_backend().name();
  EXPECT_TRUE(set_gemm_backend(backend)) << backend;
  Tensor c = c_init.clone();
  gemm(ta, tb, m, n, k, alpha, a.data(), a.size(1), b.data(), b.size(1),
       beta, c.data(), n);
  EXPECT_TRUE(set_gemm_backend(prev));
  return c;
}

// Fixture that pins the active backend to the test parameter's first
// element for the duration of the test.
class BackendTest : public ::testing::Test {
 protected:
  void PinBackend(const std::string& name) {
    prev_ = active_gemm_backend().name();
    ASSERT_TRUE(set_gemm_backend(name)) << name;
  }
  void TearDown() override {
    if (!prev_.empty()) {
      ASSERT_TRUE(set_gemm_backend(prev_));
    }
  }

 private:
  std::string prev_;
};

// ---------------------------------------------------------- conformance

using SweepParam = std::tuple<std::string, bool, bool, float>;

class GemmBetaSweep : public BackendTest,
                      public ::testing::WithParamInterface<SweepParam> {};

TEST_P(GemmBetaSweep, OddShapesMatchNaive) {
  const auto [backend, ta, tb, beta] = GetParam();
  PinBackend(backend);
  // Deliberately not multiples of the 64/256/256 cache blocks.
  const std::int64_t m = 65, n = 257, k = 300;
  Rng rng(11 + (ta ? 1 : 0) + (tb ? 2 : 0) +
          static_cast<std::uint64_t>(beta * 4));
  Tensor a = Tensor::randn(ta ? Shape{k, m} : Shape{m, k}, rng);
  Tensor b = Tensor::randn(tb ? Shape{n, k} : Shape{k, n}, rng);
  Tensor c_init = Tensor::randn({m, n}, rng);
  Tensor want = c_init.clone();
  naive_gemm_beta(ta, tb, m, n, k, 1.f, a, b, beta, want);
  Tensor got = c_init.clone();
  gemm(ta, tb, m, n, k, 1.f, a.data(), a.size(1), b.data(), b.size(1), beta,
       got.data(), n);
  for (std::int64_t i = 0; i < got.numel(); ++i)
    ASSERT_NEAR(got[i], want[i], 2e-3 * std::max(1.f, std::fabs(want[i])))
        << "at " << i << " (backend=" << backend << " ta=" << ta
        << " tb=" << tb << " beta=" << beta << ")";
}

INSTANTIATE_TEST_SUITE_P(
    AllBackendsAllTransCombos, GemmBetaSweep,
    ::testing::Combine(::testing::ValuesIn(available_gemm_backend_names()),
                       ::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(0.f, 1.f, 0.5f)),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return std::get<0>(info.param) + (std::get<1>(info.param) ? "_tA" : "") +
             (std::get<2>(info.param) ? "_tB" : "") + "_beta" +
             std::to_string(static_cast<int>(std::get<3>(info.param) * 10));
    });

class GemmBackendSuite : public BackendTest,
                         public ::testing::WithParamInterface<std::string> {
 protected:
  void SetUp() override { PinBackend(GetParam()); }
};

TEST_P(GemmBackendSuite, AlphaScalesProducts) {
  const std::int64_t m = 9, n = 31, k = 65;
  Rng rng(23);
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  Tensor want = Tensor::zeros({m, n});
  naive_gemm_beta(false, false, m, n, k, 0.75f, a, b, 0.f, want);
  Tensor got = Tensor::zeros({m, n});
  gemm(false, false, m, n, k, 0.75f, a.data(), k, b.data(), n, 0.f,
       got.data(), n);
  for (std::int64_t i = 0; i < got.numel(); ++i)
    ASSERT_NEAR(got[i], want[i], 2e-3 * std::max(1.f, std::fabs(want[i])));
}

TEST_P(GemmBackendSuite, SplitMAtRowPanelsIsBitwiseIdentical) {
  // Every backend's panel contract: calling gemm per kGemmRowPanel panel
  // is bitwise identical to one full-m call (the fused attention path).
  const std::int64_t m = 150, n = 70, k = 40;  // spans 3 panels, ragged tail
  Rng rng(31);
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  Tensor whole = Tensor::zeros({m, n});
  gemm(false, false, m, n, k, 1.f, a.data(), k, b.data(), n, 0.f,
       whole.data(), n);
  Tensor split = Tensor::zeros({m, n});
  for (std::int64_t i0 = 0; i0 < m; i0 += kGemmRowPanel) {
    const std::int64_t rows = std::min(kGemmRowPanel, m - i0);
    gemm(false, false, rows, n, k, 1.f, a.data() + i0 * k, k, b.data(), n,
         0.f, split.data() + i0 * n, n);
  }
  for (std::int64_t i = 0; i < whole.numel(); ++i)
    ASSERT_EQ(whole[i], split[i]) << "at " << i;
}

TEST_P(GemmBackendSuite, RowStabilityForBitwiseExactBackends) {
  // Bitwise-exact backends additionally guarantee row stability (gemm.h):
  // arbitrary-row splits (the mask-aware dense layers) and n/k prefix
  // truncation (the fused attention kernel) are bitwise-neutral.
  GemmBackend* backend = find_gemm_backend(GetParam());
  ASSERT_NE(backend, nullptr);
  if (!backend->bitwise_exact())
    GTEST_SKIP() << GetParam() << " only guarantees the panel contract";
  const std::int64_t m = 100, n = 80, k = 70;
  Rng rng(37);
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  Tensor whole = Tensor::zeros({m, n});
  gemm(false, false, m, n, k, 1.f, a.data(), k, b.data(), n, 0.f,
       whole.data(), n);
  // Arbitrary (non-panel) row split at 0 / 7 / 71 / 100.
  Tensor split = Tensor::zeros({m, n});
  const std::int64_t cuts[] = {0, 7, 71, m};
  for (int s = 0; s + 1 < 4; ++s) {
    const std::int64_t i0 = cuts[s], rows = cuts[s + 1] - cuts[s];
    gemm(false, false, rows, n, k, 1.f, a.data() + i0 * k, k, b.data(), n,
         0.f, split.data() + i0 * n, n);
  }
  for (std::int64_t i = 0; i < whole.numel(); ++i)
    ASSERT_EQ(whole[i], split[i]) << "row split at " << i;
  // n-prefix truncation: the first nt columns must be unchanged.
  const std::int64_t nt = 33;
  Tensor trunc = Tensor::zeros({m, nt});
  gemm(false, false, m, nt, k, 1.f, a.data(), k, b.data(), n, 0.f,
       trunc.data(), nt);
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < nt; ++j)
      ASSERT_EQ(trunc.at({i, j}), whole.at({i, j})) << i << "," << j;
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, GemmBackendSuite,
    ::testing::ValuesIn(available_gemm_backend_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// ------------------------------------------------------ cross-backend

TEST(GemmCrossBackend, BitwiseExactBackendsMatchReferenceBitwise) {
  const std::int64_t m = 65, n = 257, k = 300;
  Rng rng(41);
  for (GemmBackend* backend : gemm_backends()) {
    if (!backend->is_available() || !backend->bitwise_exact() ||
        std::string(backend->name()) == "reference")
      continue;
    for (const bool ta : {false, true})
      for (const bool tb : {false, true}) {
        Tensor a = Tensor::randn(ta ? Shape{k, m} : Shape{m, k}, rng);
        Tensor b = Tensor::randn(tb ? Shape{n, k} : Shape{k, n}, rng);
        Tensor c_init = Tensor::randn({m, n}, rng);
        Tensor ref = run_backend("reference", ta, tb, m, n, k, 0.5f, a, b,
                                 0.5f, c_init);
        Tensor got = run_backend(backend->name(), ta, tb, m, n, k, 0.5f, a,
                                 b, 0.5f, c_init);
        for (std::int64_t i = 0; i < ref.numel(); ++i)
          ASSERT_EQ(ref[i], got[i]) << backend->name() << " ta=" << ta
                                    << " tb=" << tb << " at " << i;
      }
  }
}

TEST(GemmCrossBackend, FmaMatchesReferenceWithinTolerance) {
  // fma is tolerance-grade by design: fused multiply-add rounds once per
  // k step where reference rounds twice, so values agree within fp32
  // rounding but are not bitwise identical in general.
  GemmBackend* fma = find_gemm_backend("fma");
  ASSERT_NE(fma, nullptr);  // registered even when not compiled in
  EXPECT_FALSE(fma->bitwise_exact());
  if (!fma->is_available())
    GTEST_SKIP() << "no AVX2+FMA on this host — fma backend unavailable";
  const std::int64_t m = 65, n = 257, k = 300;
  Rng rng(47);
  for (const bool ta : {false, true})
    for (const bool tb : {false, true}) {
      Tensor a = Tensor::randn(ta ? Shape{k, m} : Shape{m, k}, rng);
      Tensor b = Tensor::randn(tb ? Shape{n, k} : Shape{k, n}, rng);
      Tensor c_init = Tensor::randn({m, n}, rng);
      Tensor ref = run_backend("reference", ta, tb, m, n, k, 0.5f, a, b,
                               0.5f, c_init);
      Tensor got =
          run_backend("fma", ta, tb, m, n, k, 0.5f, a, b, 0.5f, c_init);
      for (std::int64_t i = 0; i < ref.numel(); ++i)
        ASSERT_NEAR(got[i], ref[i], 1e-4 * std::max(1.f, std::fabs(ref[i])))
            << "ta=" << ta << " tb=" << tb << " at " << i;
    }
}

// -------------------------------------------------- parallel dispatch

/// RAII restore for the global thread count (0 = automatic resolution).
class ThreadCountGuard {
 public:
  ThreadCountGuard() : prev_(num_threads()) {}
  ~ThreadCountGuard() { set_num_threads(0); (void)prev_; }

 private:
  int prev_;
};

// The tentpole guarantee: apf::gemm's panel-parallel dispatch is bitwise
// identical to serial dispatch for EVERY available backend at every
// thread count (panel contract, gemm.h). Shapes span several row panels
// with a ragged tail so chunk boundaries actually land mid-matrix.
TEST(GemmParallelDispatch, BitwiseIdenticalAcrossThreadCountsAllBackends) {
  ThreadCountGuard restore;
  const std::int64_t m = 321, n = 130, k = 96;  // 6 panels + 1-row tail
  Rng rng(0x9a9);
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor at = Tensor::randn({k, m}, rng);
  Tensor bmat = Tensor::randn({k, n}, rng);
  Tensor bt = Tensor::randn({n, k}, rng);
  Tensor c_init = Tensor::randn({m, n}, rng);

  for (const std::string& backend : available_gemm_backend_names()) {
    for (const bool ta : {false, true}) {
      for (const bool tb : {false, true}) {
        const Tensor& pa = ta ? at : a;
        const Tensor& pb = tb ? bt : bmat;
        set_num_threads(1);
        Tensor want =
            run_backend(backend, ta, tb, m, n, k, 0.5f, pa, pb, 0.5f, c_init);
        for (const int threads : {2, 7}) {
          set_num_threads(threads);
          Tensor got = run_backend(backend, ta, tb, m, n, k, 0.5f, pa, pb,
                                   0.5f, c_init);
          for (std::int64_t i = 0; i < want.numel(); ++i)
            ASSERT_EQ(want[i], got[i])
                << "backend=" << backend << " ta=" << ta << " tb=" << tb
                << " threads=" << threads << " at " << i;
        }
      }
    }
  }
}

TEST(GemmParallelDispatch, ThreadLimitGuardForcesSerialBitwiseNeutral) {
  ThreadCountGuard restore;
  set_num_threads(7);
  const std::int64_t m = 200, n = 64, k = 48;
  Rng rng(0xabc);
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({n, k}, rng);
  Tensor c1 = Tensor::zeros({m, n});
  Tensor c2 = Tensor::zeros({m, n});
  gemm(false, true, m, n, k, 1.f, a.data(), k, b.data(), k, 0.f, c1.data(),
       n);
  {
    ThreadLimitGuard serial_only(1);
    gemm(false, true, m, n, k, 1.f, a.data(), k, b.data(), k, 0.f, c2.data(),
         n);
  }
  for (std::int64_t i = 0; i < c1.numel(); ++i) ASSERT_EQ(c1[i], c2[i]);
}

TEST(GemmParallelDispatch, NumThreadsResolution) {
  ThreadCountGuard restore;
  set_num_threads(5);
  EXPECT_EQ(num_threads(), 5);
  set_num_threads(0);  // back to env / hardware resolution
  EXPECT_GE(num_threads(), 1);
  EXPECT_EQ(thread_limit(), 0);
  {
    ThreadLimitGuard limit(3);
    EXPECT_EQ(thread_limit(), 3);
    ThreadLimitGuard inner(1);
    EXPECT_EQ(thread_limit(), 1);
  }
  EXPECT_EQ(thread_limit(), 0);
}

// ------------------------------------------------------------- registry

TEST(GemmRegistry, ReferenceIsAlwaysRegisteredAndAvailable) {
  GemmBackend* ref = find_gemm_backend("reference");
  ASSERT_NE(ref, nullptr);
  EXPECT_TRUE(ref->is_available());
  EXPECT_TRUE(ref->bitwise_exact());
  // The ISA-gated backends ship in the registry regardless of build flags.
  EXPECT_NE(find_gemm_backend("avx2"), nullptr);
  EXPECT_NE(find_gemm_backend("fma"), nullptr);
  EXPECT_EQ(find_gemm_backend("no-such-backend"), nullptr);
}

TEST(GemmRegistry, SetUnknownOrUnavailableBackendFailsAndKeepsActive) {
  const std::string before = active_gemm_backend().name();
  EXPECT_FALSE(set_gemm_backend("no-such-backend"));
  EXPECT_EQ(std::string(active_gemm_backend().name()), before);
  for (GemmBackend* b : gemm_backends()) {
    if (b->is_available()) continue;
    EXPECT_FALSE(set_gemm_backend(b->name())) << b->name();
    EXPECT_EQ(std::string(active_gemm_backend().name()), before);
  }
}

TEST(GemmRegistry, ResolvePolicy) {
  // Explicit valid request wins.
  EXPECT_STREQ(resolve_gemm_backend("reference").name(), "reference");
  // No request: first available bitwise-exact backend in registry order.
  GemmBackend& def = resolve_gemm_backend(nullptr);
  EXPECT_TRUE(def.is_available());
  EXPECT_TRUE(def.bitwise_exact());
  for (GemmBackend* b : gemm_backends()) {
    if (b->is_available() && b->bitwise_exact()) {
      EXPECT_STREQ(def.name(), b->name());
      break;
    }
  }
  // Unknown and unavailable requests warn and fall back to the default.
  EXPECT_STREQ(resolve_gemm_backend("no-such-backend").name(), def.name());
  EXPECT_STREQ(resolve_gemm_backend("").name(), def.name());
  for (GemmBackend* b : gemm_backends()) {
    if (!b->is_available()) {
      EXPECT_STREQ(resolve_gemm_backend(b->name()).name(), def.name());
    }
  }
}

TEST(GemmRegistry, EnvVarSelectsBackendAfterReset) {
  const char* old = std::getenv("APF_GEMM_BACKEND");
  const std::string saved = old ? old : "";
  setenv("APF_GEMM_BACKEND", "reference", 1);
  reset_gemm_backend();
  EXPECT_STREQ(active_gemm_backend().name(), "reference");
  // Restore the environment and the env-derived selection.
  if (old)
    setenv("APF_GEMM_BACKEND", saved.c_str(), 1);
  else
    unsetenv("APF_GEMM_BACKEND");
  reset_gemm_backend();
}

TEST(GemmRegistry, AvailableNamesAreRunnable) {
  const std::string before = active_gemm_backend().name();
  for (const std::string& name : available_gemm_backend_names()) {
    ASSERT_TRUE(set_gemm_backend(name)) << name;
    // Tiny sanity gemm through the dispatcher.
    const float a[4] = {1.f, 2.f, 3.f, 4.f};
    const float b[4] = {5.f, 6.f, 7.f, 8.f};
    float c[4] = {0.f, 0.f, 0.f, 0.f};
    gemm(false, false, 2, 2, 2, 1.f, a, 2, b, 2, 0.f, c, 2);
    EXPECT_FLOAT_EQ(c[0], 19.f) << name;
    EXPECT_FLOAT_EQ(c[3], 50.f) << name;
  }
  ASSERT_TRUE(set_gemm_backend(before));
}

}  // namespace
}  // namespace apf
