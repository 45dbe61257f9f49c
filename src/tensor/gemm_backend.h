#pragma once
// Pluggable GEMM compute backends with runtime dispatch.
//
// apf::gemm() (tensor/gemm.h) is the stable entry point every layer calls;
// the actual kernel is supplied by the active GemmBackend. Backends
// self-describe (name, availability, bitwise guarantees) and the active one
// is chosen by, in order:
//
//   1. the most recent successful set_gemm_backend("name") call, else
//   2. the APF_GEMM_BACKEND environment variable (unknown or unavailable
//      names warn once on stderr and fall through), else
//   3. the first available *bitwise-exact* backend in gemm_backends()
//      order — avx2 when compiled in and the CPU supports it, otherwise
//      reference.
//
// The tolerance-grade fma backend does not replicate the reference
// accumulation order (gemm.h), so it never wins the default selection and
// must be requested via the env var or set_gemm_backend().
//
// Adding a backend: implement GemmBackend honoring the gemm.h row-panel
// contract, return a static instance from a factory, and insert it into the
// registry list in gemm_backend.cpp (list order = default preference).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace apf {

/// One GEMM implementation. Instances are stateless singletons owned by the
/// registry; sgemm must be safe to call concurrently.
class GemmBackend {
 public:
  virtual ~GemmBackend() = default;

  /// Stable lowercase identifier ("reference", "avx2", "fma", ...).
  virtual const char* name() const = 0;

  /// Whether the backend can run on this host (compiled in and the
  /// instruction set present). Unavailable backends stay registered so
  /// they can be listed and reported, but are never selected.
  virtual bool is_available() const = 0;

  /// True when the backend honors the full bitwise contract documented in
  /// gemm.h (row stability + bitwise identity with the reference backend);
  /// false when only the kGemmRowPanel panel-level split-m contract and
  /// same-call determinism hold (fma). Defaults to false: exactness
  /// is an explicit claim — a new backend that forgets to make it merely loses
  /// default-selection eligibility instead of silently breaking the
  /// serving paths' bitwise guarantees.
  virtual bool bitwise_exact() const { return false; }

  /// Row-major sgemm with apf::gemm semantics:
  /// C = alpha * op(A) * op(B) + beta * C (beta == 0 never reads C).
  /// The dispatcher has already validated dimensions and handled the
  /// m == 0 / n == 0 early-outs.
  virtual void sgemm(bool trans_a, bool trans_b, std::int64_t m,
                     std::int64_t n, std::int64_t k, float alpha,
                     const float* a, std::int64_t lda, const float* b,
                     std::int64_t ldb, float beta, float* c,
                     std::int64_t ldc) const = 0;
};

/// All registered backends in default-preference order (tuned first).
/// Always contains at least the reference backend.
const std::vector<GemmBackend*>& gemm_backends();

/// Lookup by name(); nullptr when no backend registered under that name.
GemmBackend* find_gemm_backend(std::string_view name);

/// Names of the backends whose is_available() is true, in registry order.
/// Convenience for tests and benchmarks that sweep every runnable backend.
std::vector<std::string> available_gemm_backend_names();

/// The backend apf::gemm dispatches to. Resolves the selection policy above
/// on first use and caches the result until set_gemm_backend /
/// reset_gemm_backend changes it.
GemmBackend& active_gemm_backend();

/// Selects the backend by name. Returns false — leaving the active backend
/// unchanged — when the name is unknown or the backend is unavailable on
/// this host.
bool set_gemm_backend(std::string_view name);

/// Drops any programmatic selection and re-resolves from the environment /
/// default order on the next active_gemm_backend() call.
void reset_gemm_backend();

/// The selection policy, exposed for tests: resolves an explicit request
/// (the APF_GEMM_BACKEND value; nullptr or "" = no request) to a backend,
/// warning and falling back to the default order when the request cannot be
/// honored. Does not change the active backend.
GemmBackend& resolve_gemm_backend(const char* request);

namespace detail {
// Backend factories (each returns a static singleton; never nullptr —
// backends that were not compiled in report is_available() == false).
GemmBackend* reference_gemm_backend();
GemmBackend* avx2_gemm_backend();
GemmBackend* fma_gemm_backend();
}  // namespace detail

}  // namespace apf
