#include "tensor/gemm_backend.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace apf {
namespace {

std::atomic<GemmBackend*> g_active{nullptr};

}  // namespace

const std::vector<GemmBackend*>& gemm_backends() {
  // Registry, in default-preference order (tuned first). fma is listed
  // between avx2 and reference for explicit selection, but the default
  // pick in resolve_gemm_backend skips it via bitwise_exact().
  static const std::vector<GemmBackend*> all = {
      detail::avx2_gemm_backend(),
      detail::fma_gemm_backend(),
      detail::reference_gemm_backend(),
  };
  return all;
}

GemmBackend* find_gemm_backend(std::string_view name) {
  for (GemmBackend* b : gemm_backends())
    if (name == b->name()) return b;
  return nullptr;
}

std::vector<std::string> available_gemm_backend_names() {
  std::vector<std::string> names;
  for (GemmBackend* b : gemm_backends())
    if (b->is_available()) names.emplace_back(b->name());
  return names;
}

GemmBackend& resolve_gemm_backend(const char* request) {
  if (request != nullptr && *request != '\0') {
    GemmBackend* b = find_gemm_backend(request);
    if (b != nullptr && b->is_available()) return *b;
    std::fprintf(stderr,
                 "[apf::gemm] requested backend \"%s\" %s; falling back to "
                 "the default selection\n",
                 request,
                 b == nullptr ? "is not registered"
                              : "is not available on this host");
  }
  // Default: first available bitwise-exact backend in registry order.
  for (GemmBackend* b : gemm_backends())
    if (b->is_available() && b->bitwise_exact()) return *b;
  return *detail::reference_gemm_backend();  // always available
}

GemmBackend& active_gemm_backend() {
  GemmBackend* b = g_active.load(std::memory_order_acquire);
  if (b == nullptr) {
    // Benign race: resolution is idempotent, every thread lands on the
    // same backend.
    b = &resolve_gemm_backend(std::getenv("APF_GEMM_BACKEND"));
    g_active.store(b, std::memory_order_release);
  }
  return *b;
}

bool set_gemm_backend(std::string_view name) {
  GemmBackend* b = find_gemm_backend(name);
  if (b == nullptr || !b->is_available()) return false;
  g_active.store(b, std::memory_order_release);
  return true;
}

void reset_gemm_backend() { g_active.store(nullptr, std::memory_order_release); }

}  // namespace apf
