#pragma once
// Thread-local bump allocator for grad-free tensor storage.
//
// The grad-free forward of a transformer allocates hundreds of
// intermediate activation tensors per batch, many past glibc's mmap
// threshold — every one an mmap + page-fault + munmap round trip. Under
// an ArenaScope those allocations become pointer bumps into blocks that
// are RETAINED across batches, and one reset per batch reclaims them all.
//
// Lifecycle and rules:
//  * ArenaScope (RAII) activates the calling thread's arena; Tensor
//    storage allocation routes through it only while a scope is active on
//    this thread AND autograd's GradMode is off (tensors a tape could
//    retain must never live in memory a scope reset reclaims). Scopes
//    nest; each restores the bump cursor it entered with.
//  * ESCAPE RULE: memory bump-allocated under a scope is reclaimed (and
//    will be reused) when that scope closes. Any tensor that must outlive
//    the scope — returned logits, cached features — must be deep-copied
//    to heap ownership first: take an ArenaPauseGuard (allocation falls
//    back to the heap while it lives) and clone(). InferenceEngine::
//    forward() is the model caller: scope around the model forward, pause
//    + clone for the escaping logits.
//  * Each thread owns its own arena (no locks, no sharing); a scope on an
//    engine/server thread covers exactly that thread's forward. Pool
//    workers almost never allocate tensors; one that does lands on the
//    worker's own arena when a scope is open there and plain heap
//    otherwise.
//
// Thread-safety-analysis audit (core/thread_annotations.h): this file is
// intentionally free of APF_GUARDED_BY — there is no mutex here to guard
// anything with. Every member of Arena is confined to the owning thread
// by construction (Arena::this_thread() hands out a thread_local
// instance, and neither Arena nor the RAII guards are copyable or
// shareable), so clang's analysis has nothing to check and TSan covers
// the confinement claim itself. If cross-thread arena sharing is ever
// introduced, start by giving Arena an apf::Mutex and annotating
// cursor_/blocks_/stats_ before writing the first locked accessor.
//
// Blocks are 64-byte aligned and zero-filled per allocation, preserving
// Tensor's zero-init semantics on reused memory.
//
// Poison mode (-DAPF_ARENA_POISON, CMake option of the same name): the
// runtime backstop for the escape rule, catching what the static
// arena-escape analyzer (scripts/apflint/arena_escape.py) cannot see.
// Every arena allocation is prefixed with a 64-byte header carrying a
// magic word and a monotone generation stamp; scope rewind marks the
// headers of reclaimed allocations DEAD and NaN-fills their payloads.
// TensorStorage records its allocation's header + generation and checks
// them on every data() access, so reading a tensor whose scope closed
// throws CheckError deterministically instead of silently reading
// reused memory. Off by default; when off, none of this code exists and
// allocation cost is unchanged.

#include <cstdint>
#include <vector>

namespace apf {

/// Arena counters (per thread). allocations/allocated_bytes are lifetime
/// totals of arena-served requests; used_bytes is the current cursor.
struct ArenaStats {
  std::int64_t allocations = 0;     ///< requests served from the arena
  std::int64_t allocated_bytes = 0; ///< bytes served (lifetime)
  std::int64_t reserved_bytes = 0;  ///< block capacity currently held
  std::int64_t used_bytes = 0;      ///< bytes live under open scopes
  std::int64_t resets = 0;          ///< scope closes that rewound the cursor
};

/// The calling thread's bump arena. Use through ArenaScope /
/// ArenaPauseGuard; direct access is for tests and instrumentation.
class Arena {
 public:
  /// The calling thread's arena (created on first use, lives for the
  /// thread's lifetime; blocks are retained across scopes for reuse).
  static Arena& this_thread();

  /// True when allocation on this thread should go through the arena:
  /// a scope is active, no pause guard is live, and GradMode is off.
  static bool storage_enabled();

  /// Bump-allocates numel floats, 64-byte aligned and (by default) zeroed
  /// — reused arena memory must honor Tensor's zero-init promise; callers
  /// that overwrite the whole buffer immediately pass zero = false. Grows
  /// by appending blocks (oversized requests get a dedicated block). Must
  /// only be called while a scope is active.
  float* allocate(std::int64_t numel, bool zero = true);

  const ArenaStats& stats() const { return stats_; }

  /// Open scopes on this thread (0 = inactive).
  int depth() const { return depth_; }

#ifdef APF_ARENA_POISON
  /// Header of the most recent allocate() call (poison mode only) —
  /// read by TensorStorage immediately after allocating.
  const void* last_allocation_header() const { return last_header_; }
  /// Generation stamped into that header.
  std::uint64_t last_allocation_generation() const {
    return last_generation_;
  }
  /// True while `header` still carries a live stamp for `generation`;
  /// false once the owning scope rewound (or the memory was reused).
  static bool allocation_alive(const void* header, std::uint64_t generation);
#endif

  ~Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

 private:
  friend class ArenaScope;
  friend class ArenaPauseGuard;
  Arena() = default;

  struct Block {
    float* data = nullptr;
    std::int64_t cap = 0;  // floats
  };
  struct Cursor {
    std::size_t block = 0;
    std::int64_t offset = 0;  // floats used in that block
  };

  Cursor cursor_;
  std::vector<Block> blocks_;
  ArenaStats stats_;
  int depth_ = 0;
  int paused_ = 0;
#ifdef APF_ARENA_POISON
  struct LiveAlloc {
    float* header = nullptr;   // 64-byte stamp block before the payload
    std::int64_t numel = 0;    // payload floats (for the NaN fill)
  };
  std::vector<LiveAlloc> live_allocs_;  // stack order = allocation order
  std::uint64_t generation_ = 0;
  float* last_header_ = nullptr;
  std::uint64_t last_generation_ = 0;
#endif
};

/// RAII: activates the thread-local arena for the guard's lifetime and
/// rewinds the bump cursor to the entry position on destruction. See the
/// escape rule in the file header before holding tensors across this.
class ArenaScope {
 public:
  ArenaScope();
  ~ArenaScope();
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  Arena::Cursor entry_;
  std::int64_t entry_used_ = 0;
#ifdef APF_ARENA_POISON
  std::size_t entry_live_ = 0;  // live_allocs_ watermark at scope entry
#endif
};

/// RAII: routes this thread's tensor allocations back to the heap while
/// alive (the escape hatch for results that must outlive the scope).
class ArenaPauseGuard {
 public:
  ArenaPauseGuard();
  ~ArenaPauseGuard();
  ArenaPauseGuard(const ArenaPauseGuard&) = delete;
  ArenaPauseGuard& operator=(const ArenaPauseGuard&) = delete;
};

}  // namespace apf
