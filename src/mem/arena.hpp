// Slab/arena allocator for simulation objects with churn.
//
// An Arena hands out bump-allocated storage from a chain of large chunks.
// Objects created through it are laid out contiguously in creation order
// (flows built in a loop end up packed the way the ACK loop visits them)
// and stay pointer-stable for their lifetime. When an object dies its
// block goes onto an exact-size free list — one LIFO list per (size,
// alignment) class — and the next allocation of that class takes it back
// before bumping. A world that opens and closes connections therefore
// holds storage for the connections alive at once, not for every
// connection it ever opened; chunks themselves are only returned en masse
// when the arena dies. One Arena belongs to one shard (mem::SimMemory
// attaches one per shard simulator), so same-shard objects never
// interleave with another shard's — the allocation-time analogue of the
// engine's no-cross-shard-false-sharing rule.
//
// No per-block headers and no locks (one shard, one thread): a block's
// class travels in its ArenaPtr's deleter, and a free block's first word
// links it to the next. Recycling is safe under two rules:
//
//  1. An arena object cancels, in its destructor, every scheduled event
//     that captures `this` — otherwise the event fires into whatever
//     object is carved at that address next. TcpSender (RTO, TIME_WAIT),
//     TcpReceiver (delayed ACK, control retransmit, TIME_WAIT) and
//     TrimSender (probe timer) do.
//  2. An arena object is destroyed on its shard's thread, or with the
//     engine stopped: the free lists are unsynchronized, like the
//     hot-table slots the same destructors release.
//
// Under AddressSanitizer a recycled block and each chunk's uncarved tail
// are poisoned, so a stale pointer into a dead endpoint is reported
// instead of silently reading the next connection's state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace trim::mem {

class Arena {
 public:
  // Default chunk: 256 KB holds ~240 sender/receiver pairs; large worlds
  // grow the chain geometrically (x2 up to kMaxChunkBytes) so a
  // million-flow world needs ~tens of chunks, not thousands.
  static constexpr std::size_t kDefaultChunkBytes = 256 * 1024;
  static constexpr std::size_t kMaxChunkBytes = 8 * 1024 * 1024;

  explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes);
  ~Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Raw storage, suitably aligned: the most recently freed block of the
  // same (bytes, align) class, else fresh bump storage. Never returns
  // nullptr (throws std::bad_alloc on exhaustion like operator new). The
  // storage is uninitialized.
  void* allocate(std::size_t bytes, std::size_t align);
  // Return a block from allocate(bytes, align) to its class's free list.
  void deallocate(void* p, std::size_t bytes, std::size_t align);

  // Construct a T in the arena. The caller owns the object: it runs the
  // destructor and hands the block back with
  // deallocate(p, sizeof(T), alignof(T)) — ArenaPtr does both.
  template <typename T, typename... Args>
  T* create(Args&&... args) {
    void* p = allocate(sizeof(T), alignof(T));
    return ::new (p) T(std::forward<Args>(args)...);
  }

  // Release every chunk and forget the free lists (objects must already
  // be destroyed). Keeps the configured chunk size.
  void release();

  // ---- introspection (bench_memory / tests) ----
  // Bytes requested and objects handed out so far, recycled blocks
  // included: both count allocations, not live objects.
  std::size_t bytes_allocated() const { return bytes_allocated_; }
  std::size_t bytes_reserved() const { return bytes_reserved_; }  // chunk sum
  std::size_t chunk_count() const { return chunks_.size(); }
  std::size_t object_count() const { return objects_; }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };
  // Freed blocks of one (bytes, align) class, linked through their first
  // word. A handful of classes exist (one per endpoint type), so lookup
  // is a linear scan.
  struct FreeList {
    std::size_t bytes = 0;
    std::size_t align = 0;
    void* head = nullptr;
  };

  void add_chunk(std::size_t min_bytes);
  FreeList* free_list(std::size_t bytes, std::size_t align);

  std::vector<Chunk> chunks_;
  std::vector<FreeList> free_lists_;
  std::size_t next_chunk_bytes_;
  std::size_t bytes_allocated_ = 0;
  std::size_t bytes_reserved_ = 0;
  std::size_t objects_ = 0;
};

// Deleter shared by heap- and arena-backed unique_ptrs. An arena-backed
// object is destroyed in place and its block returned to `arena` under
// the size class of the type arena_new built — the most-derived type, so
// an ArenaPtr<Base> gives back the whole Derived block. Heap-backed
// objects (arena == nullptr) are deleted normally. Implicitly
// constructible from std::default_delete so existing
// `std::make_unique<Derived>(...)` factories keep converting to
// ArenaPtr<Base>.
struct ArenaDelete {
  Arena* arena = nullptr;
  std::uint32_t bytes = 0;
  std::uint32_t align = 0;

  constexpr ArenaDelete() = default;
  constexpr ArenaDelete(Arena* owner, std::size_t size, std::size_t alignment)
      : arena{owner},
        bytes{static_cast<std::uint32_t>(size)},
        align{static_cast<std::uint32_t>(alignment)} {}
  template <typename U>
  constexpr ArenaDelete(std::default_delete<U>) {}  // NOLINT

  constexpr bool heap() const { return arena == nullptr; }

  template <typename T>
  void operator()(T* p) const {
    if (arena == nullptr) {
      delete p;
      return;
    }
    void* const block = block_start(p);
    p->~T();
    arena->deallocate(block, bytes, align);
  }

 private:
  // A base subobject need not sit at the block's start (multiple
  // inheritance); the most-derived object always does.
  template <typename T>
  static void* block_start(T* p) {
    if constexpr (std::is_polymorphic_v<T>) {
      return dynamic_cast<void*>(p);
    } else {
      return p;
    }
  }
};

template <typename T>
using ArenaPtr = std::unique_ptr<T, ArenaDelete>;

// Construct a T in `arena` (or on the heap when arena == nullptr, for
// bare-test paths that have no memory domain).
template <typename T, typename... Args>
ArenaPtr<T> arena_new(Arena* arena, Args&&... args) {
  if (arena == nullptr) {
    return ArenaPtr<T>{new T(std::forward<Args>(args)...), ArenaDelete{}};
  }
  return ArenaPtr<T>{arena->create<T>(std::forward<Args>(args)...),
                     ArenaDelete{arena, sizeof(T), alignof(T)}};
}

}  // namespace trim::mem
