#include "mem/arena.hpp"

#include <algorithm>
#include <cstring>

#include "sim/config_error.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define TRIM_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TRIM_ARENA_ASAN 1
#endif
#endif

#ifdef TRIM_ARENA_ASAN
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(p, n) ((void)(p), (void)(n))
#define ASAN_UNPOISON_MEMORY_REGION(p, n) ((void)(p), (void)(n))
#endif

namespace trim::mem {

namespace {

// A free block holds the free-list link in its first word, so every block
// is at least that large (only sub-pointer requests are padded).
std::size_t block_bytes(std::size_t bytes) {
  return std::max(bytes, sizeof(void*));
}

}  // namespace

Arena::Arena(std::size_t chunk_bytes)
    : next_chunk_bytes_{std::max<std::size_t>(chunk_bytes, 1024)} {
  if (chunk_bytes == 0) {
    throw ConfigError{"zero chunk size", "Arena", ">= 1 byte"};
  }
}

Arena::~Arena() { release(); }

void Arena::add_chunk(std::size_t min_bytes) {
  std::size_t size = next_chunk_bytes_;
  while (size < min_bytes) size *= 2;
  // Default-initialized: pages stay untouched (and non-resident) until an
  // object is carved on them. Nothing reads arena storage before a
  // constructor writes it.
  chunks_.push_back(Chunk{std::make_unique_for_overwrite<std::byte[]>(size), size, 0});
  ASAN_POISON_MEMORY_REGION(chunks_.back().data.get(), size);
  bytes_reserved_ += size;
  // Geometric growth keeps the chunk count logarithmic in world size
  // without over-reserving small worlds.
  next_chunk_bytes_ = std::min(next_chunk_bytes_ * 2, kMaxChunkBytes);
}

Arena::FreeList* Arena::free_list(std::size_t bytes, std::size_t align) {
  for (FreeList& f : free_lists_) {
    if (f.bytes == bytes && f.align == align) return &f;
  }
  return nullptr;
}

void* Arena::allocate(std::size_t bytes, std::size_t align) {
  if (bytes == 0) bytes = 1;
  if (align == 0) align = 1;
  bytes_allocated_ += bytes;
  ++objects_;
  const std::size_t block = block_bytes(bytes);
  if (FreeList* f = free_list(bytes, align); f != nullptr && f->head != nullptr) {
    void* p = f->head;
    ASAN_UNPOISON_MEMORY_REGION(p, block);
    std::memcpy(&f->head, p, sizeof(void*));
    return p;
  }
  if (chunks_.empty()) add_chunk(block + align);
  Chunk* c = &chunks_.back();
  auto base = reinterpret_cast<std::uintptr_t>(c->data.get());
  std::uintptr_t p = (base + c->used + (align - 1)) & ~(std::uintptr_t{align} - 1);
  if (p + block > base + c->size) {
    add_chunk(block + align);
    c = &chunks_.back();
    base = reinterpret_cast<std::uintptr_t>(c->data.get());
    p = (base + (align - 1)) & ~(std::uintptr_t{align} - 1);
  }
  c->used = (p - base) + block;
  ASAN_UNPOISON_MEMORY_REGION(reinterpret_cast<void*>(p), block);
  return reinterpret_cast<void*>(p);
}

void Arena::deallocate(void* p, std::size_t bytes, std::size_t align) {
  if (bytes == 0) bytes = 1;
  if (align == 0) align = 1;
  FreeList* f = free_list(bytes, align);
  if (f == nullptr) {
    free_lists_.push_back(FreeList{bytes, align, nullptr});
    f = &free_lists_.back();
  }
  std::memcpy(p, &f->head, sizeof(void*));
  f->head = p;
  ASAN_POISON_MEMORY_REGION(p, block_bytes(bytes));
}

void Arena::release() {
  for (const Chunk& c : chunks_) ASAN_UNPOISON_MEMORY_REGION(c.data.get(), c.size);
  chunks_.clear();
  free_lists_.clear();
  bytes_reserved_ = 0;
  bytes_allocated_ = 0;
  objects_ = 0;
}

}  // namespace trim::mem
