// Global operator new/delete replacement feeding mem/alloc_hooks.
//
// Compiled ONLY into allocation-gated binaries (tests/mem, bench_memory,
// bench_engine_micro) as an OBJECT library, so the replacement is a strong
// definition in those link lines and absent everywhere else. Covers the
// plain, nothrow, aligned, and sized variants; all of them funnel through
// malloc/free so mixing variants across new/delete stays well-defined.
#include <cstdlib>
#include <new>

#include "mem/alloc_hooks.hpp"

namespace {

struct HookMarker {
  HookMarker() { trim::mem::detail::mark_hooks_linked(); }
};
HookMarker g_marker;

void* counted_alloc(std::size_t size, std::size_t align) {
  trim::mem::detail::on_alloc(size);
  if (size == 0) size = 1;
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (size + align - 1) / align * align)
                : std::malloc(size);
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  void* p = counted_alloc(size, 0);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  void* p = counted_alloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, 0);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, 0);
}

void operator delete(void* p) noexcept {
  if (p != nullptr) {
    trim::mem::detail::on_free();
    std::free(p);
  }
}

void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, std::align_val_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::align_val_t) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { ::operator delete(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}
