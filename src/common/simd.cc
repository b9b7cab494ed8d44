#include "common/simd.h"

#include <cstring>
#include <new>

namespace thrifty {

// --- EvalArena ----------------------------------------------------------

EvalArena::~EvalArena() {
  ::operator delete[](block_, std::align_val_t{64});
}

EvalArena::EvalArena(EvalArena&& other) noexcept
    : block_(other.block_), capacity_(other.capacity_), used_(other.used_) {
  other.block_ = nullptr;
  other.capacity_ = 0;
  other.used_ = 0;
}

EvalArena& EvalArena::operator=(EvalArena&& other) noexcept {
  if (this != &other) {
    ::operator delete[](block_, std::align_val_t{64});
    block_ = other.block_;
    capacity_ = other.capacity_;
    used_ = other.used_;
    other.block_ = nullptr;
    other.capacity_ = 0;
    other.used_ = 0;
  }
  return *this;
}

void EvalArena::Grow(size_t words) {
  size_t capacity = capacity_ == 0 ? 256 : capacity_ * 2;
  if (capacity < words) capacity = words;
  uint64_t* block = static_cast<uint64_t*>(
      ::operator new[](capacity * sizeof(uint64_t), std::align_val_t{64}));
  if (used_ > 0) std::memcpy(block, block_, used_ * sizeof(uint64_t));
  ::operator delete[](block_, std::align_val_t{64});
  block_ = block;
  capacity_ = capacity;
}

}  // namespace thrifty
