// Span kernels for the word-wise hot loops.
//
// Every solve-bound inner loop in this codebase has the same shape: a scan
// over spans of 64-bit activity words combining bitwise algebra with
// popcounts (the Fig 5.3 candidate argmin, DynamicBitmap span popcounts,
// activity OR-reductions). This header exposes those scans as a small set
// of inline loops, one implementation each:
//
//   * SpanPopcount        — popcount over a word span.
//   * AndPopcount         — fused AND + popcount over two parallel spans.
//   * OrReduce            — dst |= src with nonzero-word detection (returns
//                           the OR of all result words).
//   * OrPopcountDelta     — Σ pop(old|cand) − Σ pop(old): the level-1 body
//                           of the candidate argmin.
//   * OrAndPopcountDelta  — Σ pop(old|(below&cand)) − Σ pop(old): the
//                           general level body of the candidate argmin
//                           (L'_m = L_m | (L_{m-1} & C) restricted to the
//                           candidate's words).
//   * OrAndBcastStoreDelta / AndNotBcastStoreDelta — the level-column
//                           rebuild bodies of GroupLevelSet::Add/Remove:
//                           one candidate word broadcast against a
//                           contiguous column of level words, writing the
//                           new column and the per-level popcount deltas.
//
// The library is built with hardware POPCNT on x86-64 (-mpopcnt, see
// src/CMakeLists.txt), so each std::popcount below is one instruction.
// Each kernel has this one implementation: hand-vectorized AVX2 copies
// measured no end-to-end gain over that baseline (EXPERIMENTS.md, "SIMD
// kernels").

#ifndef THRIFTY_COMMON_SIMD_H_
#define THRIFTY_COMMON_SIMD_H_

#include <bit>
#include <cstddef>
#include <cstdint>

namespace thrifty {
namespace simd {

/// \brief The popcount the kernels compile to: "popcnt" (hardware
/// instruction) or "scalar" (the compiler's bit-twiddling fallback).
inline const char* TargetName() {
#if defined(__POPCNT__)
  return "popcnt";
#else
  return "scalar";
#endif
}

/// \brief Popcount over `n` words.
inline size_t SpanPopcount(const uint64_t* w, size_t n) {
  size_t total = 0;
  for (size_t i = 0; i < n; ++i) total += std::popcount(w[i]);
  return total;
}

/// \brief Popcount of a[i] & b[i] over `n` parallel words.
inline size_t AndPopcount(const uint64_t* a, const uint64_t* b, size_t n) {
  size_t total = 0;
  for (size_t i = 0; i < n; ++i) total += std::popcount(a[i] & b[i]);
  return total;
}

/// \brief dst[i] |= src[i] over `n` words; returns the OR of all result
/// words (nonzero ⇔ at least one set bit anywhere in dst afterwards).
inline uint64_t OrReduce(uint64_t* dst, const uint64_t* src, size_t n) {
  uint64_t any = 0;
  for (size_t i = 0; i < n; ++i) {
    dst[i] |= src[i];
    any |= dst[i];
  }
  return any;
}

/// \brief Σ pop(old|cand) − Σ pop(old) over `n` parallel words: how many
/// zero bits of `old` the candidate lifts (the L_0 ≡ all-ones level body).
inline size_t OrPopcountDelta(const uint64_t* old_w, const uint64_t* cand,
                              size_t n) {
  size_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += std::popcount(cand[i] & ~old_w[i]);
  }
  return total;
}

/// \brief Σ pop(old|(below&cand)) − Σ pop(old) over `n` parallel words: the
/// level-m argmin body, L'_m = L_m | (L_{m-1} & C).
inline size_t OrAndPopcountDelta(const uint64_t* old_w, const uint64_t* below,
                                 const uint64_t* cand, size_t n) {
  size_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += std::popcount((below[i] & cand[i]) & ~old_w[i]);
  }
  return total;
}

/// \brief Column-rebuild body of GroupLevelSet::Add with the candidate word
/// broadcast: out[i] = old[i] | (below[i] & cand) and
/// delta[i] += pop(out[i]) − pop(old[i]), elementwise over `n` levels.
inline void OrAndBcastStoreDelta(const uint64_t* old_w, const uint64_t* below,
                                 uint64_t cand, uint64_t* out, size_t* delta,
                                 size_t n) {
  for (size_t i = 0; i < n; ++i) {
    uint64_t lifted = (below[i] & cand) & ~old_w[i];
    out[i] = old_w[i] | lifted;
    delta[i] += static_cast<size_t>(std::popcount(lifted));
  }
}

/// \brief Column-rebuild body of GroupLevelSet::Remove with the candidate
/// word broadcast: out[i] = old[i] & (~cand | above[i]) and
/// delta[i] += pop(old[i]) − pop(out[i]), elementwise over `n` levels.
inline void AndNotBcastStoreDelta(const uint64_t* old_w,
                                  const uint64_t* above, uint64_t cand,
                                  uint64_t* out, size_t* delta, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    uint64_t dropped = (old_w[i] & cand) & ~above[i];
    out[i] = old_w[i] & ~dropped;
    delta[i] += static_cast<size_t>(std::popcount(dropped));
  }
}

}  // namespace simd

/// \brief Bump-pointer arena for the candidate-evaluation scratch state.
///
/// One arena lives in each solver shard's EvalScratch; every candidate
/// evaluation Reset()s it and carves its working arrays (matched-column
/// index, height-sorted views, lazily gathered level rows) out of one
/// contiguous block, so the argmin inner loop performs no heap allocation
/// and its whole working set stays cache-resident. Reserve() must be called
/// with a true upper bound before the per-candidate Alloc()s: the block
/// must not grow between Reset()s, because growing moves it and leaves
/// every previously returned span dangling.
class EvalArena {
 public:
  /// \brief Ensures capacity for `words` 8-byte units. Invalidates
  /// outstanding spans if it grows; call before the first Alloc of a cycle.
  void Reserve(size_t words) {
    if (words > capacity_) Grow(words);
  }

  /// \brief Starts a new allocation cycle (O(1); memory is retained).
  void Reset() { used_ = 0; }

  /// \brief Carves `count` elements of trivially-destructible type T
  /// (rounded up to whole 8-byte units), uninitialized.
  template <typename T>
  T* Alloc(size_t count) {
    static_assert(alignof(T) <= alignof(uint64_t));
    size_t words = (count * sizeof(T) + 7) / 8;
    // Callers pre-Reserve; this backstop only keeps Alloc itself from
    // overrunning the block when a bound was computed too tightly. Grow
    // copies the live prefix into a new block and frees the old one, so
    // every span handed out earlier in the cycle dangles afterwards: an
    // undersized Reserve is a use-after-free, not a slowdown.
    if (used_ + words > capacity_) Grow((used_ + words) * 2);
    T* out = reinterpret_cast<T*>(block_ + used_);
    used_ += words;
    return out;
  }

  size_t capacity_words() const { return capacity_; }
  size_t used_words() const { return used_; }

  ~EvalArena();
  EvalArena() = default;
  EvalArena(EvalArena&& other) noexcept;
  EvalArena& operator=(EvalArena&& other) noexcept;
  EvalArena(const EvalArena&) = delete;
  EvalArena& operator=(const EvalArena&) = delete;

 private:
  void Grow(size_t words);

  uint64_t* block_ = nullptr;
  size_t capacity_ = 0;
  size_t used_ = 0;
};

}  // namespace thrifty

#endif  // THRIFTY_COMMON_SIMD_H_
