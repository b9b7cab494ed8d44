// Span-kernel correctness: every primitive in common/simd.h must equal a
// per-bit oracle written here, which tests one bit at a time and shares no
// code with the word-wise loops it checks. Cases are randomized but id-keyed
// — each case derives its inputs from Rng(kSuiteSeed).Fork(case_id), so a
// failure report's case_id replays the exact inputs in isolation.

#include "common/simd.h"

#include <bit>
#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "activity/activity_vector.h"
#include "activity/level_set.h"
#include "common/rng.h"

namespace thrifty {
namespace {

constexpr uint64_t kSuiteSeed = 0x51D0CAFE;
constexpr int kRandomCases = 400;

// Case inputs: span length, word patterns, and an intra-allocation offset so
// starts that are not cache-line aligned (spans in the ragged level arena
// rarely are) are exercised too.
struct KernelCase {
  size_t n = 0;
  size_t offset = 0;  // words of padding before the span start
  std::vector<uint64_t> a, b, c;
};

uint64_t RandomWord(Rng* rng) {
  // Mix dense, sparse, and structured words: uniform bits are ~50% dense,
  // which never exercises the all-zero / all-one carry paths.
  switch (rng->NextBounded(5)) {
    case 0:
      return 0;
    case 1:
      return ~uint64_t{0};
    case 2:
      return rng->Next() & rng->Next() & rng->Next();  // sparse
    case 3:
      return rng->Next() | rng->Next() | rng->Next();  // dense
    default:
      return rng->Next();
  }
}

KernelCase MakeCase(uint64_t case_id) {
  Rng rng = Rng(kSuiteSeed).Fork(case_id);
  KernelCase kc;
  // Lengths cluster around short spans (the level columns and per-level
  // prefixes the argmin streams are mostly a few words) plus a long tail.
  switch (rng.NextBounded(4)) {
    case 0:
      kc.n = rng.NextBounded(9);  // 0..8: short spans, including empty
      break;
    case 1:
      kc.n = 8 + rng.NextBounded(9);  // 8..16
      break;
    case 2:
      kc.n = rng.NextBounded(130);  // word-boundary straddles
      break;
    default:
      kc.n = 1 + rng.NextBounded(4096);  // long spans
      break;
  }
  kc.offset = rng.NextBounded(4);
  kc.a.resize(kc.offset + kc.n);
  kc.b.resize(kc.offset + kc.n);
  kc.c.resize(kc.offset + kc.n);
  for (size_t i = 0; i < kc.offset + kc.n; ++i) {
    kc.a[i] = RandomWord(&rng);
    kc.b[i] = RandomWord(&rng);
    kc.c[i] = RandomWord(&rng);
  }
  return kc;
}

// --- Per-bit oracle --------------------------------------------------------

bool Bit(uint64_t w, int b) { return ((w >> b) & 1) != 0; }

size_t OracleSpanPopcount(const uint64_t* w, size_t n) {
  size_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    for (int b = 0; b < 64; ++b) total += Bit(w[i], b);
  }
  return total;
}

size_t OracleAndPopcount(const uint64_t* a, const uint64_t* c, size_t n) {
  size_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    for (int b = 0; b < 64; ++b) total += Bit(a[i], b) && Bit(c[i], b);
  }
  return total;
}

// dst |= src bit by bit; returns the OR of all result words.
uint64_t OracleOrReduce(uint64_t* dst, const uint64_t* src, size_t n) {
  uint64_t any = 0;
  for (size_t i = 0; i < n; ++i) {
    for (int b = 0; b < 64; ++b) {
      if (Bit(src[i], b)) dst[i] |= uint64_t{1} << b;
      if (Bit(dst[i], b)) any |= uint64_t{1} << b;
    }
  }
  return any;
}

// Bits the join L' = L | (below & C) sets that L lacked; a null `below` is
// the all-ones L_0.
size_t OracleOrAndPopcountDelta(const uint64_t* old_w, const uint64_t* below,
                                const uint64_t* cand, size_t n) {
  size_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    for (int b = 0; b < 64; ++b) {
      bool joined = (below == nullptr || Bit(below[i], b)) && Bit(cand[i], b);
      total += !Bit(old_w[i], b) && joined;
    }
  }
  return total;
}

// Level-column rebuild of Add: level i gains the bits where the level below
// and the broadcast candidate are both set.
void OracleOrAndBcastStoreDelta(const uint64_t* old_w, const uint64_t* below,
                                uint64_t cand, uint64_t* out, size_t* delta,
                                size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = 0;
    for (int b = 0; b < 64; ++b) {
      bool was = Bit(old_w[i], b);
      bool now = was || (Bit(below[i], b) && Bit(cand, b));
      if (now) out[i] |= uint64_t{1} << b;
      delta[i] += now && !was;
    }
  }
}

// Level-column rebuild of Remove: level i loses the bits where the
// candidate was active and the level above was not set.
void OracleAndNotBcastStoreDelta(const uint64_t* old_w, const uint64_t* above,
                                 uint64_t cand, uint64_t* out, size_t* delta,
                                 size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = 0;
    for (int b = 0; b < 64; ++b) {
      bool was = Bit(old_w[i], b);
      bool now = was && !(Bit(cand, b) && !Bit(above[i], b));
      if (now) out[i] |= uint64_t{1} << b;
      delta[i] += was && !now;
    }
  }
}

// --- Randomized: public kernel == per-bit scalar oracle ------------------

TEST(SimdKernelTest, SpanPopcountMatchesScalar) {
  for (int id = 0; id < kRandomCases; ++id) {
    KernelCase kc = MakeCase(1000 + id);
    const uint64_t* a = kc.a.data() + kc.offset;
    EXPECT_EQ(simd::SpanPopcount(a, kc.n), OracleSpanPopcount(a, kc.n))
        << "case_id=" << 1000 + id;
  }
}

TEST(SimdKernelTest, AndPopcountMatchesScalar) {
  for (int id = 0; id < kRandomCases; ++id) {
    KernelCase kc = MakeCase(2000 + id);
    const uint64_t* a = kc.a.data() + kc.offset;
    const uint64_t* b = kc.b.data() + kc.offset;
    EXPECT_EQ(simd::AndPopcount(a, b, kc.n), OracleAndPopcount(a, b, kc.n))
        << "case_id=" << 2000 + id;
  }
}

TEST(SimdKernelTest, OrReduceMatchesScalar) {
  for (int id = 0; id < kRandomCases; ++id) {
    KernelCase kc = MakeCase(3000 + id);
    std::vector<uint64_t> dst_vec = kc.a;
    std::vector<uint64_t> ref_vec = kc.a;
    uint64_t* dst = dst_vec.data() + kc.offset;
    uint64_t* ref = ref_vec.data() + kc.offset;
    const uint64_t* src = kc.b.data() + kc.offset;
    uint64_t got = simd::OrReduce(dst, src, kc.n);
    uint64_t want = OracleOrReduce(ref, src, kc.n);
    EXPECT_EQ(got, want) << "case_id=" << 3000 + id;
    EXPECT_EQ(dst_vec, ref_vec) << "case_id=" << 3000 + id;
  }
}

TEST(SimdKernelTest, OrPopcountDeltaMatchesScalar) {
  for (int id = 0; id < kRandomCases; ++id) {
    KernelCase kc = MakeCase(4000 + id);
    const uint64_t* a = kc.a.data() + kc.offset;
    const uint64_t* c = kc.c.data() + kc.offset;
    EXPECT_EQ(simd::OrPopcountDelta(a, c, kc.n),
              OracleOrAndPopcountDelta(a, nullptr, c, kc.n))
        << "case_id=" << 4000 + id;
  }
}

TEST(SimdKernelTest, OrAndPopcountDeltaMatchesScalar) {
  for (int id = 0; id < kRandomCases; ++id) {
    KernelCase kc = MakeCase(5000 + id);
    const uint64_t* a = kc.a.data() + kc.offset;
    const uint64_t* b = kc.b.data() + kc.offset;
    const uint64_t* c = kc.c.data() + kc.offset;
    EXPECT_EQ(simd::OrAndPopcountDelta(a, b, c, kc.n),
              OracleOrAndPopcountDelta(a, b, c, kc.n))
        << "case_id=" << 5000 + id;
  }
}

TEST(SimdKernelTest, OrAndBcastStoreDeltaMatchesScalar) {
  for (int id = 0; id < kRandomCases; ++id) {
    KernelCase kc = MakeCase(6000 + id);
    Rng rng = Rng(kSuiteSeed).Fork(60000 + id);
    uint64_t cand = RandomWord(&rng);
    const uint64_t* a = kc.a.data() + kc.offset;
    const uint64_t* b = kc.b.data() + kc.offset;
    std::vector<uint64_t> out_got(kc.n, 0xAA), out_want(kc.n, 0xAA);
    // Deltas start nonzero to prove the kernel accumulates (+=), not stores.
    std::vector<size_t> d_got(kc.n, 7), d_want(kc.n, 7);
    simd::OrAndBcastStoreDelta(a, b, cand, out_got.data(), d_got.data(),
                               kc.n);
    OracleOrAndBcastStoreDelta(a, b, cand, out_want.data(), d_want.data(),
                               kc.n);
    EXPECT_EQ(out_got, out_want) << "case_id=" << 6000 + id;
    EXPECT_EQ(d_got, d_want) << "case_id=" << 6000 + id;
  }
}

TEST(SimdKernelTest, AndNotBcastStoreDeltaMatchesScalar) {
  for (int id = 0; id < kRandomCases; ++id) {
    KernelCase kc = MakeCase(7000 + id);
    Rng rng = Rng(kSuiteSeed).Fork(70000 + id);
    uint64_t cand = RandomWord(&rng);
    const uint64_t* a = kc.a.data() + kc.offset;
    const uint64_t* b = kc.b.data() + kc.offset;
    std::vector<uint64_t> out_got(kc.n, 0xAA), out_want(kc.n, 0xAA);
    std::vector<size_t> d_got(kc.n, 7), d_want(kc.n, 7);
    simd::AndNotBcastStoreDelta(a, b, cand, out_got.data(), d_got.data(),
                                kc.n);
    OracleAndNotBcastStoreDelta(a, b, cand, out_want.data(), d_want.data(),
                                kc.n);
    EXPECT_EQ(out_got, out_want) << "case_id=" << 7000 + id;
    EXPECT_EQ(d_got, d_want) << "case_id=" << 7000 + id;
  }
}

// --- Directed edges ------------------------------------------------------

TEST(SimdKernelDirectedTest, ZeroLengthSpans) {
  std::vector<uint64_t> w = {~uint64_t{0}};
  EXPECT_EQ(simd::SpanPopcount(w.data(), 0), 0u);
  EXPECT_EQ(simd::AndPopcount(w.data(), w.data(), 0), 0u);
  EXPECT_EQ(simd::OrReduce(w.data(), w.data(), 0), 0u);
  EXPECT_EQ(simd::OrPopcountDelta(w.data(), w.data(), 0), 0u);
  EXPECT_EQ(simd::OrAndPopcountDelta(w.data(), w.data(), w.data(), 0), 0u);
  simd::OrAndBcastStoreDelta(w.data(), w.data(), 0, w.data(), nullptr, 0);
  simd::AndNotBcastStoreDelta(w.data(), w.data(), 0, w.data(), nullptr, 0);
  EXPECT_EQ(w[0], ~uint64_t{0});  // untouched
}

TEST(SimdKernelDirectedTest, SingleWord) {
  uint64_t a = 0xF0F0F0F0F0F0F0F0ULL;
  uint64_t c = 0x0F0FFFFF00000F0FULL;
  EXPECT_EQ(simd::SpanPopcount(&a, 1), 32u);
  EXPECT_EQ(simd::AndPopcount(&a, &c, 1),
            static_cast<size_t>(std::popcount(a & c)));
  EXPECT_EQ(simd::OrPopcountDelta(&a, &c, 1),
            static_cast<size_t>(std::popcount(c & ~a)));
  uint64_t dst = a;
  EXPECT_EQ(simd::OrReduce(&dst, &c, 1), a | c);
  EXPECT_EQ(dst, a | c);
}

TEST(SimdKernelDirectedTest, AllOnesSpans) {
  for (size_t n : {1, 7, 8, 9, 31, 32, 33, 1024}) {
    std::vector<uint64_t> ones(n, ~uint64_t{0});
    EXPECT_EQ(simd::SpanPopcount(ones.data(), n), 64 * n) << "n=" << n;
    EXPECT_EQ(simd::AndPopcount(ones.data(), ones.data(), n), 64 * n);
    // Everything already set: OR lifts nothing.
    EXPECT_EQ(simd::OrPopcountDelta(ones.data(), ones.data(), n), 0u);
  }
}

TEST(SimdKernelDirectedTest, UnalignedHeadAndTail) {
  // Same span evaluated at every start offset within an over-allocated
  // buffer: results must not depend on pointer alignment.
  constexpr size_t kN = 67;
  std::vector<uint64_t> buf(kN + 8);
  Rng rng = Rng(kSuiteSeed).Fork(999);
  for (auto& w : buf) w = rng.Next();
  for (size_t off = 0; off < 8; ++off) {
    std::vector<uint64_t> shifted(buf.begin() + off, buf.begin() + off + kN);
    EXPECT_EQ(simd::SpanPopcount(buf.data() + off, kN),
              OracleSpanPopcount(shifted.data(), kN))
        << "offset=" << off;
  }
}

TEST(SimdKernelDirectedTest, WordBoundaryStraddles) {
  // Every length from 0 to 70 words.
  for (size_t n = 0; n <= 70; ++n) {
    std::vector<uint64_t> a(n), c(n);
    Rng rng = Rng(kSuiteSeed).Fork(5000 + n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = rng.Next();
      c[i] = rng.Next() | rng.Next();
    }
    EXPECT_EQ(simd::SpanPopcount(a.data(), n),
              OracleSpanPopcount(a.data(), n))
        << "n=" << n;
    EXPECT_EQ(simd::OrAndPopcountDelta(a.data(), c.data(), c.data(), n),
              OracleOrAndPopcountDelta(a.data(), c.data(), c.data(), n))
        << "n=" << n;
  }
}

// --- EvalArena ------------------------------------------------------------

TEST(EvalArenaTest, AllocationsAreDisjointAndAligned) {
  EvalArena arena;
  arena.Reserve(1024);
  uint64_t* a = arena.Alloc<uint64_t>(100);
  uint32_t* b = arena.Alloc<uint32_t>(7);  // odd count: rounds to words
  uint64_t* c = arena.Alloc<uint64_t>(1);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % 64, 0u);  // block alignment
  for (size_t i = 0; i < 100; ++i) a[i] = 1;
  for (size_t i = 0; i < 7; ++i) b[i] = 2;
  *c = 3;
  for (size_t i = 0; i < 100; ++i) EXPECT_EQ(a[i], 1u);
  for (size_t i = 0; i < 7; ++i) EXPECT_EQ(b[i], 2u);
  EXPECT_EQ(*c, 3u);
  // 7 uint32s occupy 28 bytes, rounded up to 4 whole words.
  EXPECT_EQ(arena.used_words(), 100u + 4u + 1u);
}

TEST(EvalArenaTest, ResetReusesTheBlock) {
  EvalArena arena;
  arena.Reserve(64);
  uint64_t* first = arena.Alloc<uint64_t>(32);
  size_t cap = arena.capacity_words();
  arena.Reset();
  EXPECT_EQ(arena.used_words(), 0u);
  uint64_t* again = arena.Alloc<uint64_t>(32);
  EXPECT_EQ(first, again);  // same block, no reallocation
  EXPECT_EQ(arena.capacity_words(), cap);
}

TEST(EvalArenaTest, BackstopGrowPreservesLivePrefix) {
  EvalArena arena;
  arena.Reserve(8);
  uint64_t* a = arena.Alloc<uint64_t>(8);
  for (size_t i = 0; i < 8; ++i) a[i] = 100 + i;
  // Under-reserved: this Alloc must grow, copying the live prefix.
  uint64_t* b = arena.Alloc<uint64_t>(1024);
  b[0] = 1;
  uint64_t* base = reinterpret_cast<uint64_t*>(b) - 8;
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(base[i], 100 + i);
}

TEST(EvalArenaTest, LevelSetWorstCaseReserveCoversEveryAlloc) {
  // Identical all-ones vectors drive one evaluation to the worst case of
  // its arena bound: every candidate word matches a full-height column and
  // every level row is gathered. An undersized BuildPlan reservation makes EvaluateAdd*'s
  // backstop Grow free the block earlier spans point into (caught by
  // ASan), and the fresh scratch starts with no slack to hide it.
  constexpr size_t kWords = 200;
  constexpr size_t kEpochs = kWords * 64;
  std::vector<uint32_t> idx(kWords);
  for (size_t i = 0; i < kWords; ++i) idx[i] = static_cast<uint32_t>(i);
  auto ones = [&](TenantId id) {
    return ActivityVector::FromWords(id, kEpochs, idx,
                                     std::vector<uint64_t>(kWords, ~0ULL));
  };
  GroupLevelSet group(kEpochs);
  for (TenantId t = 0; t < 4; ++t) group.Add(ones(t));
  ActivityVector cand = ones(4);
  const std::vector<size_t> want(5, kEpochs);  // every epoch at levels 1..5
  EXPECT_EQ(group.EvaluateAdd(cand), want);

  GroupLevelSet::EvalScratch into;
  group.EvaluateAddInto(cand, &into);
  EXPECT_EQ(into.pops, want);

  // An equal incumbent never prunes, so the compare path gathers every row.
  GroupLevelSet::EvalScratch compare;
  EXPECT_EQ(group.EvaluateAddCompare(cand, want, &compare), 0);
  EXPECT_EQ(compare.pops, want);
}

TEST(EvalArenaTest, MoveTransfersOwnership) {
  EvalArena arena;
  arena.Reserve(16);
  uint64_t* p = arena.Alloc<uint64_t>(4);
  p[0] = 42;
  EvalArena other = std::move(arena);
  EXPECT_EQ(other.used_words(), 4u);
  EvalArena third;
  third = std::move(other);
  EXPECT_EQ(third.used_words(), 4u);
}

}  // namespace
}  // namespace thrifty
