// Differential tests for the simd/ kernel layer (DESIGN.md §9): every
// kernel of every dispatch level usable on this host must agree exactly
// with an independent reference implementation, over randomized spans
// including empty and partial-vector tails, unaligned subspans, and
// all-match / none-match extremes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <vector>

#include "ccidx/core/geometry.h"
#include "ccidx/query/sink.h"
#include "ccidx/simd/filter_emit.h"
#include "ccidx/simd/simd.h"

namespace ccidx {
namespace {

using simd::KernelTable;
using simd::Level;

std::vector<Point> RandomPoints(std::mt19937_64& rng, size_t n, Coord lo,
                                Coord hi) {
  std::uniform_int_distribution<Coord> dist(lo, hi);
  std::vector<Point> pts(n);
  for (auto& p : pts) {
    p.x = dist(rng);
    p.y = dist(rng);
    p.id = rng();
  }
  return pts;
}

// Reference filters: straightforward predicate loops, no shared code with
// the scalar kernel (which is itself under test).
std::vector<uint32_t> Ref3Sided(std::span<const Point> pts, Coord xlo,
                                Coord xhi, Coord ylo) {
  std::vector<uint32_t> out;
  for (size_t i = 0; i < pts.size(); ++i) {
    if (pts[i].x >= xlo && pts[i].x <= xhi && pts[i].y >= ylo) {
      out.push_back(static_cast<uint32_t>(i));
    }
  }
  return out;
}

std::vector<uint32_t> RefXRange(std::span<const Point> pts, Coord xlo,
                                Coord xhi) {
  std::vector<uint32_t> out;
  for (size_t i = 0; i < pts.size(); ++i) {
    if (pts[i].x >= xlo && pts[i].x <= xhi) {
      out.push_back(static_cast<uint32_t>(i));
    }
  }
  return out;
}

std::vector<uint32_t> RefYAtLeast(std::span<const Point> pts, Coord ylo) {
  std::vector<uint32_t> out;
  for (size_t i = 0; i < pts.size(); ++i) {
    if (pts[i].y >= ylo) out.push_back(static_cast<uint32_t>(i));
  }
  return out;
}

class SimdKernelTest : public ::testing::TestWithParam<Level> {
 protected:
  const KernelTable& table() const { return *simd::TableFor(GetParam()); }
};

TEST_P(SimdKernelTest, Filter3SidedMatchesReference) {
  std::mt19937_64 rng(7);
  for (size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 63u, 170u, 341u}) {
    std::vector<Point> pts = RandomPoints(rng, n, -100, 100);
    std::vector<uint32_t> idx(n + 1, 0xDEADBEEF);
    for (int trial = 0; trial < 8; ++trial) {
      Coord a = std::uniform_int_distribution<Coord>(-120, 120)(rng);
      Coord b = std::uniform_int_distribution<Coord>(-120, 120)(rng);
      Coord xlo = std::min(a, b), xhi = std::max(a, b);
      Coord ylo = std::uniform_int_distribution<Coord>(-120, 120)(rng);
      size_t cnt =
          table().filter_3sided(pts.data(), n, xlo, xhi, ylo, idx.data());
      std::vector<uint32_t> got(idx.begin(), idx.begin() + cnt);
      EXPECT_EQ(got, Ref3Sided(pts, xlo, xhi, ylo)) << "n=" << n;
    }
    // Extremes: everything matches / nothing matches / full Coord range.
    size_t cnt = table().filter_3sided(pts.data(), n, kCoordMin, kCoordMax,
                                       kCoordMin, idx.data());
    EXPECT_EQ(cnt, n);
    cnt = table().filter_3sided(pts.data(), n, kCoordMax, kCoordMin, kCoordMin,
                                idx.data());
    EXPECT_EQ(cnt, 0u);
    cnt = table().filter_3sided(pts.data(), n, kCoordMin, kCoordMax, kCoordMax,
                                idx.data());
    std::vector<uint32_t> got(idx.begin(), idx.begin() + cnt);
    EXPECT_EQ(got, Ref3Sided(pts, kCoordMin, kCoordMax, kCoordMax));
  }
}

TEST_P(SimdKernelTest, FilterXRangeAndYAtLeastMatchReference) {
  std::mt19937_64 rng(11);
  for (size_t n : {0u, 1u, 3u, 4u, 6u, 9u, 64u, 171u}) {
    std::vector<Point> pts = RandomPoints(rng, n, -50, 50);
    std::vector<uint32_t> idx(n + 1);
    for (int trial = 0; trial < 8; ++trial) {
      Coord a = std::uniform_int_distribution<Coord>(-60, 60)(rng);
      Coord b = std::uniform_int_distribution<Coord>(-60, 60)(rng);
      size_t cnt = table().filter_x_range(pts.data(), n, std::min(a, b),
                                          std::max(a, b), idx.data());
      EXPECT_EQ(std::vector<uint32_t>(idx.begin(), idx.begin() + cnt),
                RefXRange(pts, std::min(a, b), std::max(a, b)));
      cnt = table().filter_y_at_least(pts.data(), n, a, idx.data());
      EXPECT_EQ(std::vector<uint32_t>(idx.begin(), idx.begin() + cnt),
                RefYAtLeast(pts, a));
    }
  }
}

TEST_P(SimdKernelTest, FilterHandlesUnalignedSubspans) {
  std::mt19937_64 rng(13);
  std::vector<Point> pts = RandomPoints(rng, 137, -40, 40);
  std::vector<uint32_t> idx(pts.size());
  for (size_t offset : {1u, 2u, 3u, 5u}) {
    std::span<const Point> sub =
        std::span<const Point>(pts).subspan(offset, pts.size() - 2 * offset);
    size_t cnt =
        table().filter_3sided(sub.data(), sub.size(), -10, 25, -5, idx.data());
    EXPECT_EQ(std::vector<uint32_t>(idx.begin(), idx.begin() + cnt),
              Ref3Sided(sub, -10, 25, -5));
  }
}

TEST_P(SimdKernelTest, FirstI64MatchesReferenceOnAllStrides) {
  std::mt19937_64 rng(17);
  for (size_t stride : {sizeof(int64_t), sizeof(Point), size_t{40}}) {
    for (size_t n : {0u, 1u, 2u, 4u, 5u, 31u, 170u}) {
      // A strided field buffer with random values (unsorted on purpose:
      // the kernels promise left-to-right first-hit semantics).
      std::vector<uint8_t> buf(stride * n + 8, 0);
      std::vector<int64_t> vals(n);
      for (size_t i = 0; i < n; ++i) {
        vals[i] = std::uniform_int_distribution<int64_t>(-20, 20)(rng);
        std::memcpy(buf.data() + i * stride, &vals[i], sizeof(int64_t));
      }
      for (int64_t v : {-25ll, -3ll, 0ll, 3ll, 25ll}) {
        size_t ge = n, gt = n, lt = n;
        for (size_t i = 0; i < n; ++i) {
          if (ge == n && vals[i] >= v) ge = i;
          if (gt == n && vals[i] > v) gt = i;
          if (lt == n && vals[i] < v) lt = i;
        }
        EXPECT_EQ(table().first_i64_ge(buf.data(), stride, n, v), ge);
        EXPECT_EQ(table().first_i64_gt(buf.data(), stride, n, v), gt);
        EXPECT_EQ(table().first_i64_lt(buf.data(), stride, n, v), lt);
      }
    }
  }
}

TEST_P(SimdKernelTest, LowerUpperBoundMatchStdOnSortedData) {
  std::mt19937_64 rng(19);
  for (size_t n : {0u, 1u, 2u, 15u, 16u, 17u, 100u, 1000u}) {
    std::vector<int64_t> vals(n);
    for (auto& v : vals) {
      v = std::uniform_int_distribution<int64_t>(-50, 50)(rng);
    }
    std::sort(vals.begin(), vals.end());
    const uint8_t* base = reinterpret_cast<const uint8_t*>(vals.data());
    for (int64_t v = -55; v <= 55; v += 7) {
      size_t lb = static_cast<size_t>(
          std::lower_bound(vals.begin(), vals.end(), v) - vals.begin());
      size_t ub = static_cast<size_t>(
          std::upper_bound(vals.begin(), vals.end(), v) - vals.begin());
      EXPECT_EQ(simd::LowerBoundI64(table(), base, sizeof(int64_t), n, v), lb);
      EXPECT_EQ(simd::UpperBoundI64(table(), base, sizeof(int64_t), n, v), ub);
    }
  }
}

TEST_P(SimdKernelTest, TombstoneCandidatesMatchScalarReference) {
  std::mt19937_64 rng(23);
  for (size_t n : {0u, 1u, 3u, 4u, 7u, 64u, 170u}) {
    std::vector<Point> pts = RandomPoints(rng, n, -1000, 1000);
    // A counting filter with a few slots set: reference computed with the
    // shared PointHash chain.
    const uint64_t mask = 255;
    std::vector<uint32_t> counters(mask + 1, 0);
    for (size_t i = 0; i < n; i += 3) {
      const Point& p = pts[i];
      counters[simd::internal::PointHash(p.x, p.y, p.id) & mask]++;
    }
    std::vector<uint32_t> expect;
    for (size_t i = 0; i < n; ++i) {
      const Point& p = pts[i];
      if (counters[simd::internal::PointHash(p.x, p.y, p.id) & mask] != 0) {
        expect.push_back(static_cast<uint32_t>(i));
      }
    }
    std::vector<uint32_t> idx(n + 1);
    size_t cnt = table().tombstone_candidates(pts.data(), n, counters.data(),
                                              mask, idx.data());
    EXPECT_EQ(std::vector<uint32_t>(idx.begin(), idx.begin() + cnt), expect);
    // All-zero filter: no candidates regardless of points.
    std::fill(counters.begin(), counters.end(), 0);
    EXPECT_EQ(table().tombstone_candidates(pts.data(), n, counters.data(),
                                           mask, idx.data()),
              0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllHostLevels, SimdKernelTest,
    ::testing::ValuesIn(simd::SupportedLevels()),
    [](const ::testing::TestParamInfo<Level>& info) {
      return simd::LevelName(info.param);
    });

TEST(SimdDispatchTest, ScalarAlwaysSupported) {
  auto levels = simd::SupportedLevels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), Level::kScalar);
  EXPECT_NE(simd::TableFor(Level::kScalar), nullptr);
}

TEST(SimdDispatchTest, SetLevelSwitchesActiveTable) {
  Level original = simd::ActiveLevel();
  for (Level l : simd::SupportedLevels()) {
    EXPECT_TRUE(simd::SetLevel(l));
    EXPECT_EQ(simd::ActiveLevel(), l);
    EXPECT_EQ(&simd::Kernels(), simd::TableFor(l));
  }
  EXPECT_TRUE(simd::SetLevel(original));
}

TEST(SimdEmitTest, EmitGatherForwardsAllMatchZeroCopy) {
  std::mt19937_64 rng(29);
  std::vector<Point> pts = RandomPoints(rng, 50, -10, 10);
  const Point* seen_data = nullptr;
  FunctionSink<Point> probe([&](std::span<const Point> batch) {
    seen_data = batch.data();
    return SinkState::kContinue;
  });
  SinkEmitter<Point> em(&probe);
  // All-match: the emitted span must alias the input (no gather copy).
  simd::EmitFiltered3Sided(em, pts, kCoordMin, kCoordMax, kCoordMin);
  EXPECT_EQ(seen_data, pts.data());
}

TEST(SimdEmitTest, KernelEmissionMatchesEmitFilteredAcrossLevels) {
  std::mt19937_64 rng(31);
  std::vector<Point> pts = RandomPoints(rng, 333, -100, 100);
  Level original = simd::ActiveLevel();
  std::vector<Point> expect;
  {
    VectorSink<Point> sink(&expect);
    SinkEmitter<Point> em(&sink);
    em.EmitFiltered(std::span<const Point>(pts), [](const Point& p) {
      return p.x >= -40 && p.x <= 55 && p.y >= -10;
    });
  }
  for (Level l : simd::SupportedLevels()) {
    ASSERT_TRUE(simd::SetLevel(l));
    std::vector<Point> got;
    VectorSink<Point> sink(&got);
    SinkEmitter<Point> em(&sink);
    simd::EmitFiltered3Sided(em, pts, -40, 55, -10);
    EXPECT_EQ(got.size(), expect.size()) << simd::LevelName(l);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), expect.begin(),
                           [](const Point& a, const Point& b) {
                             return a == b;
                           }))
        << simd::LevelName(l);
  }
  ASSERT_TRUE(simd::SetLevel(original));
}

}  // namespace
}  // namespace ccidx
