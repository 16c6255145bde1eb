// BlkBack's disk-image allocator: a differential test of the free-run map
// against the sort-based first fit it replaced (same offsets, same disk-full
// points), plus the bound-VBD count that guards DeleteImage.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/base/units.h"
#include "src/core/xoar_platform.h"
#include "src/drv/blk.h"

namespace xoar {
namespace {

constexpr std::uint64_t kReserved = 64 * kMiB;

// Reference: first fit over the gaps between live extents, found by
// collecting and sorting every extent on each call -- BlkBack's allocator
// before the free-run map, kept verbatim.
class SortedFirstFit {
 public:
  explicit SortedFirstFit(std::uint64_t capacity) : capacity_(capacity) {}

  std::optional<std::uint64_t> Allocate(std::uint64_t bytes) const {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> extents;
    extents.reserve(live_.size());
    for (const auto& [id, extent] : live_) {
      extents.push_back(extent);
    }
    std::sort(extents.begin(), extents.end());
    std::uint64_t cursor = kReserved;
    for (const auto& [offset, size] : extents) {
      if (offset - cursor >= bytes) {
        return cursor;
      }
      cursor = offset + size;
    }
    if (cursor + bytes <= capacity_) {
      return cursor;
    }
    return std::nullopt;
  }

  void Insert(int id, std::uint64_t offset, std::uint64_t bytes) {
    live_.emplace(id, std::make_pair(offset, bytes));
  }
  void Erase(int id) { live_.erase(id); }

 private:
  std::uint64_t capacity_;
  std::map<int, std::pair<std::uint64_t, std::uint64_t>> live_;
};

struct Extent {
  int id;
  std::uint64_t offset;
  std::uint64_t bytes;
};

TEST(ExtentAllocatorTest, MatchesSortedFirstFitOffsetsAndDiskFullPoints) {
  // Mixed image sizes, including a zero-byte image and sizes that are not
  // multiples of each other, so freed runs are often too short to reuse.
  const std::vector<std::uint64_t> sizes = {
      0, 1 * kMiB, 4 * kMiB, 4 * kMiB, 8 * kMiB, 15 * kMiB, 64 * kMiB,
      3 * kMiB + 512};
  std::uint64_t allocations = 0;
  std::uint64_t disk_full = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    // A small disk fills within a few dozen images.
    const std::uint64_t capacity =
        kReserved + rng.NextInRange(128, 512) * kMiB;
    ExtentAllocator allocator(kReserved, capacity);
    SortedFirstFit reference(capacity);
    std::vector<Extent> live;  // creation order
    int next_id = 0;
    for (int step = 0; step < 1000; ++step) {
      if (live.empty() || rng.NextBool(0.6)) {
        const std::uint64_t bytes = sizes[rng.NextBelow(sizes.size())];
        const std::optional<std::uint64_t> want = reference.Allocate(bytes);
        ASSERT_EQ(allocator.Allocate(bytes), want)
            << "seed " << seed << " step " << step << " bytes " << bytes;
        if (!want.has_value()) {
          ++disk_full;
          continue;
        }
        ++allocations;
        reference.Insert(next_id, *want, bytes);
        live.push_back(Extent{next_id++, *want, bytes});
        continue;
      }
      // Delete the newest extent, the one at the end of the disk (its run
      // merges into the free tail), or any one.
      std::size_t victim = rng.NextBelow(live.size());
      const std::uint64_t pick = rng.NextBelow(3);
      if (pick == 0) {
        victim = live.size() - 1;
      } else if (pick == 1) {
        victim = static_cast<std::size_t>(
            std::max_element(live.begin(), live.end(),
                             [](const Extent& a, const Extent& b) {
                               return a.offset + a.bytes < b.offset + b.bytes;
                             }) -
            live.begin());
      }
      allocator.Free(live[victim].offset, live[victim].bytes);
      reference.Erase(live[victim].id);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
  }
  // Both halves of the contract were exercised many times over.
  EXPECT_GT(allocations, 80000u);
  EXPECT_GT(disk_full, 20000u);
}

TEST(BlkBackImageTest, DeleteImageRefusesWhileBoundAndSucceedsAfterDetach) {
  XoarPlatform platform;
  ASSERT_TRUE(platform.Boot().ok());
  GuestSpec diskless;
  diskless.with_disk = false;
  const DomainId first = *platform.CreateGuest(diskless);
  const DomainId second = *platform.CreateGuest(diskless);
  BlkBack& blkback = platform.blkback();
  ASSERT_TRUE(blkback.CreateImage("shared", 64 * kMiB).ok());
  ASSERT_TRUE(blkback.CreateImage("spare", 64 * kMiB).ok());
  ASSERT_TRUE(blkback.BindImage(first, "shared").ok());
  ASSERT_TRUE(blkback.BindImage(second, "shared").ok());
  // A rejected bind (one VBD per guest per backend) binds nothing.
  ASSERT_EQ(blkback.BindImage(first, "spare").code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(blkback.DeleteImage("spare").ok());

  EXPECT_EQ(blkback.DeleteImage("shared").code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(blkback.DetachVbd(first).ok());
  EXPECT_EQ(blkback.DeleteImage("shared").code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(blkback.DetachVbd(second).ok());
  EXPECT_TRUE(blkback.DeleteImage("shared").ok());
  EXPECT_EQ(blkback.ImageSize("shared").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace xoar
