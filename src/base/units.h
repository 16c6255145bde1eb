// Time and size units.
//
// Simulated time is a 64-bit count of nanoseconds since platform power-on.
// Sizes are bytes. Helper constants keep call sites free of magic numbers.
#ifndef XOAR_SRC_BASE_UNITS_H_
#define XOAR_SRC_BASE_UNITS_H_

#include <cstdint>

namespace xoar {

// Simulated time in nanoseconds.
using SimTime = std::uint64_t;
// A duration in nanoseconds.
using SimDuration = std::uint64_t;

// Saturation point of the simulated clock, used as the "forever" sentinel:
// Simulator::ScheduleAfter clamps a wrapping `now + delay` here instead of
// letting it alias a time in the past.
constexpr SimTime kSimTimeMax = ~static_cast<SimTime>(0);

constexpr SimDuration kNanosecond = 1;
constexpr SimDuration kMicrosecond = 1000 * kNanosecond;
constexpr SimDuration kMillisecond = 1000 * kMicrosecond;
constexpr SimDuration kSecond = 1000 * kMillisecond;

constexpr double ToSeconds(SimDuration d) {
  return static_cast<double>(d) / static_cast<double>(kSecond);
}
constexpr double ToMilliseconds(SimDuration d) {
  return static_cast<double>(d) / static_cast<double>(kMillisecond);
}
constexpr SimDuration FromSeconds(double seconds) {
  return static_cast<SimDuration>(seconds * static_cast<double>(kSecond));
}
constexpr SimDuration FromMilliseconds(double ms) {
  return static_cast<SimDuration>(ms * static_cast<double>(kMillisecond));
}

constexpr std::uint64_t kKiB = 1024;
constexpr std::uint64_t kMiB = 1024 * kKiB;
constexpr std::uint64_t kGiB = 1024 * kMiB;

// Machine page size. Grant tables, I/O rings, and the memory manager all
// operate on pages of this size, mirroring x86 Xen.
constexpr std::uint64_t kPageSize = 4 * kKiB;

// Converts a rate in bits/second and a payload size to a transfer duration.
constexpr SimDuration TransferTime(std::uint64_t bytes, double bits_per_second) {
  return static_cast<SimDuration>(static_cast<double>(bytes) * 8.0 /
                                  bits_per_second * static_cast<double>(kSecond));
}

}  // namespace xoar

#endif  // XOAR_SRC_BASE_UNITS_H_
