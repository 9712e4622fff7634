#include "activity/matrix.h"

#include <cassert>

namespace ipscope::activity {

namespace {

// Swaps 8-bit blocks so that byte j of x[k] ends up as byte k of x[j]: an
// 8x8 transpose of bytes, done as three rounds of block swaps.
void TransposeBytes8x8(std::array<std::uint64_t, 8>& x) {
  constexpr std::uint64_t kMask[3] = {0x00FF00FF00FF00FFULL,
                                      0x0000FFFF0000FFFFULL,
                                      0x00000000FFFFFFFFULL};
  for (int round = 0; round < 3; ++round) {
    const int span = 1 << round;       // rows apart
    const int shift = 8 * span;        // bits apart within a word
    for (int k = 0; k < 8; ++k) {
      if ((k & span) != 0) continue;
      std::uint64_t& lo = x[static_cast<std::size_t>(k)];
      std::uint64_t& hi = x[static_cast<std::size_t>(k + span)];
      std::uint64_t t = ((lo >> shift) ^ hi) & kMask[round];
      hi ^= t;
      lo ^= t << shift;
    }
  }
}

// Transposes the 8x8 bit matrix whose row r is byte r of x: bit c of byte r
// moves to bit r of byte c (Hacker's Delight, transpose8).
std::uint64_t TransposeBits8x8(std::uint64_t x) {
  std::uint64_t t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAULL;
  x ^= t ^ (t << 7);
  t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCULL;
  x ^= t ^ (t << 14);
  t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ULL;
  x ^= t ^ (t << 28);
  return x;
}

}  // namespace

HostDayCounter::HostDayCounter(int max_rows)
    : width_(std::bit_width(static_cast<unsigned>(max_rows))) {
  assert(max_rows > 0 && max_rows <= 65535);
}

std::array<std::uint16_t, 256> HostDayCounter::Counts() const {
  std::array<std::uint16_t, 256> counts{};
  // Planes [base, base + 8) hold bits [base, base + 8) of every count. For
  // each 64-host word, gather those eight plane words, transpose bytes so
  // word j holds byte j (hosts 8j .. 8j+7) of every plane, then transpose
  // bits so byte i of word j is the 8-bit slice of host 8j+i's count.
  for (int base = 0; base < width_; base += 8) {
    for (std::size_t w = 0; w < 4; ++w) {
      std::array<std::uint64_t, 8> x;
      for (std::size_t k = 0; k < 8; ++k) {
        x[k] = planes_[static_cast<std::size_t>(base) + k][w];
      }
      TransposeBytes8x8(x);
      for (std::size_t j = 0; j < 8; ++j) {
        const std::uint64_t slice = TransposeBits8x8(x[j]);
        for (std::size_t i = 0; i < 8; ++i) {
          counts[w * 64 + j * 8 + i] |=
              static_cast<std::uint16_t>(((slice >> (8 * i)) & 0xFFu) << base);
        }
      }
    }
  }
  return counts;
}

ActivityMatrix::ActivityMatrix(int days) : days_(days) {
  assert(days > 0);
  own_.assign(static_cast<std::size_t>(days), DayBits{});
  rows_ = own_.data();
}

ActivityMatrix::ActivityMatrix(int days, DayBits* rows)
    : days_(days), rows_(rows) {
  assert(days > 0);
  assert(rows != nullptr);
}

ActivityMatrix::ActivityMatrix(const ActivityMatrix& other)
    : days_(other.days_), own_(other.rows_, other.rows_ + other.days_) {
  rows_ = own_.data();
}

ActivityMatrix& ActivityMatrix::operator=(const ActivityMatrix& other) {
  if (this == &other) return *this;
  days_ = other.days_;
  own_.assign(other.rows_, other.rows_ + other.days_);
  rows_ = own_.data();
  return *this;
}

ActivityMatrix::ActivityMatrix(ActivityMatrix&& other) noexcept
    : days_(other.days_), own_(std::move(other.own_)) {
  rows_ = own_.empty() ? other.rows_ : own_.data();
  other.rows_ = nullptr;
}

ActivityMatrix& ActivityMatrix::operator=(ActivityMatrix&& other) noexcept {
  if (this == &other) return *this;
  days_ = other.days_;
  own_ = std::move(other.own_);
  rows_ = own_.empty() ? other.rows_ : own_.data();
  other.rows_ = nullptr;
  return *this;
}

DayBits ActivityMatrix::UnionOver(int day_first, int day_last) const {
  assert(day_first >= 0 && day_last <= days_);
  DayBits acc{};
  for (int d = day_first; d < day_last; ++d) acc = OrBits(acc, Row(d));
  return acc;
}

std::int64_t ActivityMatrix::SpatioTemporalActivity(int day_first,
                                                    int day_last) const {
  assert(day_first >= 0 && day_last <= days_);
  std::int64_t total = 0;
  for (int d = day_first; d < day_last; ++d) total += ActiveOnDay(d);
  return total;
}

double ActivityMatrix::Stu(int day_first, int day_last) const {
  int window = day_last - day_first;
  if (window <= 0) return 0.0;
  return static_cast<double>(SpatioTemporalActivity(day_first, day_last)) /
         (256.0 * window);
}

int ActivityMatrix::HostActiveDays(int host) const {
  const std::size_t w = static_cast<std::size_t>(host >> 6);
  const unsigned b = static_cast<unsigned>(host) & 63u;
  int count = 0;
  for (int d = 0; d < days_; ++d) {
    count += static_cast<int>((rows_[d][w] >> b) & 1u);
  }
  return count;
}

std::array<std::uint16_t, 256> ActivityMatrix::HostActiveDayCounts() const {
  HostDayCounter counter{days_};
  for (int d = 0; d < days_; ++d) counter.Add(rows_[d]);
  return counter.Counts();
}

bool ActivityMatrix::Empty() const {
  for (int d = 0; d < days_; ++d) {
    const DayBits& row = rows_[d];
    if ((row[0] | row[1] | row[2] | row[3]) != 0) return false;
  }
  return true;
}

}  // namespace ipscope::activity
