#include "gpusim/memory.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace pd::gpusim {

namespace {
constexpr unsigned kSector = DeviceSpec::kSectorBytes;

/// Upper bound on the sectors one request can span: every active lane can
/// touch ceil(size / kSector) sectors plus one more for a straddling start.
unsigned max_sectors_for(unsigned size, LaneMask mask) {
  const unsigned per_lane = (size - 1) / kSector + 2;
  return popcount_mask(mask) * per_lane;
}

}  // namespace

double TrafficCounters::sectors_per_request() const {
  if (warp_requests == 0) {
    return 0.0;
  }
  return static_cast<double>(sectors_requested) /
         static_cast<double>(warp_requests);
}

TrafficCounters& TrafficCounters::operator+=(const TrafficCounters& o) {
  dram_read_bytes += o.dram_read_bytes;
  dram_write_bytes += o.dram_write_bytes;
  l2_read_sectors += o.l2_read_sectors;
  l2_write_sectors += o.l2_write_sectors;
  l2_read_hits += o.l2_read_hits;
  l2_write_hits += o.l2_write_hits;
  l2_atomic_ops += o.l2_atomic_ops;
  warp_requests += o.warp_requests;
  sectors_requested += o.sectors_requested;
  scalar_requests += o.scalar_requests;
  scalar_sectors += o.scalar_sectors;
  return *this;
}

void coalesce_warp_sectors(const Lanes<std::uint64_t>& addr, unsigned size,
                           LaneMask mask, SectorBuffer& out) {
  out.reserve(max_sectors_for(size, mask));
  std::uint64_t* data = out.data;
  unsigned n = 0;
  bool monotone = true;
  for (unsigned lane = 0; lane < kWarpSize; ++lane) {
    if (!lane_active(mask, lane)) {
      continue;
    }
    const std::uint64_t first = addr[lane] / kSector;
    const std::uint64_t last = (addr[lane] + size - 1) / kSector;
    for (std::uint64_t s = first; s <= last; ++s) {
      if (n != 0 && data[n - 1] == s) {
        continue;  // repeat of the previous sector: the dominant duplicate
      }
      if (monotone) {
        if (n == 0 || s > data[n - 1]) {
          data[n++] = s;
          continue;
        }
        monotone = false;  // stream went backwards: full dedup from here on
      }
      bool seen = false;
      for (unsigned i = 0; i < n; ++i) {
        if (data[i] == s) {
          seen = true;
          break;
        }
      }
      if (!seen) {
        data[n++] = s;
      }
    }
  }
  if (!monotone) {
    // Restore the canonical ascending probe order the sort-based coalescer
    // produced, so cache behaviour is bit-identical on non-monotone streams.
    std::sort(data, data + n);
  }
  out.count = n;
}

void coalesce_warp_sectors_reference(const Lanes<std::uint64_t>& addr,
                                     unsigned size, LaneMask mask,
                                     SectorBuffer& out) {
  out.reserve(max_sectors_for(size, mask));
  std::uint64_t* data = out.data;
  unsigned n = 0;
  for (unsigned lane = 0; lane < kWarpSize; ++lane) {
    if (!lane_active(mask, lane)) {
      continue;
    }
    const std::uint64_t first = addr[lane] / kSector;
    const std::uint64_t last = (addr[lane] + size - 1) / kSector;
    for (std::uint64_t s = first; s <= last; ++s) {
      data[n++] = s;
    }
  }
  std::sort(data, data + n);
  out.count = static_cast<unsigned>(std::unique(data, data + n) - data);
}

CacheModel::CacheModel(std::uint64_t capacity_bytes, unsigned ways)
    : capacity_bytes_(capacity_bytes), ways_(ways) {
  PD_CHECK_MSG(ways_ > 0, "CacheModel: need at least one way");
  PD_CHECK_MSG(capacity_bytes_ >= kSector * ways_, "CacheModel: capacity too small");
  PD_CHECK_MSG(ways_ <= 0xffffu, "CacheModel: too many ways");
  sets_ = capacity_bytes_ / kSector / ways_;
}

void CacheModel::allocate() {
  lines_.assign(sets_ * ways_, Way{});
  set_tick_.assign(sets_, 0);
  mru_way_.assign(sets_, 0);
}

bool CacheModel::hit_way(Way& way, bool write, TrafficCounters& tc,
                         std::uint64_t stamp) {
  way.stamp = stamp;
  way.dirty = way.dirty || write;
  if (write) {
    ++tc.l2_write_hits;
  } else {
    ++tc.l2_read_hits;
  }
  return true;
}

bool CacheModel::fill_way(Way* base, std::uint64_t sector_index, bool write,
                          TrafficCounters& tc, std::uint64_t stamp,
                          unsigned* way_out) {
  // Miss: fill from DRAM (write-allocate).  Prefer an invalid way; otherwise
  // evict the least-recently-used one.
  unsigned victim = ways_;
  for (unsigned w = 0; w < ways_; ++w) {
    if (!base[w].valid) {
      victim = w;
      break;
    }
  }
  if (victim == ways_) {
    victim = 0;
    for (unsigned w = 1; w < ways_; ++w) {
      if (base[w].stamp < base[victim].stamp) {
        victim = w;
      }
    }
  }
  Way& way = base[victim];
  if (way.valid && way.dirty) {
    tc.dram_write_bytes += kSector;
  }
  tc.dram_read_bytes += kSector;
  way.tag = sector_index;
  way.stamp = stamp;
  way.valid = true;
  way.dirty = write;
  *way_out = victim;
  return false;
}

bool CacheModel::access(std::uint64_t sector_index, bool write,
                        TrafficCounters& tc) {
  if (lines_.empty()) {
    allocate();
  }
  const std::size_t set = static_cast<std::size_t>(sector_index % sets_);
  Way* base = &lines_[set * ways_];
  const std::uint64_t stamp = ++set_tick_[set];

  if (write) {
    ++tc.l2_write_sectors;
  } else {
    ++tc.l2_read_sectors;
  }

  // MRU front check: streaming kernels re-touch the set's most recent line
  // far more often than any other way, so one compare resolves most hits.
  const unsigned mru = mru_way_[set];
  if (base[mru].valid && base[mru].tag == sector_index) {
    return hit_way(base[mru], write, tc, stamp);
  }
  for (unsigned w = 0; w < ways_; ++w) {
    if (w == mru) {
      continue;
    }
    Way& way = base[w];
    if (way.valid && way.tag == sector_index) {
      mru_way_[set] = static_cast<std::uint16_t>(w);
      return hit_way(way, write, tc, stamp);
    }
  }
  unsigned filled = 0;
  fill_way(base, sector_index, write, tc, stamp, &filled);
  mru_way_[set] = static_cast<std::uint16_t>(filled);
  return false;
}

bool CacheModel::access_reference(std::uint64_t sector_index, bool write,
                                  TrafficCounters& tc) {
  if (lines_.empty()) {
    allocate();
  }
  const std::size_t set = static_cast<std::size_t>(sector_index % sets_);
  Way* base = &lines_[set * ways_];
  ++tick_;

  if (write) {
    ++tc.l2_write_sectors;
  } else {
    ++tc.l2_read_sectors;
  }

  for (unsigned w = 0; w < ways_; ++w) {
    Way& way = base[w];
    if (way.valid && way.tag == sector_index) {
      return hit_way(way, write, tc, tick_);
    }
  }
  unsigned filled = 0;
  return fill_way(base, sector_index, write, tc, tick_, &filled);
}

void CacheModel::flush_dirty(TrafficCounters& tc) {
  for (Way& way : lines_) {
    if (way.valid && way.dirty) {
      tc.dram_write_bytes += kSector;
      way.dirty = false;
    }
  }
}

void CacheModel::invalidate() {
  std::fill(lines_.begin(), lines_.end(), Way{});
  std::fill(set_tick_.begin(), set_tick_.end(), 0);
  std::fill(mru_way_.begin(), mru_way_.end(), std::uint16_t{0});
  tick_ = 0;
}

MemoryModel::MemoryModel(const DeviceSpec& spec)
    : cache_(spec.l2_bytes, spec.l2_ways) {}

void MemoryModel::apply_request(TraceOp op, bool write,
                                const std::uint64_t* sectors,
                                std::uint64_t count) {
  switch (op) {
    case TraceOp::kWarp:
      ++counters_.warp_requests;
      counters_.sectors_requested += count;
      break;
    case TraceOp::kScalar:
      ++counters_.scalar_requests;
      counters_.scalar_sectors += count;
      break;
    case TraceOp::kAtomic:
      ++counters_.l2_atomic_ops;
      break;
  }
  if (op == TraceOp::kAtomic) {
    for (std::uint64_t i = 0; i < count; ++i) {
      // Atomics are read-modify-write at the L2: one read + one write request.
      if (reference_path_) {
        cache_.access_reference(sectors[i], /*write=*/false, counters_);
        cache_.access_reference(sectors[i], /*write=*/true, counters_);
      } else {
        cache_.access(sectors[i], /*write=*/false, counters_);
        cache_.access(sectors[i], /*write=*/true, counters_);
      }
    }
    return;
  }
  if (reference_path_) {
    for (std::uint64_t i = 0; i < count; ++i) {
      cache_.access_reference(sectors[i], write, counters_);
    }
  } else {
    for (std::uint64_t i = 0; i < count; ++i) {
      cache_.access(sectors[i], write, counters_);
    }
  }
}

void MemoryModel::warp_access(const Lanes<std::uint64_t>& addr, unsigned size,
                              LaneMask mask, bool write) {
  if (mask == 0) {
    return;
  }
  if (reference_path_) {
    coalesce_warp_sectors_reference(addr, size, mask, scratch_);
  } else {
    coalesce_warp_sectors(addr, size, mask, scratch_);
  }
  apply_request(TraceOp::kWarp, write, scratch_.data, scratch_.count);
}

void MemoryModel::scalar_access(std::uint64_t addr, unsigned size, bool write) {
  const std::uint64_t first = addr / kSector;
  const std::uint64_t last = (addr + size - 1) / kSector;
  scratch_.reserve(static_cast<unsigned>(last - first + 1));
  for (std::uint64_t s = first; s <= last; ++s) {
    scratch_.data[scratch_.count++] = s;
  }
  apply_request(TraceOp::kScalar, write, scratch_.data, scratch_.count);
}

void MemoryModel::atomic_access(std::uint64_t addr, unsigned size) {
  const std::uint64_t first = addr / kSector;
  const std::uint64_t last = (addr + size - 1) / kSector;
  scratch_.reserve(static_cast<unsigned>(last - first + 1));
  for (std::uint64_t s = first; s <= last; ++s) {
    scratch_.data[scratch_.count++] = s;
  }
  apply_request(TraceOp::kAtomic, /*write=*/false, scratch_.data,
                scratch_.count);
}

void MemoryModel::replay(const BlockTrace& trace) {
  const std::vector<std::uint64_t>& words = trace.words();
  std::size_t i = 0;
  const std::size_t end = words.size();
  while (i < end) {
    const std::uint64_t header = words[i++];
    const auto op = static_cast<TraceOp>(header & kTraceOpMask);
    const bool write = (header >> kTraceWriteBit) & 1u;
    const std::uint64_t count = header >> kTraceCountShift;
    PD_ASSERT(i + count <= end);
    apply_request(op, write, words.data() + i, count);
    i += count;
  }
}

void MemoryModel::begin_kernel() { counters_ = TrafficCounters{}; }

TrafficCounters MemoryModel::end_kernel() {
  cache_.flush_dirty(counters_);
  return counters_;
}

}  // namespace pd::gpusim
