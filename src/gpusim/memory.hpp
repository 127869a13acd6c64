#pragma once
// Memory-hierarchy simulator: a set-associative, write-back, write-allocate
// L2 sector cache over the kernels' real address streams.
//
// The paper derives its roofline and bandwidth results from Nsight Compute's
// dram_bytes counters (L2 <-> DRAM traffic).  This model reproduces those
// counters: every warp-level load/store is decomposed into 32-byte sectors
// (the granularity of NVIDIA's L2), deduplicated per request (the coalescer),
// probed against an LRU cache of the device's L2 capacity, and misses /
// dirty-line writebacks are accounted as DRAM traffic.  Cache *filtering*
// effects the paper discusses — the input vector staying resident in the
// 40 MB A100 L2, atomic write amplification staying intra-cache — fall out of
// the model rather than being assumed.
//
// Two implementations of the hot path coexist:
//  * the optimized path — an in-order insertion-dedup coalescer with a
//    monotone fast path, per-set LRU ticks and an MRU-way front check — and
//  * the reference path — the original sort+unique coalescer and global-tick
//    full-scan cache, kept as the behavioral oracle for differential tests
//    and as the baseline the engine-throughput bench measures against.
// Both produce the identical ascending distinct-sector stream per request,
// so every counter is bitwise equal between the paths.

#include <array>
#include <cstdint>
#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/lanes.hpp"
#include "gpusim/trace.hpp"

namespace pd::gpusim {

class CheckContext;  // gpusim/simcheck.hpp — optional correctness analyzer

/// Traffic counters in the spirit of Nsight Compute's memory tables.
struct TrafficCounters {
  std::uint64_t dram_read_bytes = 0;
  std::uint64_t dram_write_bytes = 0;
  std::uint64_t l2_read_sectors = 0;   ///< Sector reads requested of L2.
  std::uint64_t l2_write_sectors = 0;  ///< Sector writes requested of L2.
  std::uint64_t l2_read_hits = 0;
  std::uint64_t l2_write_hits = 0;
  std::uint64_t l2_atomic_ops = 0;     ///< FP atomic RMW ops serviced by L2.
  std::uint64_t warp_requests = 0;     ///< Warp-level vector memory instructions.
  std::uint64_t sectors_requested = 0; ///< Sectors of warp requests, coalesced.
  std::uint64_t scalar_requests = 0;   ///< Uniform (broadcast) instructions.
  std::uint64_t scalar_sectors = 0;    ///< Sectors of scalar requests.

  std::uint64_t dram_bytes() const { return dram_read_bytes + dram_write_bytes; }
  std::uint64_t l2_bytes() const {
    return (l2_read_sectors + l2_write_sectors) * DeviceSpec::kSectorBytes;
  }
  /// All issue-slot sectors (vector + scalar) — the replay term of t_issue.
  std::uint64_t total_sectors() const {
    return sectors_requested + scalar_sectors;
  }
  /// Sectors per warp *vector* request; 4.0 == perfectly coalesced 4-byte
  /// lanes.  Scalar requests are excluded so mixed traffic does not skew the
  /// coalescing metric toward 1.
  double sectors_per_request() const;

  TrafficCounters& operator+=(const TrafficCounters& o);
};

/// Scratch buffer the coalescer compacts a request's distinct sectors into.
/// The inline array covers every access the kernels issue today (<= 64-byte
/// lanes); wider accesses spill to the heap instead of overflowing.
struct SectorBuffer {
  static constexpr unsigned kInlineCapacity = 4 * kWarpSize;
  std::array<std::uint64_t, kInlineCapacity> inline_storage;
  std::vector<std::uint64_t> spill;
  std::uint64_t* data = nullptr;
  unsigned count = 0;

  /// Point `data` at storage able to hold `needed` sectors.
  void reserve(unsigned needed) {
    if (needed <= kInlineCapacity) {
      data = inline_storage.data();
    } else {
      spill.resize(needed);
      data = spill.data();
    }
    count = 0;
  }
};

/// Compact the distinct sectors touched by one warp request into `out`, in
/// ascending order.  Insertion-dedup with a monotone fast path: the kernels'
/// lanes touch monotone (contiguous loads, ascending-column gathers) or
/// near-monotone addresses, so the common case is one compare per sector and
/// no sort; only a non-monotone stream pays a final small sort.
void coalesce_warp_sectors(const Lanes<std::uint64_t>& addr, unsigned size,
                           LaneMask mask, SectorBuffer& out);

/// The seed implementation (collect all, std::sort, std::unique), kept as
/// the oracle: identical output, original cost profile.
void coalesce_warp_sectors_reference(const Lanes<std::uint64_t>& addr,
                                     unsigned size, LaneMask mask,
                                     SectorBuffer& out);

/// Set-associative LRU sector cache with write-back / write-allocate policy.
class CacheModel {
 public:
  /// Sizes the cache without allocating it: the line arrays (24 B per way,
  /// ~32 MiB for a 40 MiB L2) are allocated on the first access, so engines
  /// that never run a counting launch never pay for them.  Until then the
  /// cache is cold, and flush_dirty / invalidate have nothing to do.
  CacheModel(std::uint64_t capacity_bytes, unsigned ways);

  /// Probe one sector; updates counters.  `write` marks the line dirty.
  /// Returns true on hit.  Optimized path: MRU-way front check before the
  /// associativity scan, per-set LRU tick (same relative recency order
  /// within a set as a global tick, hence identical victims).
  bool access(std::uint64_t sector_index, bool write, TrafficCounters& tc);

  /// The seed implementation: full associativity scan, global LRU tick.
  /// Counter-equivalent to access(); do not interleave the two within one
  /// kernel launch (their recency stamps are tracked separately).
  bool access_reference(std::uint64_t sector_index, bool write,
                        TrafficCounters& tc);

  /// Write back all dirty lines (end-of-kernel accounting) without
  /// invalidating clean contents.
  void flush_dirty(TrafficCounters& tc);

  /// Drop all contents (cold cache for an independent measurement).
  void invalidate();

  std::uint64_t capacity_bytes() const { return capacity_bytes_; }
  std::size_t sets() const { return sets_; }
  /// Host bytes held by the line arrays (0 until the first access).
  std::uint64_t resident_bytes() const {
    return lines_.size() * sizeof(Way) +
           set_tick_.size() * sizeof(std::uint64_t) +
           mru_way_.size() * sizeof(std::uint16_t);
  }

 private:
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t stamp = 0;
    bool valid = false;
    bool dirty = false;
  };
  void allocate();
  bool hit_way(Way& way, bool write, TrafficCounters& tc, std::uint64_t stamp);
  bool fill_way(Way* base, std::uint64_t sector_index, bool write,
                TrafficCounters& tc, std::uint64_t stamp, unsigned* way_out);

  std::uint64_t capacity_bytes_;
  unsigned ways_;
  std::size_t sets_;
  std::vector<Way> lines_;  ///< sets_ * ways_, row-major by set.
  std::vector<std::uint64_t> set_tick_;  ///< Per-set recency clock (optimized).
  std::vector<std::uint16_t> mru_way_;   ///< Most-recently-hit way per set.
  std::uint64_t tick_ = 0;               ///< Global clock (reference path).
};

/// Per-device memory model: routes warp requests through the coalescer and
/// the L2 model, accumulating counters for the active kernel.
class MemoryModel {
 public:
  explicit MemoryModel(const DeviceSpec& spec);

  /// One warp-level memory instruction touching per-lane byte ranges
  /// [addr[i], addr[i]+size) for active lanes.  Sectors are deduplicated
  /// across the warp (the coalescer) before probing L2.
  void warp_access(const Lanes<std::uint64_t>& addr, unsigned size, LaneMask mask,
                   bool write);

  /// Uniform (single-lane / broadcast) access.
  void scalar_access(std::uint64_t addr, unsigned size, bool write);

  /// Atomic read-modify-write of one `size`-byte word, serviced at L2.
  void atomic_access(std::uint64_t addr, unsigned size);

  /// Stream a phase-1 block trace through the cache, reproducing exactly the
  /// counter updates the direct path would have made.
  void replay(const BlockTrace& trace);

  /// Route subsequent accesses through the seed (reference) coalescer and
  /// cache scan instead of the optimized ones.  Counters are identical
  /// either way; this exists for differential tests and baseline timing.
  void set_reference_path(bool on) { reference_path_ = on; }
  bool reference_path() const { return reference_path_; }

  void begin_kernel();                       ///< Zero the per-kernel counters.
  TrafficCounters end_kernel();              ///< Flush dirty lines, return counters.
  void invalidate_cache() { cache_.invalidate(); }
  std::uint64_t cache_resident_bytes() const { return cache_.resident_bytes(); }

  const TrafficCounters& counters() const { return counters_; }

 private:
  /// Shared application of one request's sector list — the single place the
  /// per-op counter protocol lives, used by both the direct path and
  /// replay() so the two are equivalent by construction.
  void apply_request(TraceOp op, bool write, const std::uint64_t* sectors,
                     std::uint64_t count);

  CacheModel cache_;
  TrafficCounters counters_;
  SectorBuffer scratch_;
  bool reference_path_ = false;
};

/// Dispatch handle a WarpCtx issues memory instructions through.  The engine
/// wires it to the mode of the launch: direct (serial single-pass), record
/// (phase 1 of trace-replay, appending to the block's trace), or functional
/// (no traffic simulation at all).
class MemRoute {
 public:
  static MemRoute direct(MemoryModel& mem) {
    MemRoute r;
    r.mode_ = TraceMode::kSerial;
    r.mem_ = &mem;
    return r;
  }
  static MemRoute record(BlockTrace& trace) {
    MemRoute r;
    r.mode_ = TraceMode::kTraceReplay;
    r.trace_ = &trace;
    return r;
  }
  static MemRoute functional() {
    MemRoute r;
    r.mode_ = TraceMode::kFunctionalOnly;
    return r;
  }

  /// True when the launch skips traffic simulation — WarpCtx uses this to
  /// elide address generation on its vector ops.
  bool functional_only() const { return mode_ == TraceMode::kFunctionalOnly; }

  /// True when phase 1 runs blocks concurrently: atomic_add_scatter must use
  /// real atomic RMW instead of a plain read-modify-write.
  bool concurrent() const { return concurrent_; }
  void set_concurrent(bool on) { concurrent_ = on; }

  /// The launch's simcheck context, or nullptr when checking is disabled.
  /// WarpCtx/BlockCtx hooks are guarded on this pointer, so the disabled
  /// path costs one null test per instruction and nothing else.
  CheckContext* check() const { return check_; }
  void set_check(CheckContext* check) { check_ = check; }

  void warp_access(const Lanes<std::uint64_t>& addr, unsigned size,
                   LaneMask mask, bool write);
  void scalar_access(std::uint64_t addr, unsigned size, bool write);
  void atomic_access(std::uint64_t addr, unsigned size);

 private:
  TraceMode mode_ = TraceMode::kSerial;
  MemoryModel* mem_ = nullptr;
  BlockTrace* trace_ = nullptr;
  bool concurrent_ = false;
  CheckContext* check_ = nullptr;
};

}  // namespace pd::gpusim
