// Three-layer storage hierarchy — the paper's Sec. 5 outlook, implemented.
//
// "One may also envision a three-layer architecture, where ancestral
//  probability vectors partially reside on disk, in RAM, or the memory of an
//  accelerator card."
//
// TieredStore stacks a small *fast tier* (modelling accelerator/GPU device
// memory: the kernels may only compute on vectors residing there) on top of
// the familiar RAM slot tier, backed by the binary vector file:
//
//      fast tier (m_fast slots)   <- acquire() returns addresses here only
//        | promote / demote         (models PCIe transfers; no disk I/O)
//      RAM tier (m_ram slots)
//        | swap in / out            (real file reads/writes, read skipping)
//      vector file on disk
//
// Demotions from the fast tier fall to the RAM tier (possibly cascading a
// RAM->disk eviction); promotions prefer RAM residency over a disk read.
// Pinning applies to the fast tier (a computation's working triple must be
// on the accelerator), so m_fast >= 3. Both tiers use their own replacement
// strategy instance. Transfer statistics are split per layer: stats() counts
// the disk layer exactly like OutOfCoreStore; tier_stats() counts
// host<->device traffic. Every disk transfer is a
// FileBackend::submit_vector_ops batch, whatever the I/O engine: one
// fast-miss path (swap_in), one prefetch, one flush.
#pragma once

#include <vector>

#include "ooc/file_backend.hpp"
#include "ooc/replacement.hpp"
#include "ooc/storage.hpp"
#include "util/aligned_buffer.hpp"
#include "util/mutex.hpp"

namespace plfoc {

struct TieredStoreOptions {
  std::size_t fast_slots = 3;  ///< accelerator-memory vectors (>= 3)
  std::size_t ram_slots = 8;   ///< host-RAM vectors (>= 1)
  ReplacementPolicy fast_policy = ReplacementPolicy::kLru;
  ReplacementPolicy ram_policy = ReplacementPolicy::kRandom;
  bool read_skipping = true;
  std::uint64_t seed = 1;
  const Tree* tree = nullptr;  ///< for topological policies
  FileBackendOptions file;
};

/// Host<->device transfer counters (the middle layer of the hierarchy).
struct TierStats {
  std::uint64_t promotions = 0;    ///< RAM -> fast copies
  std::uint64_t demotions = 0;     ///< fast -> RAM copies
  std::uint64_t fast_hits = 0;     ///< acquire served from the fast tier
  std::uint64_t ram_hits = 0;      ///< promotion served from RAM (no disk read)
  std::uint64_t bytes_transferred = 0;
};

class TieredStore final : public AncestralStore {
 public:
  TieredStore(std::size_t count, std::size_t width, TieredStoreOptions options);

  const char* backend_name() const override { return "tiered"; }
  std::size_t fast_slots() const;
  std::size_t ram_slots() const;
  /// Copy of the host<->device transfer counters, taken under the slot-table
  /// lock. Returned by value: the counters are mutated under mutex_, so a
  /// reference would hand out unsynchronised state (the same defect class
  /// the PR 2 stats_snapshot() fix closed for OocStats).
  TierStats tier_stats() const;

  /// Advisory prefetch into the *RAM tier*: stage `index` from disk so a
  /// later acquire promotes it over PCIe instead of paying a device read.
  /// No-op unless the vector is on disk and has been written. The RAM
  /// victim's spill and the read form one batch. The install ages the
  /// vector into the RAM strategy via on_prefetch_install, and an install
  /// evicted to disk before any acquire counts stats().prefetch_wasted.
  void prefetch(std::uint32_t index);

  /// Write all dirty state (both tiers) back to the file as one batch. A
  /// failed vector stays dirty; the first failure is thrown after the
  /// others were written.
  void flush() override;

  const FileBackend& file() const { return file_; }

  /// Counters plus the backing file's robustness counters (faults_injected /
  /// io_retries / io_exhausted), which live in backend atomics.
  OocStats stats_snapshot() const override;
  /// Also clears the backing file's robustness counters.
  void reset_stats() override;

 protected:
  double* do_acquire(std::uint32_t index, AccessMode mode) override;
  void do_release(std::uint32_t index) override;

 private:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  struct Slot {
    std::uint32_t vector = kNone;
    std::uint32_t pins = 0;  ///< fast tier only
    bool dirty = false;
  };

  enum class Location : std::uint8_t { kDisk, kRam, kFast };

  double* fast_data(std::uint32_t slot) {
    return fast_arena_.data() + static_cast<std::size_t>(slot) * width_;
  }
  double* ram_data(std::uint32_t slot) {
    return ram_arena_.data() + static_cast<std::size_t>(slot) * width_;
  }

  /// A verified disk read into fast slot `slot` failed: try the recovery
  /// hook (released lock), then either mark the slot dirty (healed) or undo
  /// the install and throw IntegrityError. Requires: lock held (`lock` is
  /// the scoped acquisition of mutex_), `slot` installed for `index` and
  /// pinned once.
  void recover_or_throw(MutexLock& lock, std::uint32_t index,
                        std::uint32_t slot, const VerifyResult& verify)
      PLFOC_REQUIRES(mutex_);
  /// A free fast slot, else the fast strategy's victim (unpinned).
  std::uint32_t pick_fast_slot(std::uint32_t incoming) PLFOC_REQUIRES(mutex_);
  /// A free RAM slot, else the RAM strategy's victim.
  std::uint32_t pick_ram_slot(std::uint32_t incoming) PLFOC_REQUIRES(mutex_);
  /// Retire RAM slot `slot`'s occupant to disk (its spill, if `spilled`,
  /// has landed).
  void drop_ram(std::uint32_t slot, bool spilled) PLFOC_REQUIRES(mutex_);
  /// Move the vector in fast slot `fslot` down to free RAM slot `rslot`.
  void demote(std::uint32_t fslot, std::uint32_t rslot) PLFOC_REQUIRES(mutex_);
  /// The fast-miss path: free a fast slot for `index` (demoting its
  /// occupant, spilling a dirty RAM victim) and, when `need_read`, load
  /// `index` from disk into it — spill and read as one engine batch.
  /// Counts file_reads/bytes_read; the caller counts the promotion. On a
  /// spill failure both tiers keep their occupants and bytes; on a read
  /// failure the cascade has completed and the fast slot stays free.
  std::uint32_t swap_in(std::uint32_t index, bool need_read, bool verify,
                        VerifyResult* out_verify) PLFOC_REQUIRES(mutex_);
  /// One batch: spill RAM slot `spill_slot`'s occupant (unless kNone) and
  /// read `index` into the bounce buffer (unless kNone). Throws IoError when
  /// the spill failed — nothing has changed then; returns the read op, whose
  /// failure the caller throws once its own bookkeeping is done.
  FileBackend::VectorOp spill_and_read(std::uint32_t spill_slot,
                                       std::uint32_t index, bool verify)
      PLFOC_REQUIRES(mutex_);

  /// Base-class counters re-exported under their capability (every mutation
  /// is provably under the slot-table lock).
  OocStats& stats_locked() PLFOC_REQUIRES(mutex_) { return stats_; }
  const OocStats& stats_locked() const PLFOC_REQUIRES(mutex_) {
    return stats_;
  }

  TieredStoreOptions options_;
  AlignedBuffer fast_arena_;
  AlignedBuffer ram_arena_;
  /// One-vector staging buffer: promotions from RAM, and every disk read
  /// until its batch succeeded.
  AlignedBuffer bounce_ PLFOC_GUARDED_BY(mutex_);
  std::vector<Slot> fast_ PLFOC_GUARDED_BY(mutex_);
  std::vector<Slot> ram_ PLFOC_GUARDED_BY(mutex_);
  /// Per vector.
  std::vector<Location> where_ PLFOC_GUARDED_BY(mutex_);
  /// Per vector: slot in its tier.
  std::vector<std::uint32_t> slot_of_ PLFOC_GUARDED_BY(mutex_);
  std::vector<bool> touched_ PLFOC_GUARDED_BY(mutex_);
  /// Vector staged into the RAM tier by prefetch() and not acquired since;
  /// spilling it back to disk while set counts stats().prefetch_wasted.
  std::vector<bool> prefetched_unread_ PLFOC_GUARDED_BY(mutex_);
  FileBackend file_;  ///< internally synchronised (backend atomics)
  std::unique_ptr<ReplacementStrategy> fast_strategy_ PLFOC_GUARDED_BY(mutex_);
  std::unique_ptr<ReplacementStrategy> ram_strategy_ PLFOC_GUARDED_BY(mutex_);
  TierStats tier_stats_ PLFOC_GUARDED_BY(mutex_);
  mutable Mutex mutex_;
};

}  // namespace plfoc
