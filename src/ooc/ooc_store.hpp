// The out-of-core slot manager — the paper's core contribution (Sec. 3.2-3.4).
//
// All `count` ancestral probability vectors live in a binary backing file;
// only `m` RAM slots of w bytes each are allocated (m = f·n in the paper's
// experiments, or m chosen from a byte budget as with RAxML's -L flag).
// An acquire of a non-resident vector selects a victim slot through the
// configured replacement strategy (pinned slots excluded), swaps the victim
// out to the file, and the requested vector in — unless the access is
// write-only and read skipping elides the swap-in read. Every transfer —
// demand miss, prefetch, flush — is a FileBackend::submit_vector_ops batch,
// whatever the I/O engine: there is one miss path and one flush.
//
// Thread safety: all slot-table mutations are guarded by one mutex so the
// optional prefetch thread (ooc/prefetch.hpp) can swap vectors in while the
// likelihood engine computes. Lease data pointers remain stable while pinned.
#pragma once

#include <atomic>
#include <vector>

#include "ooc/audit.hpp"
#include "ooc/file_backend.hpp"
#include "ooc/replacement.hpp"
#include "ooc/storage.hpp"
#include "util/aligned_buffer.hpp"
#include "util/mutex.hpp"

namespace plfoc {

/// On-disk numeric precision of ancestral vectors. The paper's companion
/// technique (Berger & Stamatakis 2010, cited as [1]) halves PLF memory with
/// single-precision arithmetic and the paper notes the approaches compose:
/// kSingle stores vectors as floats on disk (half the file size and half the
/// transfer bytes) while RAM slots and kernels stay double. Swaps convert.
/// Results are no longer bit-identical to all-double runs (a controlled,
/// tested perturbation ~1e-7 relative per value); default remains kDouble.
enum class DiskPrecision { kDouble, kSingle };

struct OocStoreOptions {
  /// Number of RAM slots m (>= 3; the engine pins up to 3 vectors at once).
  std::size_t num_slots = 3;
  ReplacementPolicy policy = ReplacementPolicy::kRandom;
  /// Elide the swap-in read for write-only first accesses (Sec. 3.4).
  bool read_skipping = true;
  DiskPrecision disk_precision = DiskPrecision::kDouble;
  /// Paper behaviour: a swap always writes the victim back. With false,
  /// clean victims are dropped without a write (dirty-tracking extension).
  bool write_back_clean = true;
  std::uint64_t seed = 1;                  ///< Random strategy seed
  const Tree* tree = nullptr;              ///< required for kTopological
  FileBackendOptions file;                 ///< backing file configuration

  /// Convenience: slots from the paper's fraction parameter f (m = max(3, round(f·n))).
  static std::size_t slots_from_fraction(double f, std::size_t count);
  /// Convenience: slots from a RAM byte budget (RAxML's -L flag).
  static std::size_t slots_from_budget(std::uint64_t budget_bytes,
                                       std::size_t width_doubles);
};

class OutOfCoreStore final : public AncestralStore {
 public:
  OutOfCoreStore(std::size_t count, std::size_t width, OocStoreOptions options);
  /// Aborts if a Prefetcher worker thread is still attached: the contract in
  /// ooc/prefetch.hpp is that the store outlives the thread, and tearing the
  /// slot table down under a live worker corrupts the backing file.
  ~OutOfCoreStore() override;

  const char* backend_name() const override { return "out-of-core"; }
  std::size_t num_slots() const { return slot_count_; }
  const char* strategy_name() const;

  /// True if the vector is currently in a RAM slot.
  bool is_resident(std::uint32_t index) const;

  /// Bring `index` into RAM (read mode) without pinning it: a one-index
  /// prefetch_batch. No-op if resident; never evicts a pinned vector.
  void prefetch(std::uint32_t index) { prefetch_batch(&index, 1); }

  /// Advisory prefetch, used by the prefetch thread: stage up to `count`
  /// reads as ONE engine batch outside the slot-table lock (adjacent vectors
  /// coalesce into ranged transfers), then install whatever survives
  /// re-validation of residency and the vector's file generation under the
  /// lock. Installs are counted in stats().prefetch_reads, not as accesses;
  /// raced installs are dropped and counted in stats().prefetch_stale.
  /// Never throws an I/O error.
  void prefetch_batch(const std::uint32_t* indices, std::size_t count);

  /// How many queued reads a prefetch_batch caller should aim to hand over
  /// at once: the engine's queue depth (1 for sync).
  std::size_t prefetch_batch_limit() const { return file_.io_depth(); }

  /// Write every dirty slot back to the file as one batch (e.g. before
  /// checkpointing). A failed slot stays dirty; the first failure is thrown
  /// after the other slots were written.
  void flush() override;

  /// Counters are mutated under mutex_ (including by the prefetch thread),
  /// so a concurrent snapshot must take the same lock. The robustness
  /// counters (faults_injected / io_retries / io_exhausted) are read fresh
  /// from the backing file, so a snapshot taken right after an IoError still
  /// reflects the failed transfer.
  OocStats stats_snapshot() const override;

  /// Also clears the backing file's robustness counters (and, in audit
  /// builds, the auditor's counter-monotonicity baseline).
  void reset_stats() override;

  /// Backing-file accounting (I/O op counts, modeled device time).
  const FileBackend& file() const { return file_; }
  FileBackend& file() { return file_; }

  /// RAM actually allocated for slots, in bytes.
  std::uint64_t slot_memory_bytes() const {
    return static_cast<std::uint64_t>(slot_count_) * width_ * sizeof(double);
  }

  /// Lifecycle guard held by each Prefetcher while its worker thread may
  /// touch this store (see ~OutOfCoreStore).
  void attach_prefetch_guard() {
    prefetch_guards_.fetch_add(1, std::memory_order_relaxed);
  }
  void detach_prefetch_guard() {
    prefetch_guards_.fetch_sub(1, std::memory_order_relaxed);
  }

 protected:
  double* do_acquire(std::uint32_t index, AccessMode mode) override;
  void do_release(std::uint32_t index) override;

 private:
  static constexpr std::uint32_t kNoSlot = kOocNoSlot;
  static constexpr std::uint32_t kNoVector = kOocNoVector;

  // The slot record itself lives in ooc/audit.hpp so the PLFOC_AUDIT
  // invariant auditor can validate the table without friending into here.
  using Slot = OocSlot;

  /// Slot buffers rotate with the spare on every swap-in read, so the
  /// address lives in the slot table. A pinned slot never rotates: lease
  /// data pointers stay valid until release.
  double* slot_data(std::uint32_t slot) PLFOC_REQUIRES(mutex_) {
    return slot_buffer_[slot];
  }
  /// The slot the next install of `incoming` goes to: a free slot, else the
  /// strategy's victim among unpinned slots. Slots marked in `claimed` (may
  /// be empty) are skipped. kNoSlot when nothing is left.
  std::uint32_t pick_slot(std::uint32_t incoming,
                          const std::vector<bool>& claimed)
      PLFOC_REQUIRES(mutex_);
  /// Start evicting `slot`'s occupant: returns whether it is written back.
  bool begin_evict(std::uint32_t slot) PLFOC_REQUIRES(mutex_);
  /// Retire `slot`'s occupant once its write-back (if `written`) landed.
  void finish_evict(std::uint32_t slot, bool written) PLFOC_REQUIRES(mutex_);
  /// Count one landed write-back of `index`.
  void count_write(std::uint32_t index) PLFOC_REQUIRES(mutex_);
  /// The miss path: pick a slot for `index` and, in one batch, write its
  /// victim back and read `index` in (when `need_read`). `verify` checks
  /// the read against its checksum; the result lands in *out_verify. On a
  /// write-back failure nothing changes — the victim stays resident with
  /// its bytes — and IoError is thrown; on a read failure the eviction has
  /// completed and the slot stays free.
  std::uint32_t swap_in(std::uint32_t index, bool need_read, bool verify,
                        VerifyResult* out_verify) PLFOC_REQUIRES(mutex_);
  /// The on-disk image of `slot`: the slot itself, or (kSingle) its float
  /// conversion staged at element k * width of `staging`.
  void* disk_image(std::uint32_t slot, std::vector<float>& staging,
                   std::size_t k) PLFOC_REQUIRES(mutex_);
  /// Widen an on-disk image into `dst`.
  void load_image(double* dst, const void* image) const;
  /// A verified swap-in failed: try the recovery hook (released lock), then
  /// either mark the slot dirty (healed — the recomputed content supersedes
  /// the corrupt record) or undo the install and throw IntegrityError.
  /// Requires: lock held (`lock` is the scoped acquisition of mutex_),
  /// `slot` installed for `index` and pinned once.
  void recover_or_throw(MutexLock& lock, std::uint32_t index,
                        std::uint32_t slot, const VerifyResult& verify)
      PLFOC_REQUIRES(mutex_);
  /// Mirror the backing file's robustness counters into the stats block.
  void refresh_fault_counters() PLFOC_REQUIRES(mutex_);

  /// Base-class counters re-exported under their capability: every counter
  /// mutation in this store goes through here so the analysis can prove it
  /// happens with the slot-table lock held.
  OocStats& stats_locked() PLFOC_REQUIRES(mutex_) { return stats_; }
  const OocStats& stats_locked() const PLFOC_REQUIRES(mutex_) {
    return stats_;
  }

  OocStoreOptions options_;
  /// slot_count_ + 1 vector buffers: one per slot plus the spare.
  AlignedBuffer arena_;
#ifdef PLFOC_AUDIT
  /// Slot-table invariant oracle.
  StoreAuditor auditor_ PLFOC_GUARDED_BY(mutex_);
#endif
  std::vector<Slot> slots_ PLFOC_GUARDED_BY(mutex_);
  std::size_t slot_count_ = 0;  ///< slots_.size(); ctor-immutable
  /// Per slot: its current buffer in arena_.
  std::vector<double*> slot_buffer_ PLFOC_GUARDED_BY(mutex_);
  /// The buffer no slot owns: swap-in reads land here and rotate into the
  /// slot once the batch succeeded.
  double* spare_ PLFOC_GUARDED_BY(mutex_) = nullptr;
  /// Per vector: slot or kNoSlot.
  std::vector<std::uint32_t> vector_slot_ PLFOC_GUARDED_BY(mutex_);
  /// Vector ever accessed (cold-miss tracking).
  std::vector<bool> touched_ PLFOC_GUARDED_BY(mutex_);
  /// Vector was installed by a prefetch and has not been demand-acquired
  /// since: evicting it while set counts stats().prefetch_wasted (the read
  /// was paid for and the slot churned for nothing). Cleared on acquire and
  /// by reset_stats() (so prefetch_wasted <= prefetch_reads holds across a
  /// counter reset).
  std::vector<bool> prefetched_unread_ PLFOC_GUARDED_BY(mutex_);
  /// kSingle only: the miss path's float images, write-back in the first
  /// width floats, demand read in the second.
  std::vector<float> float_scratch_ PLFOC_GUARDED_BY(mutex_);
  /// Per vector: bumped by every landed write-back (under mutex_). Lets
  /// prefetch_batch() detect that bytes it staged without the lock were
  /// superseded by a write-back that happened during the read (the
  /// write-then-evict ABA the residency check alone cannot see).
  std::vector<std::uint64_t> file_generation_ PLFOC_GUARDED_BY(mutex_);
  FileBackend file_;  ///< internally synchronised (backend atomics)
  std::unique_ptr<ReplacementStrategy> strategy_ PLFOC_GUARDED_BY(mutex_);
  std::atomic<int> prefetch_guards_{0};  ///< live Prefetcher worker threads
  mutable Mutex mutex_;

  // Prefetch staging state, private to prefetch_batch() and guarded by
  // prefetch_io_mutex_ (lock order: prefetch_io_mutex_ before mutex_, never
  // the reverse — declared to the analysis via ACQUIRED_BEFORE).
  Mutex prefetch_io_mutex_ PLFOC_ACQUIRED_BEFORE(mutex_);
  /// On-disk images of one prefetch batch, back to back.
  std::vector<char> prefetch_scratch_ PLFOC_GUARDED_BY(prefetch_io_mutex_);
};

}  // namespace plfoc
