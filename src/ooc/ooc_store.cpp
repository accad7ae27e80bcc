#include "ooc/ooc_store.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/logging.hpp"

// Audit hooks: record every slot-table mutation with the invariant auditor
// and re-validate the whole table afterwards. All hook sites run under
// mutex_. Compiled out entirely unless configured with -DPLFOC_AUDIT=ON.
#ifdef PLFOC_AUDIT
#define PLFOC_AUDIT_EVENT(when, call) auditor_.enforce((call), (when))
#define PLFOC_AUDIT_TABLE(when) \
  auditor_.enforce(auditor_.check_table(slots_, vector_slot_), (when))
#else
#define PLFOC_AUDIT_EVENT(when, call) ((void)0)
#define PLFOC_AUDIT_TABLE(when) ((void)0)
#endif

namespace plfoc {

std::size_t OocStoreOptions::slots_from_fraction(double f, std::size_t count) {
  PLFOC_REQUIRE(f > 0.0, "RAM fraction f must be positive");
  const double m = std::round(f * static_cast<double>(count));
  return std::max<std::size_t>(3, static_cast<std::size_t>(m));
}

std::size_t OocStoreOptions::slots_from_budget(std::uint64_t budget_bytes,
                                               std::size_t width_doubles) {
  const std::uint64_t w = width_doubles * sizeof(double);
  PLFOC_REQUIRE(budget_bytes >= 3 * w,
                "RAM budget must hold at least 3 ancestral vectors (m >= 3)");
  return static_cast<std::size_t>(budget_bytes / w);
}

OutOfCoreStore::OutOfCoreStore(std::size_t count, std::size_t width,
                               OocStoreOptions options)
    : AncestralStore(count, width),
      options_(std::move(options)),
      arena_((std::min(options_.num_slots, count) + 1) * width),
#ifdef PLFOC_AUDIT
      auditor_(count, std::min(options_.num_slots, count)),
#endif
      slots_(std::min(options_.num_slots, count)),
      slot_count_(std::min(options_.num_slots, count)),
      vector_slot_(count, kNoSlot),
      touched_(count, false),
      prefetched_unread_(count, false),
      float_scratch_(options_.disk_precision == DiskPrecision::kSingle
                         ? 2 * width
                         : 0),
      file_generation_(count, 0),
      file_(count,
            width * (options_.disk_precision == DiskPrecision::kSingle
                         ? sizeof(float)
                         : sizeof(double)),
            options_.file),
      strategy_(make_strategy(StrategyConfig{options_.policy, count,
                                             options_.seed, options_.tree})) {
  PLFOC_REQUIRE(options_.num_slots >= 3,
                "the out-of-core store needs at least 3 slots (m >= 3)");
  // Slot s starts on arena block s; the last block is the spare.
  slot_buffer_.reserve(slot_count_);
  for (std::size_t s = 0; s < slot_count_; ++s)
    slot_buffer_.push_back(arena_.data() + s * width);
  spare_ = arena_.data() + slot_count_ * width;
  PLFOC_LOG(kInfo) << "out-of-core store: " << count << " vectors x " << width
                   << " doubles, " << slot_count_ << " slots ("
                   << (slot_memory_bytes() >> 20) << " MiB RAM), strategy="
                   << strategy_->name();
}

OutOfCoreStore::~OutOfCoreStore() {
  // The contract in ooc/prefetch.hpp: the store outlives the worker thread.
  // A Prefetcher that has not been stopped would keep calling prefetch() on
  // freed slot-table state, so fail loudly instead.
  PLFOC_CHECK(prefetch_guards_.load(std::memory_order_relaxed) == 0);
}

const char* OutOfCoreStore::strategy_name() const {
  // The strategy object is never replaced after construction, but the
  // pointer read still synchronises with mutations of the strategy's own
  // state, which happen under mutex_.
  MutexLock lock(mutex_);
  return strategy_->name();
}

bool OutOfCoreStore::is_resident(std::uint32_t index) const {
  PLFOC_CHECK(index < count_);
  MutexLock lock(mutex_);
  return vector_slot_[index] != kNoSlot;
}

void OutOfCoreStore::refresh_fault_counters() {
  stats_locked().faults_injected = file_.faults_injected();
  stats_locked().io_retries = file_.io_retries();
  stats_locked().io_exhausted = file_.io_exhausted();
  stats_locked().corruptions_injected = file_.corruptions_injected();
  stats_locked().io_batches = file_.io_batches();
  stats_locked().io_coalesced = file_.io_coalesced();
  stats_locked().io_write_coalesced = file_.io_write_coalesced();
}

void* OutOfCoreStore::disk_image(std::uint32_t slot,
                                  std::vector<float>& staging,
                                  std::size_t k) {
  if (options_.disk_precision == DiskPrecision::kDouble) return slot_data(slot);
  const double* src = slot_data(slot);
  float* dst = staging.data() + k * width_;
  for (std::size_t i = 0; i < width_; ++i) dst[i] = static_cast<float>(src[i]);
  return dst;
}

// Images may sit in byte staging (prefetch), so they are read by memcpy.
void OutOfCoreStore::load_image(double* dst, const void* image) const {
  if (options_.disk_precision == DiskPrecision::kDouble) {
    std::memcpy(dst, image, width_ * sizeof(double));
    return;
  }
  const char* src = static_cast<const char*>(image);
  for (std::size_t i = 0; i < width_; ++i) {
    float value;
    std::memcpy(&value, src + i * sizeof(float), sizeof(float));
    dst[i] = static_cast<double>(value);
  }
}

void OutOfCoreStore::count_write(std::uint32_t index) {
  ++stats_locked().file_writes;
  stats_locked().bytes_written += file_.bytes_per_vector();
  ++file_generation_[index];
  PLFOC_AUDIT_EVENT("file write", auditor_.record_file_write(index));
}

std::uint32_t OutOfCoreStore::pick_slot(std::uint32_t incoming,
                                        const std::vector<bool>& claimed) {
  const auto free_to_take = [&](std::uint32_t s) {
    return claimed.empty() || !claimed[s];
  };
  for (std::uint32_t s = 0; s < slots_.size(); ++s)
    if (slots_[s].vector == kNoVector && free_to_take(s)) return s;
  std::vector<std::uint32_t> candidates;
  candidates.reserve(slots_.size());
  for (std::uint32_t s = 0; s < slots_.size(); ++s)
    if (slots_[s].vector != kNoVector && slots_[s].pins == 0 &&
        free_to_take(s))
      candidates.push_back(slots_[s].vector);
  if (candidates.empty()) return kNoSlot;
  const std::uint32_t victim = strategy_->choose_victim(
      {candidates.data(), candidates.size()}, incoming);
  const std::uint32_t slot = vector_slot_[victim];
  PLFOC_CHECK(slot != kNoSlot);
  return slot;
}

bool OutOfCoreStore::begin_evict(std::uint32_t slot) {
  const bool write_back = options_.write_back_clean || slots_[slot].dirty;
  // The auditor sees the victim's pin count and shadow dirty bit before the
  // write-back is even submitted, so it checks the choice independently.
  PLFOC_AUDIT_EVENT("evict",
                    auditor_.record_evict(slots_[slot].vector,
                                          slots_[slot].pins, write_back));
  PLFOC_CHECK(slots_[slot].pins == 0);
  return write_back;
}

void OutOfCoreStore::finish_evict(std::uint32_t slot, bool written) {
  const std::uint32_t victim = slots_[slot].vector;
  if (written) count_write(victim);
  ++stats_locked().evictions;
  if (prefetched_unread_[victim]) {
    prefetched_unread_[victim] = false;
    ++stats_locked().prefetch_wasted;  // staged, never acquired, gone again
  }
  strategy_->on_evict(victim);
  vector_slot_[victim] = kNoSlot;
  slots_[slot].vector = kNoVector;
  slots_[slot].dirty = false;
}

// The one miss path (the paper's swap, Sec. 3.2): take a free slot or the
// replacement strategy's victim, then move the bytes as ONE engine batch —
// the victim's write-back (the paper always writes it back; dirty tracking
// is the write_back_clean = false ablation) and the demand read, unless read
// skipping elides it. The read lands in the spare buffer, which rotates into
// the slot only once the batch succeeded: a failed write-back leaves the
// victim resident with its bytes untouched, and the batch needs no copy of
// them. All bookkeeping runs at completion, write-back first.
std::uint32_t OutOfCoreStore::swap_in(std::uint32_t index, bool need_read,
                                      bool verify, VerifyResult* out_verify) {
  const std::uint32_t slot = pick_slot(index, {});
  PLFOC_REQUIRE(slot != kNoSlot,
                "all RAM slots are pinned; the store needs more slots than "
                "concurrently held leases");
  const bool has_victim = slots_[slot].vector != kNoVector;
  const bool write_back = has_victim && begin_evict(slot);

  FileBackend::VectorOp ops[2];
  std::size_t n = 0;
  if (write_back) {
    ops[n].is_write = true;
    ops[n].index = slots_[slot].vector;
    ops[n].buffer = disk_image(slot, float_scratch_, 0);
    ++n;
  }
  FileBackend::VectorOp* read = nullptr;
  if (need_read) {
    read = &ops[n++];
    read->index = index;
    read->verify = verify && file_.integrity();
    read->buffer = options_.disk_precision == DiskPrecision::kDouble
                       ? static_cast<void*>(spare_)
                       : static_cast<void*>(float_scratch_.data() + width_);
  }
  if (n > 0) {
    file_.submit_vector_ops(ops, n);
    refresh_fault_counters();
  }

  if (write_back) FileBackend::throw_if_failed(ops[0]);
  if (has_victim) finish_evict(slot, write_back);
  if (read != nullptr) {
    FileBackend::throw_if_failed(*read);  // the slot stays free
    if (options_.disk_precision == DiskPrecision::kDouble)
      std::swap(slot_buffer_[slot], spare_);
    else
      load_image(slot_data(slot), read->buffer);
    ++stats_locked().file_reads;
    stats_locked().bytes_read += file_.bytes_per_vector();
    *out_verify = read->verify_result;
  }
  return slot;
}

double* OutOfCoreStore::do_acquire(std::uint32_t index, AccessMode mode) {
  PLFOC_CHECK(index < count_);
  // MutexLock (not a plain guard): a failed verification releases the lock
  // around the recovery hook, whose child acquires re-enter this method.
  MutexLock lock(mutex_);
  std::uint32_t slot = vector_slot_[index];
  [[maybe_unused]] bool read_skipped = false;  // only consumed by audit hooks
  VerifyResult verify;  // stays kOk unless a verified swap-in failed
  if (slot != kNoSlot) {
    ++stats_locked().hits;
  } else {
    // Swap the requested vector in — unless this access overwrites it anyway
    // and read skipping applies (Sec. 3.4). First-ever accesses never have
    // meaningful file contents either way (the file is zero-preallocated).
    const bool need_read = mode == AccessMode::kRead || !options_.read_skipping;
    // Only kRead misses verify: a paper-mode write-miss read loads bytes that
    // are about to be overwritten, so damage there is never consumed.
    slot = swap_in(index, need_read, mode == AccessMode::kRead, &verify);
    // Counted once the swap landed: a throwing miss leaves every store
    // counter as it was (only the backend's I/O counters saw the attempt).
    ++stats_locked().misses;
    if (!touched_[index]) ++stats_locked().cold_misses;
    if (!need_read) {
      ++stats_locked().skipped_reads;
      read_skipped = true;
    }
    vector_slot_[index] = slot;
    slots_[slot].vector = index;
    strategy_->on_load(index);
  }
  ++stats_locked().accesses;
  touched_[index] = true;
  // The kernel is consuming this vector: whatever prefetch staged it was
  // useful, so it can no longer count as wasted.
  prefetched_unread_[index] = false;
  ++slots_[slot].pins;
  if (mode == AccessMode::kWrite) slots_[slot].dirty = true;
  strategy_->on_access(index);
  // Self-healing happens with the slot fully installed and pinned: the pin
  // keeps the recomputation target stable while the hook's child acquires
  // recurse through this method with the lock released.
  if (!verify.ok()) recover_or_throw(lock, index, slot, verify);
  PLFOC_AUDIT_EVENT("acquire", auditor_.record_acquire(
                                   index, mode == AccessMode::kWrite,
                                   read_skipped));
  PLFOC_AUDIT_TABLE("acquire");
  PLFOC_AUDIT_EVENT("acquire stats", auditor_.check_stats(stats_locked()));
  return slot_data(slot);
}

// The body juggles the capability (unlocks around the re-entrant recovery
// hook, relocks before mutating the slot table); the REQUIRES contract on
// the declaration is what callers are checked against.
void OutOfCoreStore::recover_or_throw(MutexLock& lock, std::uint32_t index,
                                      std::uint32_t slot,
                                      const VerifyResult& verify)
    PLFOC_NO_THREAD_SAFETY_ANALYSIS {
  std::uint64_t recomputed = 0;
  if (recovery_hook_) {
    double* dst = slot_data(slot);  // pinned: stable across the unlock
    lock.unlock();
    try {
      recomputed = recovery_hook_(index, dst);
    } catch (...) {
      recomputed = 0;  // a throwing hook is an unrecoverable vector
    }
    lock.lock();
  }
  // Count the whole episode at resolution, under one lock hold: nested
  // acquires inside the hook run check_stats mid-flight and must never see
  // the recoveries + unrecovered == failures identity half-updated.
  ++stats_locked().integrity_failures;
  if (recomputed > 0) {
    ++stats_locked().integrity_recoveries;
    stats_locked().recovery_recomputes += recomputed;
    refresh_fault_counters();
    if (options_.disk_precision == DiskPrecision::kSingle) {
      // Match what an intact disk read would have delivered: the recomputed
      // doubles round-trip through the on-disk float representation.
      double* data = slot_data(slot);
      for (std::size_t i = 0; i < width_; ++i)
        data[i] = static_cast<double>(static_cast<float>(data[i]));
    }
    // The healed content supersedes the corrupt file record; the dirty bit
    // routes it back to the file through the normal write-back path.
    slots_[slot].dirty = true;
    PLFOC_AUDIT_EVENT("recovery", auditor_.record_recovery(index, true));
    return;
  }
  ++stats_locked().integrity_unrecovered;
  refresh_fault_counters();
  PLFOC_AUDIT_EVENT("recovery", auditor_.record_recovery(index, false));
  // Undo the install: the acquire is failing, so its pin and residency must
  // not outlive this throw (callers never see the lease).
  PLFOC_CHECK(slots_[slot].pins == 1);
  slots_[slot] = Slot{};
  vector_slot_[index] = kNoSlot;
  strategy_->on_evict(index);
  PLFOC_AUDIT_TABLE("integrity failure");
  PLFOC_AUDIT_EVENT("integrity stats", auditor_.check_stats(stats_locked()));
  throw IntegrityError(
      "out-of-core swap-in", index, verify.expected_generation,
      verify.found_generation, verify.injected,
      std::string(verify.status_name()) +
          (recovery_hook_ ? "; recomputation failed (children unmaterialized "
                            "during a read-skip window, or no free slot)"
                          : "; no recovery hook registered"));
}

void OutOfCoreStore::do_release(std::uint32_t index) {
  MutexLock lock(mutex_);
  const std::uint32_t slot = vector_slot_[index];
  PLFOC_CHECK(slot != kNoSlot && slots_[slot].pins > 0);
  PLFOC_AUDIT_EVENT("release",
                    auditor_.record_release(index, slots_[slot].pins));
  --slots_[slot].pins;
  PLFOC_AUDIT_TABLE("release");
}

// Stage up to `count` reads as ONE engine batch — vectors adjacent in the
// file coalesce into ranged transfers inside submit_vector_ops — WITHOUT the
// slot-table lock, so a demand miss on the engine thread never waits behind
// prefetch I/O; then install whatever survives re-validation under the
// lock. Prefetching is advisory: per-op failures are recorded, never thrown
// (this runs on the Prefetcher's worker thread, where a throw would
// terminate the process) — the demand access retries on the engine thread,
// catchably.
void OutOfCoreStore::prefetch_batch(const std::uint32_t* indices,
                                    std::size_t count) {
  if (count == 0) return;
  // Advisory cancellation: returning early is enough — the demand path's
  // acquire() throws the typed error.
  if (cancel_.cancelled_or_expired()) return;
  // Serialises prefetch callers and owns the staging buffers. mutex_ is only
  // taken in short sections below.
  MutexLock io_lock(prefetch_io_mutex_);

  struct Item {
    std::uint32_t index;
    std::uint64_t generation;
  };
  std::vector<Item> items;
  items.reserve(count);
  {
    MutexLock lock(mutex_);
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint32_t index = indices[i];
      PLFOC_CHECK(index < count_);
      if (vector_slot_[index] != kNoSlot) continue;  // already resident
      // Never prefetch a vector that has not been written yet: the file
      // holds no meaningful bytes for it, and the first real access is
      // write-mode.
      if (!touched_[index]) continue;
      bool duplicate = false;  // a repeated plan entry stages one read
      for (const Item& item : items)
        if (item.index == index) { duplicate = true; break; }
      if (!duplicate) items.push_back({index, file_generation_[index]});
    }
  }
  if (items.empty()) return;

  const bool single = options_.disk_precision == DiskPrecision::kSingle;
  const std::size_t n = items.size();
  const std::size_t image_bytes = file_.bytes_per_vector();
  if (prefetch_scratch_.size() < n * image_bytes)
    prefetch_scratch_.resize(n * image_bytes);
  std::vector<FileBackend::VectorOp> ops(n);
  for (std::size_t k = 0; k < n; ++k) {
    ops[k].index = items[k].index;
    // Prefetch never recovers: a verification failure just drops the
    // staged read, and the demand access re-verifies under the slot-table
    // lock, where the recovery hook is callable and IntegrityError is
    // catchable. This also absorbs the benign race where a concurrent
    // write-back tears the checksum mirror read (a spurious mismatch).
    ops[k].verify = file_.integrity();
    ops[k].buffer = prefetch_scratch_.data() + k * image_bytes;
  }
  // Between-AIO-batch cancellation point: nothing has been submitted or
  // installed yet, only private scratch staged, so bailing out here leaves
  // the store untouched — the "within one AIO batch" granularity bound.
  if (cancel_.cancelled_or_expired()) return;
  file_.submit_vector_ops(ops.data(), n);

  MutexLock lock(mutex_);
  refresh_fault_counters();

  // Install in three passes so the victim write-backs form ONE engine batch
  // (adjacent victims merge into ranged writes inside submit_vector_ops):
  //
  //   A. re-validate each staged read and claim a slot for the survivors —
  //      free slots first, then strategy-chosen victims. Slots claimed (and
  //      victims chosen) earlier in the batch are excluded; vectors
  //      installed by this batch are never victim candidates within it
  //      (they are exactly the lookahead the batch exists to protect).
  //   B. submit every victim write-back as one batch.
  //   C. per surviving install, in op order: fold the write-back outcome (a
  //      failed write keeps its victim resident and skips the install), then
  //      evict, install, and age the vector in via on_prefetch_install.
  struct Pending {
    std::size_t k = 0;  ///< ops[k] / items[k]
    std::uint32_t slot = kNoSlot;
    bool has_victim = false;
    bool write_back = false;
    std::size_t wop = 0;  ///< index into wops when write_back
  };
  std::vector<Pending> pending;
  pending.reserve(n);
  std::vector<bool> slot_claimed(slots_.size(), false);

  for (std::size_t k = 0; k < n; ++k) {
    const FileBackend::VectorOp& op = ops[k];
    const std::uint32_t index = items[k].index;
    if (!op.ok()) {
      PLFOC_AUDIT_TABLE("prefetch io-error");
      continue;
    }
    stats_locked().bytes_read += image_bytes;
    if (!op.verify_result.ok()) {
      ++stats_locked().prefetch_stale;
      PLFOC_AUDIT_TABLE("prefetch integrity drop");
      continue;
    }
    // The vector may have been demand-loaded while the read was in flight
    // (drop — it is already resident), or loaded, dirtied and evicted again,
    // making the staged bytes stale (drop — the file's newer contents win
    // on the next access).
    if (vector_slot_[index] != kNoSlot ||
        file_generation_[index] != items[k].generation) {
      ++stats_locked().prefetch_stale;
      PLFOC_AUDIT_TABLE("prefetch stale");
      continue;
    }
    Pending p;
    p.k = k;
    p.slot = pick_slot(index, slot_claimed);
    if (p.slot == kNoSlot) continue;  // everything pinned or claimed: skip
    p.has_victim = slots_[p.slot].vector != kNoVector;
    p.write_back = p.has_victim && begin_evict(p.slot);
    slot_claimed[p.slot] = true;
    pending.push_back(p);
  }

  // B: the eviction-write batch. Victims source their slot buffers (or
  // their float images) directly: stable under mutex_, and the staged read
  // data only lands in pass C.
  std::vector<FileBackend::VectorOp> wops;
  std::vector<float> wfloat;
  for (Pending& p : pending) {
    if (!p.write_back) continue;
    p.wop = wops.size();
    FileBackend::VectorOp wop;
    wop.is_write = true;
    wop.index = slots_[p.slot].vector;
    wops.push_back(wop);
  }
  if (!wops.empty()) {
    if (single) wfloat.resize(wops.size() * width_);
    for (const Pending& p : pending)
      if (p.write_back)
        wops[p.wop].buffer = disk_image(p.slot, wfloat, p.wop);
    file_.submit_vector_ops(wops.data(), wops.size());
    refresh_fault_counters();
  }

  // C: fold outcomes and install, in op order.
  for (const Pending& p : pending) {
    const std::uint32_t index = items[p.k].index;
    if (p.write_back && !wops[p.wop].ok()) continue;  // victim stays
    if (p.has_victim) finish_evict(p.slot, p.write_back);
    load_image(slot_data(p.slot), ops[p.k].buffer);
    ++stats_locked().prefetch_reads;
    vector_slot_[index] = p.slot;
    slots_[p.slot].vector = index;
    strategy_->on_load(index);
    strategy_->on_prefetch_install(index);
    prefetched_unread_[index] = true;
    PLFOC_AUDIT_TABLE("prefetch");
  }
}

// Write every dirty slot as ONE batch, ordered by vector index so
// file-adjacent vectors sit next to each other and merge into ranged writes.
// Bookkeeping in op order; a failed slot stays dirty (a later flush or
// eviction retries it) and the first failure is thrown once every other
// dirty slot has been written.
void OutOfCoreStore::flush() {
  MutexLock lock(mutex_);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> dirty;  // {vector, slot}
  for (std::uint32_t s = 0; s < slots_.size(); ++s)
    if (slots_[s].vector != kNoVector && slots_[s].dirty)
      dirty.push_back({slots_[s].vector, s});
  std::sort(dirty.begin(), dirty.end());
  std::vector<FileBackend::VectorOp> ops(dirty.size());
  std::vector<float> wfloat(
      options_.disk_precision == DiskPrecision::kSingle ? dirty.size() * width_
                                                        : 0);
  for (std::size_t k = 0; k < dirty.size(); ++k) {
    ops[k].is_write = true;
    ops[k].index = dirty[k].first;
    ops[k].buffer = disk_image(dirty[k].second, wfloat, k);
  }
  file_.submit_vector_ops(ops.data(), ops.size());
  refresh_fault_counters();
  const FileBackend::VectorOp* failed = nullptr;
  for (std::size_t k = 0; k < dirty.size(); ++k) {
    if (!ops[k].ok()) {
      if (failed == nullptr) failed = &ops[k];
      continue;
    }
    count_write(ops[k].index);
    slots_[dirty[k].second].dirty = false;
  }
  file_.sync();
  PLFOC_AUDIT_TABLE("flush");
  if (failed != nullptr) FileBackend::throw_if_failed(*failed);
}

OocStats OutOfCoreStore::stats_snapshot() const {
  MutexLock lock(mutex_);
  OocStats out = stats_locked();
  // Overlay the robustness counters straight from the backend atomics: an
  // IoError unwinds past the stats_ mirroring, so the mirror can be stale
  // exactly when a failure report is being assembled.
  out.faults_injected = file_.faults_injected();
  out.io_retries = file_.io_retries();
  out.io_exhausted = file_.io_exhausted();
  out.corruptions_injected = file_.corruptions_injected();
  out.io_batches = file_.io_batches();
  out.io_coalesced = file_.io_coalesced();
  out.io_write_coalesced = file_.io_write_coalesced();
  return out;
}

void OutOfCoreStore::reset_stats() {
  MutexLock lock(mutex_);
  file_.reset_fault_counters();
  // The async-traffic counters have their own reset: without it a post-reset
  // snapshot overlays pre-reset io_batches/io_coalesced over zeroed stats.
  file_.reset_io_counters();
  stats_locked() = OocStats{};
  // Forget pre-reset prefetch installs, so prefetch_wasted keeps satisfying
  // prefetch_wasted <= prefetch_reads within the new counting window.
  std::fill(prefetched_unread_.begin(), prefetched_unread_.end(), false);
#ifdef PLFOC_AUDIT
  auditor_.reset_stats_baseline();
#endif
}

}  // namespace plfoc
