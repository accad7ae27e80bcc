#include "ooc/tiered_store.hpp"

#include <algorithm>
#include <cstring>

#include "util/logging.hpp"

namespace plfoc {

TieredStore::TieredStore(std::size_t count, std::size_t width,
                         TieredStoreOptions options)
    : AncestralStore(count, width),
      options_(std::move(options)),
      fast_arena_(std::min(options_.fast_slots, count) * width),
      ram_arena_(std::min(options_.ram_slots, count) * width),
      bounce_(width),
      fast_(std::min(options_.fast_slots, count)),
      ram_(std::min(options_.ram_slots, count)),
      where_(count, Location::kDisk),
      slot_of_(count, kNone),
      touched_(count, false),
      prefetched_unread_(count, false),
      file_(count, width * sizeof(double), options_.file),
      fast_strategy_(make_strategy(StrategyConfig{
          options_.fast_policy, count, options_.seed, options_.tree})),
      ram_strategy_(make_strategy(StrategyConfig{
          options_.ram_policy, count, options_.seed + 1, options_.tree})) {
  PLFOC_REQUIRE(options_.fast_slots >= 3,
                "the fast tier needs at least 3 slots (working triple)");
  PLFOC_REQUIRE(options_.ram_slots >= 1, "the RAM tier needs at least 1 slot");
  PLFOC_LOG(kInfo) << "tiered store: " << count << " vectors, fast="
                   << fast_.size() << " ram=" << ram_.size() << " slots";
}

std::size_t TieredStore::fast_slots() const {
  MutexLock lock(mutex_);
  return fast_.size();
}

std::size_t TieredStore::ram_slots() const {
  MutexLock lock(mutex_);
  return ram_.size();
}

TierStats TieredStore::tier_stats() const {
  MutexLock lock(mutex_);
  return tier_stats_;
}

std::uint32_t TieredStore::pick_fast_slot(std::uint32_t incoming) {
  for (std::uint32_t s = 0; s < fast_.size(); ++s)
    if (fast_[s].vector == kNone) return s;
  std::vector<std::uint32_t> candidates;
  candidates.reserve(fast_.size());
  for (const Slot& slot : fast_)
    if (slot.pins == 0) candidates.push_back(slot.vector);
  PLFOC_REQUIRE(!candidates.empty(),
                "all fast-tier slots are pinned; increase fast_slots");
  const std::uint32_t victim = fast_strategy_->choose_victim(
      {candidates.data(), candidates.size()}, incoming);
  const std::uint32_t slot = slot_of_[victim];
  PLFOC_CHECK(fast_[slot].vector == victim && fast_[slot].pins == 0);
  return slot;
}

std::uint32_t TieredStore::pick_ram_slot(std::uint32_t incoming) {
  for (std::uint32_t s = 0; s < ram_.size(); ++s)
    if (ram_[s].vector == kNone) return s;
  // RAM-tier occupants are never pinned (pins live at the fast tier), so any
  // resident vector is a candidate.
  std::vector<std::uint32_t> candidates;
  candidates.reserve(ram_.size());
  for (const Slot& slot : ram_) candidates.push_back(slot.vector);
  const std::uint32_t victim = ram_strategy_->choose_victim(
      {candidates.data(), candidates.size()}, incoming);
  const std::uint32_t slot = slot_of_[victim];
  PLFOC_CHECK(ram_[slot].vector == victim);
  return slot;
}

void TieredStore::drop_ram(std::uint32_t slot, bool spilled) {
  const std::uint32_t victim = ram_[slot].vector;
  if (spilled) {
    ++stats_locked().file_writes;
    stats_locked().bytes_written += width_ * sizeof(double);
  }
  ++stats_locked().evictions;
  if (prefetched_unread_[victim]) {
    prefetched_unread_[victim] = false;
    ++stats_locked().prefetch_wasted;
  }
  ram_strategy_->on_evict(victim);
  where_[victim] = Location::kDisk;
  slot_of_[victim] = kNone;
  ram_[slot].vector = kNone;
  ram_[slot].dirty = false;
}

void TieredStore::demote(std::uint32_t fslot, std::uint32_t rslot) {
  Slot& fast_slot = fast_[fslot];
  const std::uint32_t vector = fast_slot.vector;
  std::memcpy(ram_data(rslot), fast_data(fslot), width_ * sizeof(double));
  ++tier_stats_.demotions;
  tier_stats_.bytes_transferred += width_ * sizeof(double);
  ram_[rslot].vector = vector;
  ram_[rslot].dirty = fast_slot.dirty;
  ram_strategy_->on_load(vector);
  ram_strategy_->on_access(vector);
  where_[vector] = Location::kRam;
  slot_of_[vector] = rslot;
  fast_strategy_->on_evict(vector);
  fast_slot.vector = kNone;
  fast_slot.dirty = false;
}

// The one fast-miss path. Freeing a fast slot demotes its occupant to the
// RAM tier, which may first spill the RAM tier's victim to disk (the tiers
// multiply traffic, so only dirty victims are written back). The spill and
// the demand read — unless read skipping elides it — are ONE engine batch;
// the read lands in the bounce buffer, so a failed spill leaves both tiers
// exactly as they were. Replacement strategies are consulted once each, in
// cascade order (Random consumes RNG state).
std::uint32_t TieredStore::swap_in(std::uint32_t index, bool need_read,
                                   bool verify, VerifyResult* out_verify) {
  const std::uint32_t fslot = pick_fast_slot(index);
  const std::uint32_t fast_victim = fast_[fslot].vector;
  std::uint32_t rslot = kNone;
  bool ram_victim = false;
  bool spill = false;
  if (fast_victim != kNone) {
    rslot = pick_ram_slot(fast_victim);
    ram_victim = ram_[rslot].vector != kNone;
    spill = ram_victim && ram_[rslot].dirty;
  }

  const FileBackend::VectorOp read =
      spill_and_read(spill ? rslot : kNone, need_read ? index : kNone, verify);
  if (ram_victim) drop_ram(rslot, spill);
  if (fast_victim != kNone) demote(fslot, rslot);
  if (need_read) {
    FileBackend::throw_if_failed(read);  // the fast slot stays free
    std::memcpy(fast_data(fslot), bounce_.data(), width_ * sizeof(double));
    ++stats_locked().file_reads;
    stats_locked().bytes_read += width_ * sizeof(double);
    *out_verify = read.verify_result;
  }
  return fslot;
}

FileBackend::VectorOp TieredStore::spill_and_read(std::uint32_t spill_slot,
                                                  std::uint32_t index,
                                                  bool verify) {
  FileBackend::VectorOp ops[2];
  std::size_t n = 0;
  if (spill_slot != kNone) {
    ops[n].is_write = true;
    ops[n].index = ram_[spill_slot].vector;
    ops[n].buffer = ram_data(spill_slot);
    ++n;
  }
  FileBackend::VectorOp& read = ops[n];
  if (index != kNone) {
    read.index = index;
    read.verify = verify;
    read.buffer = bounce_.data();
    ++n;
  }
  file_.submit_vector_ops(ops, n);
  if (spill_slot != kNone) FileBackend::throw_if_failed(ops[0]);
  return read;
}

double* TieredStore::do_acquire(std::uint32_t index, AccessMode mode) {
  PLFOC_CHECK(index < count_);
  // MutexLock (not lock_guard semantics): a failed disk-read verification
  // releases the lock around the recovery hook, whose child acquires
  // re-enter this method.
  MutexLock lock(mutex_);
  if (where_[index] == Location::kFast) {
    ++stats_locked().accesses;
    ++stats_locked().hits;
    ++tier_stats_.fast_hits;
    const std::uint32_t slot = slot_of_[index];
    ++fast_[slot].pins;
    if (mode == AccessMode::kWrite) fast_[slot].dirty = true;
    fast_strategy_->on_access(index);
    return fast_data(slot);
  }

  std::uint32_t fast_slot;
  VerifyResult verify;  // stays kOk unless a verified disk read fails
  if (where_[index] == Location::kRam) {
    // Stage the promotion through the bounce buffer and release the RAM slot
    // *before* freeing a fast slot: the demoted fast victim then drops into
    // the just-freed RAM slot instead of spilling a third vector to disk.
    const std::uint32_t ram_slot = slot_of_[index];
    std::memcpy(bounce_.data(), ram_data(ram_slot), width_ * sizeof(double));
    const bool promoted_dirty = ram_[ram_slot].dirty;
    ram_strategy_->on_evict(index);
    ram_[ram_slot].vector = kNone;
    ram_[ram_slot].dirty = false;
    where_[index] = Location::kDisk;  // transiently: lives in the bounce buffer
    slot_of_[index] = kNone;
    fast_slot = swap_in(index, /*need_read=*/false, false, &verify);
    // Promote from host RAM: a PCIe copy, no disk access.
    std::memcpy(fast_data(fast_slot), bounce_.data(), width_ * sizeof(double));
    ++tier_stats_.ram_hits;
    fast_[fast_slot].dirty = promoted_dirty;
  } else {
    // Load from disk into the fast tier. Only kRead misses verify: a
    // paper-mode write-miss read loads bytes that are about to be
    // overwritten, so damage there is never consumed.
    const bool need_read = mode == AccessMode::kRead || !options_.read_skipping;
    fast_slot = swap_in(index, need_read,
                        mode == AccessMode::kRead && file_.integrity(), &verify);
    if (!need_read) ++stats_locked().skipped_reads;
  }
  // Counted once the swap landed: a throwing miss leaves every store counter
  // as it was (only the backend's I/O counters saw the attempt).
  ++stats_locked().accesses;
  ++stats_locked().misses;
  if (!touched_[index]) ++stats_locked().cold_misses;
  ++tier_stats_.promotions;
  tier_stats_.bytes_transferred += width_ * sizeof(double);

  touched_[index] = true;
  // A demand acquire is the payoff the prefetch staged for (the from_ram
  // promotion above IS the hit); the install can no longer count as wasted.
  prefetched_unread_[index] = false;
  fast_[fast_slot].vector = index;
  fast_[fast_slot].pins = 1;
  if (mode == AccessMode::kWrite) fast_[fast_slot].dirty = true;
  where_[index] = Location::kFast;
  slot_of_[index] = fast_slot;
  fast_strategy_->on_load(index);
  fast_strategy_->on_access(index);
  if (!verify.ok()) recover_or_throw(lock, index, fast_slot, verify);
  return fast_data(fast_slot);
}

// The body juggles the capability (unlocks around the re-entrant recovery
// hook, relocks before mutating the slot table); the REQUIRES contract on
// the declaration is what callers are checked against.
void TieredStore::recover_or_throw(MutexLock& lock, std::uint32_t index,
                                   std::uint32_t slot,
                                   const VerifyResult& verify)
    PLFOC_NO_THREAD_SAFETY_ANALYSIS {
  std::uint64_t recomputed = 0;
  if (recovery_hook_) {
    double* dst = fast_data(slot);
    // The hook recomputes from children via acquire()/release(), which
    // re-enter do_acquire — the slot table must be unlocked. `index` itself
    // stays pinned, so its fast slot (and dst) cannot move meanwhile.
    lock.unlock();
    try {
      recomputed = recovery_hook_(index, dst);
    } catch (...) {
      recomputed = 0;  // a failing recovery is an unrecoverable record
    }
    lock.lock();
  }

  // Count the whole episode at resolution, under one lock hold, so snapshots
  // taken by nested acquires never see the failure/recovery identity broken.
  ++stats_locked().integrity_failures;
  if (recomputed > 0) {
    ++stats_locked().integrity_recoveries;
    stats_locked().recovery_recomputes += recomputed;
    // The healed content supersedes the corrupt record: route it back to the
    // file through the normal dirty demote/spill path.
    fast_[slot].dirty = true;
    return;
  }

  ++stats_locked().integrity_unrecovered;
  // Undo the install: the slot holds damaged bytes nobody may consume.
  PLFOC_CHECK(fast_[slot].pins == 1);
  fast_[slot] = Slot{};
  where_[index] = Location::kDisk;
  slot_of_[index] = kNone;
  fast_strategy_->on_evict(index);
  throw IntegrityError(
      "tiered swap-in", index, verify.expected_generation,
      verify.found_generation, verify.injected,
      std::string(verify.status_name()) +
          (recovery_hook_
               ? "; recomputation failed (children unavailable or hook error)"
               : "; no recovery hook registered"));
}

void TieredStore::do_release(std::uint32_t index) {
  MutexLock lock(mutex_);
  PLFOC_CHECK(where_[index] == Location::kFast);
  Slot& slot = fast_[slot_of_[index]];
  PLFOC_CHECK(slot.pins > 0);
  --slot.pins;
}

void TieredStore::prefetch(std::uint32_t index) {
  PLFOC_CHECK(index < count_);
  // Advisory cancellation: the demand path's acquire() raises the typed
  // CancelledError instead.
  if (cancel_.cancelled_or_expired()) return;
  MutexLock lock(mutex_);
  if (where_[index] != Location::kDisk) return;  // already staged or resident
  if (!touched_[index]) return;  // nothing meaningful on disk yet
  const std::uint32_t rslot = pick_ram_slot(index);
  const bool has_victim = ram_[rslot].vector != kNone;
  const bool spill = has_victim && ram_[rslot].dirty;
  // One batch, like the demand miss. A later promotion consumes RAM-tier
  // bytes without re-verification, so the read verifies here: damage drops
  // the install and the demand miss takes the verified (and recoverable)
  // disk path.
  const FileBackend::VectorOp read =
      spill_and_read(spill ? rslot : kNone, index, file_.integrity());
  if (has_victim) drop_ram(rslot, spill);
  FileBackend::throw_if_failed(read);  // rslot stays free
  stats_locked().bytes_read += width_ * sizeof(double);
  if (!read.verify_result.ok()) {
    ++stats_locked().prefetch_stale;
    return;  // rslot stays free
  }
  std::memcpy(ram_data(rslot), bounce_.data(), width_ * sizeof(double));
  ++stats_locked().prefetch_reads;
  ram_[rslot].vector = index;
  ram_[rslot].dirty = false;
  ram_strategy_->on_load(index);
  ram_strategy_->on_prefetch_install(index);
  where_[index] = Location::kRam;
  slot_of_[index] = rslot;
  prefetched_unread_[index] = true;
}

// Every dirty vector of both tiers as ONE batch, ordered by vector index so
// file-adjacent vectors merge into ranged writes. A failed vector stays
// dirty; the first failure is thrown once the others were written.
void TieredStore::flush() {
  MutexLock lock(mutex_);
  struct Dirty {
    std::uint32_t vector;
    Slot* slot;
    double* data;
    bool operator<(const Dirty& other) const { return vector < other.vector; }
  };
  std::vector<Dirty> dirty;
  for (std::uint32_t s = 0; s < fast_.size(); ++s)
    if (fast_[s].vector != kNone && fast_[s].dirty)
      dirty.push_back({fast_[s].vector, &fast_[s], fast_data(s)});
  for (std::uint32_t s = 0; s < ram_.size(); ++s)
    if (ram_[s].vector != kNone && ram_[s].dirty)
      dirty.push_back({ram_[s].vector, &ram_[s], ram_data(s)});
  std::sort(dirty.begin(), dirty.end());
  std::vector<FileBackend::VectorOp> ops(dirty.size());
  for (std::size_t k = 0; k < dirty.size(); ++k) {
    ops[k].is_write = true;
    ops[k].index = dirty[k].vector;
    ops[k].buffer = dirty[k].data;
  }
  file_.submit_vector_ops(ops.data(), ops.size());
  const FileBackend::VectorOp* failed = nullptr;
  for (std::size_t k = 0; k < dirty.size(); ++k) {
    if (!ops[k].ok()) {
      if (failed == nullptr) failed = &ops[k];
      continue;
    }
    ++stats_locked().file_writes;
    stats_locked().bytes_written += width_ * sizeof(double);
    dirty[k].slot->dirty = false;
  }
  file_.sync();
  if (failed != nullptr) FileBackend::throw_if_failed(*failed);
}

OocStats TieredStore::stats_snapshot() const {
  MutexLock lock(mutex_);
  OocStats out = stats_locked();
  out.faults_injected = file_.faults_injected();
  out.io_retries = file_.io_retries();
  out.io_exhausted = file_.io_exhausted();
  out.corruptions_injected = file_.corruptions_injected();
  out.io_batches = file_.io_batches();
  out.io_coalesced = file_.io_coalesced();
  out.io_write_coalesced = file_.io_write_coalesced();
  return out;
}

void TieredStore::reset_stats() {
  MutexLock lock(mutex_);
  file_.reset_fault_counters();
  file_.reset_io_counters();
  // Forget pending prefetch installs: a wasted eviction after the reset
  // would otherwise break the prefetch_wasted <= prefetch_reads identity.
  std::fill(prefetched_unread_.begin(), prefetched_unread_.end(), false);
  stats_locked() = OocStats{};
}

}  // namespace plfoc
