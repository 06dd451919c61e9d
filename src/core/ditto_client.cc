#include "core/ditto_client.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>

#include "common/hash.h"

namespace ditto::core {
namespace {

constexpr uint64_t kMask48 = (uint64_t{1} << 48) - 1;
constexpr uint64_t kMinusOne = ~uint64_t{0};
// Scratch area in the superblock used to emulate the verb traffic of a
// non-embedded history (ablation mode, see ChargeExternalHistory*).
constexpr uint64_t kExternalHistScratch = 512;

}  // namespace

DittoClient::DittoClient(dm::MemoryPool* pool, rdma::ClientContext* ctx,
                         const DittoConfig& config)
    : pool_(pool),
      ctx_(ctx),
      config_(config),
      verbs_(&pool->node(), ctx),
      table_(pool, &verbs_),
      alloc_(pool, &verbs_) {
  assert(!config_.experts.empty());
  for (const std::string& name : config_.experts) {
    auto policy = policy::MakePolicy(name);
    assert(policy != nullptr && "unknown caching algorithm");
    total_ext_words_ += policy->extension_words();
    experts_.push_back(std::move(policy));
  }
  assert(total_ext_words_ <= policy::Metadata::kMaxExtensionWords);

  AdaptiveConfig acfg;
  acfg.num_experts = static_cast<int>(experts_.size());
  acfg.learning_rate = config_.learning_rate;
  acfg.discount_base = config_.discount_base;
  acfg.cache_size_objects = std::max<uint64_t>(1, pool->capacity_objects());
  acfg.penalty_batch = config_.penalty_batch;
  acfg.lazy = config_.enable_lazy_weights;
  adaptive_ = std::make_unique<AdaptiveState>(acfg, &verbs_);

  fc_ = std::make_unique<FcCache>(
      [this](uint64_t slot_addr, uint64_t delta) { table_.AddFreqAsync(slot_addr, delta); },
      config_.fc_threshold, config_.fc_capacity_bytes, config_.enable_fc_cache,
      config_.fc_max_age_accesses);
}

DittoClient::SuperblockView DittoClient::DecodeSuperblock(const uint64_t raw[4]) {
  return SuperblockView{raw[0], raw[1], raw[2], raw[3]};
}

DittoClient::SuperblockView DittoClient::ReadSuperblock() {
  uint64_t raw[4];
  verbs_.Read(dm::kHistCounterAddr, raw, sizeof(raw));
  return DecodeSuperblock(raw);
}

uint64_t DittoClient::NowTick() { return pool_->clock().Tick(); }

bool DittoClient::CasSlot(uint64_t slot_addr, uint64_t expected, uint64_t desired) {
  if (table_.CasAtomic(slot_addr, expected, desired)) {
    return true;
  }
  stats_.cas_failures++;
  return false;
}

void DittoClient::ResolveDuplicates(uint64_t bucket, uint64_t hash, uint8_t fp) {
  table_.ReadBucket(bucket, &dedup_buf_);
  int canonical = -1;
  for (int i = 0; i < table_.slots_per_bucket(); ++i) {
    const ht::SlotView& slot = dedup_buf_[i];
    if (!ht::MatchesObject(slot, fp, hash)) {
      continue;
    }
    if (canonical < 0) {
      canonical = i;  // lowest index wins: the same rule on every client
      continue;
    }
    // A duplicate copy from a concurrent insert race. Reclaim it; losing the
    // CAS means another resolver (or a Delete) got there first.
    if (CasSlot(table_.BucketSlotAddr(bucket, i), slot.atomic_word, 0)) {
      alloc_.FreeBlocks(slot.pointer(), slot.size_blocks());
      verbs_.FetchAddAsync(dm::kObjectCountAddr, kMinusOne);
      stats_.dup_resolved++;
    }
  }
}

policy::Metadata DittoClient::MetadataFor(const ht::SlotView& slot, const uint64_t* ext) const {
  policy::Metadata meta;
  meta.hash = slot.hash;
  meta.insert_ts = slot.insert_ts;
  meta.last_ts = slot.last_ts;
  meta.freq = slot.freq;
  meta.size_bytes = static_cast<uint32_t>(slot.size_blocks()) * dm::kBlockBytes;
  meta.now = pool_->clock().Now();
  if (ext != nullptr) {
    std::copy(ext, ext + policy::Metadata::kMaxExtensionWords, meta.ext);
  }
  return meta;
}

void DittoClient::TouchObject(uint64_t slot_addr, const ht::SlotView& slot,
                              const DecodedObject* obj, uint64_t obj_addr) {
  const uint64_t now = NowTick();
  // Stateless metadata: one combined async WRITE (the SFHT grouping).
  table_.WriteLastTsAsync(slot_addr, now);
  if (!config_.enable_sfht) {
    // Without the sample-friendly layout the stateless fields are scattered:
    // model the extra ungrouped metadata WRITE on the data path.
    verbs_.WriteAsync(slot_addr + ht::kInsertTsOff, &slot.insert_ts, 8);
  }
  // Stateful frequency counter via the FC cache.
  fc_->RecordAccess(slot_addr, 16);

  // Algorithm-specific extension metadata, persisted with the object.
  if (total_ext_words_ > 0 && obj != nullptr && obj->header.ext_words > 0) {
    policy::Metadata meta = MetadataFor(slot, obj->ext);
    meta.freq++;  // the access being recorded
    meta.last_ts = now;
    meta.now = now;
    int base = 0;
    uint64_t updated[policy::Metadata::kMaxExtensionWords];
    std::copy(meta.ext, meta.ext + policy::Metadata::kMaxExtensionWords, updated);
    for (const auto& expert : experts_) {
      const int words = expert->extension_words();
      if (words == 0) {
        continue;
      }
      policy::Metadata view = meta;
      std::copy(updated + base, updated + base + words, view.ext);
      expert->Update(view);
      std::copy(view.ext, view.ext + words, updated + base);
      base += words;
    }
    verbs_.WriteAsync(obj_addr + kExtWordsOff, updated,
                      static_cast<size_t>(obj->header.ext_words) * 8);
  }
}

bool DittoClient::Get(std::string_view key, std::string* value) {
  GetOp op;
  StartGet(&op, key, value);
  while (!StepGet(&op)) {
  }
  return op.hit;
}

void DittoClient::StartGet(GetOp* op, std::string_view key, std::string* value) {
  stats_.gets++;
  op->key = key;
  op->value = value;
  op->hash = HashKey(key);
  op->fp = Fingerprint(op->hash);
  op->bucket = table_.BucketIndexFor(op->hash);
  op->wr = table_.PostReadBucket(op->bucket, &bucket_buf_);
  // The bucket decodes at post time, so the matching object's address is
  // already known here — one verb ahead of the object READ. Prefetch its
  // blocks now: by the time the bucket completion is consumed and
  // kVerifyObject's READ copies the object, the lines are warm. Free in
  // verb/time accounting (see Verbs::PrefetchRead).
  const int match = ht::FindObjectSlot(bucket_buf_.data(), 0, table_.slots_per_bucket(),
                                       op->fp, op->hash);
  if (match >= 0) {
    const ht::SlotView& slot = bucket_buf_[match];
    verbs_.PrefetchRead(slot.pointer(),
                        static_cast<size_t>(slot.size_blocks()) * dm::kBlockBytes);
  }
  op->stage = GetOp::Stage::kMatchSlot;
}

void DittoClient::GetMatchNext(GetOp* op) {
  const int i = ht::FindObjectSlot(bucket_buf_.data(), op->scan_from,
                                   table_.slots_per_bucket(), op->fp, op->hash);
  if (i >= 0) {
    const ht::SlotView& slot = bucket_buf_[i];
    op->slot = i;
    op->scan_from = i + 1;
    const size_t obj_bytes = static_cast<size_t>(slot.size_blocks()) * dm::kBlockBytes;
    object_buf_.resize(obj_bytes);
    op->wr = verbs_.PostRead(slot.pointer(), object_buf_.data(), obj_bytes);
    op->stage = GetOp::Stage::kVerifyObject;
    return;
  }
  op->wr = 0;
  op->stage = GetOp::Stage::kMissHistory;
}

bool DittoClient::StepGet(GetOp* op) {
  switch (op->stage) {
    case GetOp::Stage::kMatchSlot:
      verbs_.WaitWr(op->wr);
      GetMatchNext(op);
      return false;

    case GetOp::Stage::kVerifyObject: {
      verbs_.WaitWr(op->wr);
      const ht::SlotView& slot = bucket_buf_[op->slot];
      const uint64_t obj_addr = slot.pointer();
      const size_t obj_bytes = static_cast<size_t>(slot.size_blocks()) * dm::kBlockBytes;
      DecodedObject obj;
      if (!DecodeObject(object_buf_.data(), obj_bytes, &obj) || obj.key != op->key) {
        // Fingerprint + hash collision with a different key: keep scanning.
        GetMatchNext(op);
        return false;
      }
      if (obj.ExpiredAt(pool_->clock().Now())) {
        // Lazy expiry: reclaim the dead object and report a miss. Losing the
        // CAS means a concurrent client already reclaimed or replaced it.
        if (CasSlot(table_.BucketSlotAddr(op->bucket, op->slot), slot.atomic_word, 0)) {
          alloc_.FreeBlocks(obj_addr, slot.size_blocks());
          verbs_.FetchAddAsync(dm::kObjectCountAddr, kMinusOne);
        }
        stats_.expired++;
        stats_.misses++;
        op->hit = false;
        op->stage = GetOp::Stage::kRetired;
        return true;
      }
      if (op->value != nullptr) {
        op->value->assign(obj.value);
      }
      TouchObject(table_.BucketSlotAddr(op->bucket, op->slot), slot, &obj, obj_addr);
      stats_.hits++;
      op->hit = true;
      op->stage = GetOp::Stage::kRetired;
      return true;
    }

    case GetOp::Stage::kMissHistory:
      stats_.misses++;
      // Regret collection: a missed key whose history entry is still within
      // the logical FIFO window penalizes the experts that evicted it.
      if (config_.adaptive()) {
        if (!config_.enable_history) {
          // A non-embedded history must be probed on every miss; the embedded
          // design collects regrets for free during the bucket scan.
          ChargeExternalHistoryLookup();
        }
        for (int i = 0; i < table_.slots_per_bucket(); ++i) {
          const ht::SlotView& slot = bucket_buf_[i];
          if (!slot.IsHistory() || slot.hash != op->hash) {
            continue;
          }
          const SuperblockView super = ReadSuperblock();
          const uint64_t age = (super.hist_counter - slot.history_id()) & kMask48;
          if (age <= super.hist_size) {
            adaptive_->OnRegret(slot.expert_bmap(), age);
            stats_.regrets++;
          }
          break;
        }
      }
      op->hit = false;
      op->stage = GetOp::Stage::kRetired;
      return true;

    case GetOp::Stage::kRetired:
      return true;
  }
  return true;
}

bool DittoClient::EvictOne() {
  const size_t num_slots = table_.num_slots();
  const int k = std::min(config_.num_samples, static_cast<int>(num_slots));
  const uint64_t start_span = num_slots - static_cast<uint64_t>(k) + 1;
  std::vector<EvictCandidate>& cands = cand_buf_;
  cands.reserve(k);

  for (int attempt = 0; attempt < 256; ++attempt) {
    if (!verbs_.ok()) {
      // A failed verb (node crashed / timed out) would make every sample read
      // below fail too; 256 attempts x 64 reads of dead air is the difference
      // between degrading and hanging.
      return false;
    }
    // Accumulate sampled objects until we hold k candidates. With a densely
    // loaded table one READ suffices (the paper's fast path); sparse tables
    // keep sampling so eviction quality does not degrade to random.
    cands.clear();
    int reads = 0;
    while (static_cast<int>(cands.size()) < k && reads < 64) {
      uint64_t start = ctx_->rng().NextBelow(start_span);
      if (!table_.ReadSlots(start, k, &sample_buf_, &start)) {
        break;  // degenerate geometry: nothing to sample
      }
      reads++;
      for (int i = 0; i < k && static_cast<int>(cands.size()) < k; ++i) {
        // Skip non-objects and slots whose metadata is not yet initialized
        // (an insert publishes the atomic word first, then writes metadata;
        // a zero last_ts means the object is seconds old, not ancient).
        if (!sample_buf_[i].IsObject() || sample_buf_[i].last_ts == 0) {
          continue;
        }
        const uint64_t slot_addr = table_.SlotAddr(start + i);
        bool duplicate = false;
        for (const EvictCandidate& c : cands) {
          if (c.slot_addr == slot_addr) {
            duplicate = true;
            break;
          }
        }
        if (duplicate) {
          continue;
        }
        EvictCandidate c;
        c.slot = sample_buf_[i];
        c.slot_addr = slot_addr;
        c.meta = MetadataFor(sample_buf_[i], nullptr);
        c.meta.freq += fc_->PendingDelta(slot_addr);
        cands.push_back(c);
      }
    }
    if (cands.empty()) {
      continue;
    }
    if (!config_.enable_sfht) {
      // Without the co-designed table, each sampled object's metadata lives
      // with the object: one extra READ per sampled candidate.
      for (const EvictCandidate& c : cands) {
        uint64_t scratch;
        verbs_.Read(c.slot.pointer(), &scratch, 8);
      }
    }
    if (total_ext_words_ > 0) {
      // Fetch extension words from each sampled object (paper §4.4).
      for (EvictCandidate& c : cands) {
        verbs_.Read(c.slot.pointer() + kExtWordsOff, c.meta.ext,
                    static_cast<size_t>(total_ext_words_) * 8);
      }
    }

    // Each expert nominates its lowest-priority candidate.
    const int num_experts = static_cast<int>(experts_.size());
    nominee_buf_.assign(num_experts, 0);
    std::vector<int>& nominee = nominee_buf_;
    for (int e = 0; e < num_experts; ++e) {
      int ext_base = 0;
      for (int j = 0; j < e; ++j) {
        ext_base += experts_[j]->extension_words();
      }
      double best = 0.0;
      for (size_t c = 0; c < cands.size(); ++c) {
        policy::Metadata view = cands[c].meta;
        if (experts_[e]->extension_words() > 0) {
          std::copy(cands[c].meta.ext + ext_base,
                    cands[c].meta.ext + ext_base + experts_[e]->extension_words(), view.ext);
        }
        const double priority = experts_[e]->Priority(view);
        if (c == 0 || priority < best) {
          best = priority;
          nominee[e] = static_cast<int>(c);
        }
      }
    }

    const int chosen = config_.adaptive() ? adaptive_->ChooseExpert(ctx_->rng()) : 0;
    const int victim_cand = nominee[chosen];
    const ht::SlotView& victim = cands[victim_cand].slot;
    const uint64_t victim_addr = cands[victim_cand].slot_addr;

    uint64_t desired = 0;
    uint64_t bmap = 0;
    if (config_.adaptive() && config_.enable_history) {
      const uint64_t hist_id = verbs_.FetchAdd(dm::kHistCounterAddr, 1) & kMask48;
      desired = ht::PackAtomic(victim.fp(), ht::kHistorySizeTag, hist_id);
      for (int e = 0; e < num_experts; ++e) {
        if (nominee[e] == victim_cand) {
          bmap |= uint64_t{1} << e;
        }
      }
    }
    if (!CasSlot(victim_addr, victim.atomic_word, desired)) {
      continue;  // lost a race; resample
    }
    if (config_.adaptive() && config_.enable_history) {
      table_.WriteExpertBmapAsync(victim_addr, bmap);
    } else if (config_.adaptive()) {
      ChargeExternalHistoryInsert();
    }
    experts_[chosen]->OnEvict(cands[victim_cand].meta);
    alloc_.FreeBlocks(victim.pointer(), victim.size_blocks());
    verbs_.FetchAddAsync(dm::kObjectCountAddr, kMinusOne);
    stats_.evictions++;
    return true;
  }
  return false;
}

bool DittoClient::ClaimSlotAndPublish(uint64_t bucket, uint64_t hash, uint8_t fp,
                                      uint64_t obj_addr, int blocks, uint64_t now) {
  const uint64_t desired = ht::PackAtomic(fp, static_cast<uint8_t>(blocks), obj_addr);
  for (int attempt = 0; attempt < 8; ++attempt) {
    if (!verbs_.ok()) {
      return false;  // fail fast: the node is unreachable, publishing can't succeed
    }
    table_.ReadBucket(bucket, &bucket_buf_);

    int target = -1;
    uint64_t expected = 0;
    bool target_is_object = false;
    bool target_is_duplicate = false;

    // A concurrent client may have inserted the same key since our lookup:
    // replace it in place instead of creating a duplicate (duplicates would
    // silently waste capacity and depress hit rates).
    const int dup = ht::FindObjectSlot(bucket_buf_.data(), 0, table_.slots_per_bucket(),
                                       fp, hash);
    if (dup >= 0) {
      target = dup;
      expected = bucket_buf_[dup].atomic_word;
      target_is_object = true;
      target_is_duplicate = true;
    }
    // Preference order: empty slot; our own history entry; expired history;
    // oldest history; finally evict the lowest-priority object in the bucket.
    if (target < 0) {
      for (int i = 0; i < table_.slots_per_bucket(); ++i) {
        if (bucket_buf_[i].IsEmpty()) {
          target = i;
          expected = 0;
          break;
        }
      }
    }
    if (target < 0) {
      for (int i = 0; i < table_.slots_per_bucket(); ++i) {
        if (bucket_buf_[i].IsHistory() && bucket_buf_[i].hash == hash) {
          target = i;
          expected = bucket_buf_[i].atomic_word;
          break;
        }
      }
    }
    if (target < 0) {
      // Expired or oldest history entry.
      bool have_history = false;
      uint64_t oldest_id = 0;
      int oldest = -1;
      for (int i = 0; i < table_.slots_per_bucket(); ++i) {
        if (!bucket_buf_[i].IsHistory()) {
          continue;
        }
        const uint64_t id = bucket_buf_[i].history_id();
        if (!have_history || ((oldest_id - id) & kMask48) < (uint64_t{1} << 47)) {
          // id is older than oldest_id (mod 2^48) or first seen.
          oldest_id = id;
          oldest = i;
          have_history = true;
        }
      }
      if (have_history) {
        target = oldest;
        expected = bucket_buf_[target].atomic_word;
      }
    }
    if (target < 0) {
      // Bucket is full of live objects: evict the lowest-priority one in
      // place (its slot is reused directly; no history entry is recorded for
      // bucket-pressure evictions).
      const int chosen = config_.adaptive() ? adaptive_->ChooseExpert(ctx_->rng()) : 0;
      double best = 0.0;
      for (int i = 0; i < table_.slots_per_bucket(); ++i) {
        if (!bucket_buf_[i].IsObject()) {
          continue;
        }
        policy::Metadata meta = MetadataFor(bucket_buf_[i], nullptr);
        meta.freq += fc_->PendingDelta(table_.BucketSlotAddr(bucket, i));
        const double priority = experts_[chosen]->Priority(meta);
        if (target < 0 || priority < best) {
          best = priority;
          target = i;
        }
      }
      if (target < 0) {
        stats_.insert_retries++;
        continue;  // raced into an inconsistent view; retry
      }
      expected = bucket_buf_[target].atomic_word;
      target_is_object = true;
    }

    const uint64_t slot_addr = table_.BucketSlotAddr(bucket, target);
    if (!CasSlot(slot_addr, expected, desired)) {
      stats_.set_retries++;
      stats_.insert_retries++;
      continue;
    }
    if (target_is_object) {
      const ht::SlotView& victim = bucket_buf_[target];
      alloc_.FreeBlocks(victim.pointer(), victim.size_blocks());
      // Replacing a duplicate of our own key cancels the insert's count
      // increment; evicting an unrelated object is a real eviction.
      verbs_.FetchAddAsync(dm::kObjectCountAddr, kMinusOne);
      if (!target_is_duplicate) {
        stats_.evictions++;
      }
    }
    table_.WriteAllMetadata(slot_addr, hash, now, now, 1);
    if (!config_.enable_sfht) {
      verbs_.WriteAsync(slot_addr + ht::kFreqOff, &now, 8);  // ungrouped metadata init
    }
    // A concurrent client may have published its own copy of this key between
    // our bucket scan and our CAS. Validate with one more bucket READ and
    // reclaim every copy but the canonical one (lowest slot index) so racing
    // inserters converge on a single live object. Config-gated: only shared-
    // pool deployments can race, and the extra READ would otherwise shift
    // every deterministic engine's modeled insert cost.
    if (config_.validate_inserts) {
      ResolveDuplicates(bucket, hash, fp);
    }
    return true;
  }
  return false;
}

bool DittoClient::Set(std::string_view key, std::string_view value, uint64_t ttl_ticks) {
  SetOp op;
  StartSet(&op, key, value, ttl_ticks);
  while (!StepSet(&op)) {
  }
  return op.stored;
}

void DittoClient::StartSet(SetOp* op, std::string_view key, std::string_view value,
                           uint64_t ttl_ticks) {
  stats_.sets++;
  op->key = key;
  op->value = value;
  op->blocks = ObjectBlocks(key.size(), value.size(), total_ext_words_);
  if (op->blocks > dm::kMaxRunBlocks) {
    // Larger than the longest allocatable block run: drop.
    op->stored = false;
    op->stage = SetOp::Stage::kRetired;
    return;
  }
  op->hash = HashKey(key);
  op->fp = Fingerprint(op->hash);
  op->bucket = table_.BucketIndexFor(op->hash);
  op->now = NowTick();
  op->expiry = ttl_ticks == 0 ? 0 : op->now + ttl_ticks;
  // Update path first: check whether the key is already cached.
  op->wr = table_.PostReadBucket(op->bucket, &bucket_buf_);
  op->stage = SetOp::Stage::kMatchForUpdate;
}

void DittoClient::SetEnterInsert(SetOp* op) {
  op->wr = verbs_.PostRead(dm::kHistCounterAddr, op->super_raw, sizeof(op->super_raw));
  op->stage = SetOp::Stage::kInsertReserve;
}

bool DittoClient::StepSet(SetOp* op) {
  switch (op->stage) {
    case SetOp::Stage::kMatchForUpdate: {
      verbs_.WaitWr(op->wr);
      op->found_slot = ht::FindObjectSlot(bucket_buf_.data(), 0, table_.slots_per_bucket(),
                                          op->fp, op->hash);
      if (op->found_slot >= 0) {
        const ht::SlotView& slot = bucket_buf_[op->found_slot];
        op->found_atomic = slot.atomic_word;
        op->found_pointer = slot.pointer();
        op->found_blocks = slot.size_blocks();
      }
      if (op->found_slot < 0) {
        SetEnterInsert(op);
        return false;
      }
      std::fill(op->ext, op->ext + policy::Metadata::kMaxExtensionWords, 0);
      op->have_ext_read = total_ext_words_ > 0;
      if (op->have_ext_read) {
        op->wr = verbs_.PostRead(op->found_pointer + kExtWordsOff, op->ext,
                                 static_cast<size_t>(total_ext_words_) * 8);
      }
      op->evict_budget = 128;
      op->stage = SetOp::Stage::kUpdateAlloc;
      return false;
    }

    case SetOp::Stage::kUpdateAlloc: {
      if (op->have_ext_read) {
        verbs_.WaitWr(op->wr);
        op->have_ext_read = false;
      }
      op->addr = alloc_.AllocBlocks(op->blocks);
      while (op->addr == 0 && op->evict_budget > 0) {
        op->evict_budget--;
        if (!EvictOne()) {
          break;
        }
        op->addr = alloc_.AllocBlocks(op->blocks);
      }
      if (op->addr == 0) {
        op->stored = false;  // pool exhausted beyond recovery; drop the Set
        op->stage = SetOp::Stage::kRetired;
        return true;
      }
      EncodeObject(op->key, op->value, op->ext, total_ext_words_, &encode_buf_, op->expiry);
      op->wr = verbs_.PostWrite(op->addr, encode_buf_.data(), encode_buf_.size());
      op->stage = SetOp::Stage::kUpdatePublish;
      return false;
    }

    case SetOp::Stage::kUpdatePublish: {
      verbs_.WaitWr(op->wr);
      const uint64_t desired =
          ht::PackAtomic(op->fp, static_cast<uint8_t>(op->blocks), op->addr);
      const uint64_t slot_addr = table_.BucketSlotAddr(op->bucket, op->found_slot);
      if (CasSlot(slot_addr, op->found_atomic, desired)) {
        alloc_.FreeBlocks(op->found_pointer, op->found_blocks);
        ht::SlotView updated = bucket_buf_[op->found_slot];
        updated.atomic_word = desired;
        // TouchObject reads the object only for its extension words, so the
        // buffer just encoded is decoded in place, and only when it has any.
        DecodedObject obj;
        const bool have_ext =
            total_ext_words_ > 0 && DecodeObject(encode_buf_.data(), encode_buf_.size(), &obj);
        TouchObject(slot_addr, updated, have_ext ? &obj : nullptr, op->addr);
        op->stored = true;
        op->stage = SetOp::Stage::kRetired;
        return true;
      }
      alloc_.FreeBlocks(op->addr, op->blocks);
      op->addr = 0;
      stats_.set_retries++;
      if (++op->attempt < 4) {
        // Re-read the bucket and retry the in-place update.
        op->wr = table_.PostReadBucket(op->bucket, &bucket_buf_);
        op->stage = SetOp::Stage::kMatchForUpdate;
      } else {
        SetEnterInsert(op);
      }
      return false;
    }

    case SetOp::Stage::kInsertReserve: {
      verbs_.WaitWr(op->wr);
      const uint64_t capacity = DecodeSuperblock(op->super_raw).capacity;
      const uint64_t prior = verbs_.FetchAdd(dm::kObjectCountAddr, 1);
      op->evict_budget = 0;
      if (prior + 1 > capacity) {
        op->evict_budget = static_cast<int>(std::min<uint64_t>(prior + 1 - capacity, 8));
      }
      op->stage = SetOp::Stage::kInsertEvict;
      return false;
    }

    case SetOp::Stage::kInsertEvict:
      // One sampled eviction per step until the capacity overshoot is paid.
      if (op->evict_budget > 0) {
        op->evict_budget--;
        if (EvictOne()) {
          return false;
        }
        op->evict_budget = 0;  // nothing evictable: stop paying
      }
      op->stage = SetOp::Stage::kInsertAlloc;
      op->evict_budget = 128;
      return false;

    case SetOp::Stage::kInsertAlloc: {
      std::fill(op->ext, op->ext + policy::Metadata::kMaxExtensionWords, 0);
      if (total_ext_words_ > 0) {
        policy::Metadata meta;
        meta.hash = op->hash;
        meta.insert_ts = op->now;
        meta.last_ts = op->now;
        meta.freq = 1;
        meta.size_bytes = static_cast<uint32_t>(
            ObjectBytes(op->key.size(), op->value.size(), total_ext_words_));
        meta.now = op->now;
        int base = 0;
        for (const auto& expert : experts_) {
          const int words = expert->extension_words();
          if (words == 0) {
            continue;
          }
          policy::Metadata view = meta;
          expert->OnInsert(view);
          expert->Update(view);
          std::copy(view.ext, view.ext + words, op->ext + base);
          base += words;
        }
      }
      op->addr = alloc_.AllocBlocks(op->blocks);
      while (op->addr == 0 && op->evict_budget > 0) {
        op->evict_budget--;
        if (!EvictOne()) {
          break;
        }
        op->addr = alloc_.AllocBlocks(op->blocks);
      }
      if (op->addr == 0) {
        verbs_.FetchAddAsync(dm::kObjectCountAddr, kMinusOne);
        op->stored = false;  // drop: memory exhausted and nothing evictable
        op->stage = SetOp::Stage::kRetired;
        return true;
      }
      EncodeObject(op->key, op->value, op->ext, total_ext_words_, &encode_buf_, op->expiry);
      op->wr = verbs_.PostWrite(op->addr, encode_buf_.data(), encode_buf_.size());
      op->stage = SetOp::Stage::kInsertPublish;
      return false;
    }

    case SetOp::Stage::kInsertPublish:
      verbs_.WaitWr(op->wr);
      if (!ClaimSlotAndPublish(op->bucket, op->hash, op->fp, op->addr, op->blocks, op->now)) {
        alloc_.FreeBlocks(op->addr, op->blocks);
        verbs_.FetchAddAsync(dm::kObjectCountAddr, kMinusOne);
        op->stored = false;
        op->stage = SetOp::Stage::kRetired;
        return true;
      }
      op->stored = true;
      op->stage = SetOp::Stage::kRetired;
      return true;

    case SetOp::Stage::kRetired:
      return true;
  }
  return true;
}

bool DittoClient::Delete(std::string_view key) {
  const uint64_t hash = HashKey(key);
  const uint8_t fp = Fingerprint(hash);
  const uint64_t bucket = table_.BucketIndexFor(hash);
  for (int attempt = 0; attempt < 4; ++attempt) {
    table_.ReadBucket(bucket, &bucket_buf_);
    const int found =
        ht::FindObjectSlot(bucket_buf_.data(), 0, table_.slots_per_bucket(), fp, hash);
    if (found < 0) {
      return false;
    }
    const ht::SlotView& slot = bucket_buf_[found];
    if (CasSlot(table_.BucketSlotAddr(bucket, found), slot.atomic_word, 0)) {
      alloc_.FreeBlocks(slot.pointer(), slot.size_blocks());
      verbs_.FetchAddAsync(dm::kObjectCountAddr, kMinusOne);
      stats_.deletes++;
      return true;
    }
  }
  return false;
}

bool DittoClient::Expire(std::string_view key, uint64_t ttl_ticks) {
  const uint64_t hash = HashKey(key);
  const uint8_t fp = Fingerprint(hash);
  const uint64_t bucket = table_.BucketIndexFor(hash);
  for (int attempt = 0; attempt < 4; ++attempt) {
    table_.ReadBucket(bucket, &bucket_buf_);
    const int found =
        ht::FindObjectSlot(bucket_buf_.data(), 0, table_.slots_per_bucket(), fp, hash);
    if (found < 0) {
      return false;
    }
    const ht::SlotView& slot = bucket_buf_[found];
    const uint64_t obj_addr = slot.pointer();
    const size_t obj_bytes = static_cast<size_t>(slot.size_blocks()) * dm::kBlockBytes;
    object_buf_.resize(obj_bytes);
    verbs_.Read(obj_addr, object_buf_.data(), obj_bytes);
    DecodedObject obj;
    if (!DecodeObject(object_buf_.data(), obj_bytes, &obj) || obj.key != key) {
      return false;  // fingerprint + hash collision with a different key
    }
    // Re-validate that the slot still publishes this object before touching
    // its blocks (a concurrent Delete/Set may have reused the run): a CAS to
    // the same word fails iff the slot changed underneath us.
    if (!CasSlot(table_.BucketSlotAddr(bucket, found), slot.atomic_word,
                 slot.atomic_word)) {
      continue;  // raced with a concurrent update; re-locate the key
    }
    // One small WRITE re-arms the expiry word in place (off the critical
    // path; the value is already durable in program order on the arena).
    const uint64_t expiry = ttl_ticks == 0 ? 0 : pool_->clock().Now() + ttl_ticks;
    verbs_.WriteAsync(obj_addr + kExpiryOff, &expiry, 8);
    return true;
  }
  return false;
}

bool DittoClient::ResizeCapacity(uint64_t capacity_objects) {
  std::string request(8, '\0');
  std::memcpy(request.data(), &capacity_objects, 8);
  std::string response;
  verbs_.Rpc(dm::kRpcResize, request, &response);
  if (response.size() != 8) {
    return false;  // controller rejected the resize
  }
  // Shrink path: evict down with the sampled-eviction path until the cached
  // count fits. The superblock is re-read every round so evictions performed
  // by concurrent clients (or a racing further resize) are observed instead
  // of over-evicting.
  while (true) {
    if (!verbs_.ok()) {
      return false;  // node unreachable mid-shrink; report failure, don't spin
    }
    const SuperblockView super = ReadSuperblock();
    if (super.object_count <= super.capacity) {
      return true;
    }
    const uint64_t over = super.object_count - super.capacity;
    for (uint64_t i = 0; i < over; ++i) {
      if (!EvictOne()) {
        return false;  // nothing evictable left but the count still exceeds
      }
    }
  }
}

size_t DittoClient::MultiGet(size_t n, const std::string_view* keys,
                             std::string* const* values, bool* hits) {
  // Chain the whole run's async metadata verbs behind one doorbell. When the
  // caller already enabled windowed batching, keep its window; otherwise open
  // an unbounded chain for the duration of the run and flush it once.
  const size_t saved = verbs_.batch_ops();
  if (saved == 0) {
    verbs_.SetBatchOps(std::numeric_limits<size_t>::max());
  }
  size_t hit_count = 0;
  for (size_t i = 0; i < n; ++i) {
    const bool hit = Get(keys[i], values == nullptr ? nullptr : values[i]);
    if (hits != nullptr) {
      hits[i] = hit;
    }
    hit_count += hit ? 1 : 0;
  }
  if (saved == 0) {
    verbs_.SetBatchOps(0);  // flushes the chain: one doorbell for the run
  }
  return hit_count;
}

void DittoClient::FlushBuffers() {
  fc_->FlushAll();
  adaptive_->Flush();
  verbs_.FlushBatch();
}

void DittoClient::ChargeExternalHistoryInsert() {
  // A non-embedded history appends to a remote FIFO queue: FAA on the queue
  // tail plus a WRITE of the 40-byte entry.
  verbs_.FetchAdd(kExternalHistScratch, 0);
  uint8_t entry[40] = {0};
  verbs_.WriteAsync(kExternalHistScratch + 8, entry, sizeof(entry));
}

void DittoClient::ChargeExternalHistoryLookup() {
  // A non-embedded history needs its own index probe on every miss.
  uint8_t entry[40];
  verbs_.Read(kExternalHistScratch + 8, entry, sizeof(entry));
}

}  // namespace ditto::core
