#include "core/ditto_client.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <string>

#include "common/hash.h"

namespace ditto::core {
namespace {

constexpr uint64_t kMask48 = (uint64_t{1} << 48) - 1;
constexpr uint64_t kMinusOne = ~uint64_t{0};
// Scratch area in the superblock used to emulate the verb traffic of a
// non-embedded history (ablation mode, see ChargeExternalHistory*).
constexpr uint64_t kExternalHistScratch = 512;
// History entries record which experts voted for the victim in a 64-bit
// bitmap, one bit per expert index, so at most 64 experts fit.
constexpr size_t kExpertBitmapBits = 64;

}  // namespace

DittoClient::DittoClient(dm::MemoryPool* pool, rdma::ClientContext* ctx,
                         const DittoConfig& config)
    : pool_(pool),
      ctx_(ctx),
      config_(config),
      verbs_(&pool->node(), ctx),
      table_(pool, &verbs_),
      alloc_(pool, &verbs_) {
  if (config_.experts.empty()) {
    throw std::invalid_argument("DittoConfig: experts is empty");
  }
  if (config_.experts.size() > kExpertBitmapBits) {
    throw std::invalid_argument("DittoConfig: " + std::to_string(config_.experts.size()) +
                                " experts, max " + std::to_string(kExpertBitmapBits));
  }
  for (const std::string& name : config_.experts) {
    auto policy = policy::MakePolicy(name);
    if (policy == nullptr) {
      throw std::invalid_argument("DittoConfig: unknown caching algorithm '" + name + "'");
    }
    total_ext_words_ += policy->extension_words();
    experts_.push_back(std::move(policy));
  }
  if (total_ext_words_ > policy::Metadata::kMaxExtensionWords) {
    throw std::invalid_argument("DittoConfig: experts need " +
                                std::to_string(total_ext_words_) + " extension words, max " +
                                std::to_string(policy::Metadata::kMaxExtensionWords));
  }

  AdaptiveConfig acfg;
  acfg.num_experts = static_cast<int>(experts_.size());
  acfg.learning_rate = config_.learning_rate;
  acfg.cache_size_objects = std::max<uint64_t>(1, pool->capacity_objects());
  acfg.penalty_batch = config_.penalty_batch;
  acfg.lazy = config_.enable_lazy_weights;
  adaptive_ = std::make_unique<AdaptiveState>(acfg, &verbs_);

  fc_ = std::make_unique<FcCache>(
      [this](uint64_t slot_addr, uint64_t delta) { table_.AddFreqAsync(slot_addr, delta); },
      config_.fc_threshold, config_.fc_capacity_bytes, config_.enable_fc_cache,
      config_.fc_max_age_accesses);
}

DittoClient::SuperblockView DittoClient::ReadSuperblock() {
  uint64_t raw[4];
  verbs_.Read(dm::kHistCounterAddr, raw, sizeof(raw));
  return SuperblockView{raw[0], raw[1], raw[2], raw[3]};
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

policy::Metadata DittoClient::MetadataFor(const ht::SlotView& slot, const uint64_t* ext,
                                          uint64_t now) const {
  policy::Metadata meta;
  meta.hash = slot.hash;
  meta.insert_ts = slot.insert_ts;
  meta.last_ts = slot.last_ts;
  meta.freq = slot.freq;
  meta.size_bytes = static_cast<uint32_t>(slot.size_blocks()) * dm::kBlockBytes;
  meta.now = now;
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
    policy::Metadata meta = MetadataFor(slot, obj->ext, now);
    meta.freq++;  // the access being recorded
    meta.last_ts = now;
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

// ditto-lint: hot-path-begin(client-get)
// Lookup: bucket READ, then one object READ per fp/hash match until the key
// verifies (hit) or the matches run out (miss: regret collection against the
// embedded history).
// ditto-lint: allow(alloc): the caller's string, filled only on a hit
bool DittoClient::Get(std::string_view key, std::string* value) {
  stats_.gets++;
  const uint64_t hash = HashKey(key);
  const uint8_t fp = Fingerprint(hash);
  const uint64_t bucket = table_.BucketIndexFor(hash);
  table_.ReadBucket(bucket, &bucket_buf_);
  const int slots = table_.slots_per_bucket();
  for (int i = ht::FindObjectSlot(bucket_buf_.data(), 0, slots, fp, hash); i >= 0;
       i = ht::FindObjectSlot(bucket_buf_.data(), i + 1, slots, fp, hash)) {
    const ht::SlotView& slot = bucket_buf_[i];
    const uint64_t obj_addr = slot.pointer();
    const size_t obj_bytes = static_cast<size_t>(slot.size_blocks()) * dm::kBlockBytes;
    // ditto-lint: allow(alloc): grows to the largest object run, then reused
    object_buf_.resize(obj_bytes);
    verbs_.Read(obj_addr, object_buf_.data(), obj_bytes);
    DecodedObject obj;
    if (!DecodeObject(object_buf_.data(), obj_bytes, &obj) || obj.key != key) {
      continue;  // fingerprint + hash collision with a different key
    }
    if (obj.ExpiredAt(pool_->clock().Now())) {
      // Lazy expiry: reclaim the dead object and report a miss. Losing the
      // CAS means a concurrent client already reclaimed or replaced it.
      if (CasSlot(table_.BucketSlotAddr(bucket, i), slot.atomic_word, 0)) {
        alloc_.FreeBlocks(obj_addr, slot.size_blocks());
        verbs_.FetchAddAsync(dm::kObjectCountAddr, kMinusOne);
      }
      stats_.expired++;
      stats_.misses++;
      return false;
    }
    if (value != nullptr) {
      value->assign(obj.value);
    }
    TouchObject(table_.BucketSlotAddr(bucket, i), slot, &obj, obj_addr);
    stats_.hits++;
    return true;
  }

  stats_.misses++;
  // Regret collection: a missed key whose history entry is still within the
  // logical FIFO window penalizes the experts that evicted it.
  if (config_.adaptive()) {
    if (!config_.enable_history) {
      // A non-embedded history must be probed on every miss; the embedded
      // design collects regrets for free during the bucket scan.
      ChargeExternalHistoryLookup();
    }
    for (int i = 0; i < slots; ++i) {
      const ht::SlotView& slot = bucket_buf_[i];
      if (!slot.IsHistory() || slot.hash != hash) {
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
  return false;
}
// ditto-lint: hot-path-end(client-get)

bool DittoClient::EvictOne() {
  const size_t num_slots = table_.num_slots();
  const int k = std::min(config_.num_samples, static_cast<int>(num_slots));
  const uint64_t start_span = num_slots - static_cast<uint64_t>(k) + 1;
  std::vector<EvictCandidate>& cands = cand_buf_;
  cands.reserve(k);
  // One read of the shared logical clock for every candidate: nothing this
  // call does ticks it.
  const uint64_t now = pool_->clock().Now();

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
        c.meta = MetadataFor(sample_buf_[i], nullptr, now);
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
        policy::Metadata meta = MetadataFor(bucket_buf_[i], nullptr, pool_->clock().Now());
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

// ditto-lint: hot-path-begin(client-set)
uint64_t DittoClient::AllocEvicting(int blocks) {
  uint64_t addr = alloc_.AllocBlocks(blocks);
  for (int evictions = 0; addr == 0 && evictions < 128; ++evictions) {
    if (!EvictOne()) {
      break;
    }
    addr = alloc_.AllocBlocks(blocks);
  }
  return addr;
}

// Store: an in-place update of a cached copy (bucket READ, ext-word READ,
// object WRITE, slot CAS; up to 4 attempts), else an insert (superblock
// READ, count FAA, capacity evictions, object WRITE, claim + publish).
bool DittoClient::Set(std::string_view key, std::string_view value, uint64_t ttl_ticks) {
  stats_.sets++;
  const int blocks = ObjectBlocks(key.size(), value.size(), total_ext_words_);
  if (blocks > dm::kMaxRunBlocks) {
    return false;  // larger than the longest allocatable block run: drop
  }
  const uint64_t hash = HashKey(key);
  const uint8_t fp = Fingerprint(hash);
  const uint64_t bucket = table_.BucketIndexFor(hash);
  const uint64_t now = NowTick();
  const uint64_t expiry = ttl_ticks == 0 ? 0 : now + ttl_ticks;
  uint64_t ext[policy::Metadata::kMaxExtensionWords] = {};

  // A CAS lost to a concurrent client re-reads the bucket and retries.
  for (int attempt = 0; attempt < 4; ++attempt) {
    table_.ReadBucket(bucket, &bucket_buf_);
    const int found =
        ht::FindObjectSlot(bucket_buf_.data(), 0, table_.slots_per_bucket(), fp, hash);
    if (found < 0) {
      break;
    }
    ht::SlotView slot = bucket_buf_[found];
    if (total_ext_words_ > 0) {
      verbs_.Read(slot.pointer() + kExtWordsOff, ext, static_cast<size_t>(total_ext_words_) * 8);
    }
    const uint64_t addr = AllocEvicting(blocks);
    if (addr == 0) {
      return false;  // pool exhausted beyond recovery; drop the Set
    }
    EncodeObject(key, value, ext, total_ext_words_, &encode_buf_, expiry);
    verbs_.Write(addr, encode_buf_.data(), encode_buf_.size());
    const uint64_t desired = ht::PackAtomic(fp, static_cast<uint8_t>(blocks), addr);
    const uint64_t slot_addr = table_.BucketSlotAddr(bucket, found);
    if (CasSlot(slot_addr, slot.atomic_word, desired)) {
      alloc_.FreeBlocks(slot.pointer(), slot.size_blocks());
      slot.atomic_word = desired;
      // TouchObject reads the object only for its extension words, so the
      // buffer just encoded is decoded in place, and only when it has any.
      DecodedObject obj;
      const bool have_ext =
          total_ext_words_ > 0 && DecodeObject(encode_buf_.data(), encode_buf_.size(), &obj);
      TouchObject(slot_addr, slot, have_ext ? &obj : nullptr, addr);
      return true;
    }
    alloc_.FreeBlocks(addr, blocks);
    stats_.set_retries++;
  }

  // Insert: reserve a capacity slot, paying any overshoot with up to 8
  // sampled evictions.
  const uint64_t capacity = ReadSuperblock().capacity;
  const uint64_t prior = verbs_.FetchAdd(dm::kObjectCountAddr, 1);
  if (prior + 1 > capacity) {
    const uint64_t over = std::min<uint64_t>(prior + 1 - capacity, 8);
    for (uint64_t i = 0; i < over; ++i) {
      if (!EvictOne()) {
        break;  // nothing evictable: stop paying
      }
    }
  }
  if (total_ext_words_ > 0) {
    policy::Metadata meta;
    meta.hash = hash;
    meta.insert_ts = now;
    meta.last_ts = now;
    meta.freq = 1;
    meta.size_bytes =
        static_cast<uint32_t>(ObjectBytes(key.size(), value.size(), total_ext_words_));
    meta.now = now;
    int base = 0;
    for (const auto& expert : experts_) {
      const int words = expert->extension_words();
      if (words == 0) {
        continue;
      }
      policy::Metadata view = meta;
      expert->OnInsert(view);
      expert->Update(view);
      std::copy(view.ext, view.ext + words, ext + base);
      base += words;
    }
  }
  const uint64_t addr = AllocEvicting(blocks);
  if (addr == 0) {
    verbs_.FetchAddAsync(dm::kObjectCountAddr, kMinusOne);
    return false;  // drop: memory exhausted and nothing evictable
  }
  EncodeObject(key, value, ext, total_ext_words_, &encode_buf_, expiry);
  verbs_.Write(addr, encode_buf_.data(), encode_buf_.size());
  if (!ClaimSlotAndPublish(bucket, hash, fp, addr, blocks, now)) {
    alloc_.FreeBlocks(addr, blocks);
    verbs_.FetchAddAsync(dm::kObjectCountAddr, kMinusOne);
    return false;
  }
  return true;
}
// ditto-lint: hot-path-end(client-set)

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
