#include "core/sharded_engine.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "core/rhhh.hpp"
#include "util/hash.hpp"
#include "util/simd.hpp"
#include "wire/wire.hpp"

namespace hhh {

ShardedHhhEngine::ShardedHhhEngine(const Params& params, EngineFactory factory)
    : params_(params), factory_(std::move(factory)) {
  if (params_.shards == 0) {
    throw std::invalid_argument("ShardedHhhEngine: shards must be >= 1");
  }
  if (params_.dispatch_batch == 0) params_.dispatch_batch = 1;
  shards_.reserve(params_.shards);
  stage_.resize(params_.shards);
  for (auto& bucket : stage_) bucket.reserve(params_.dispatch_batch);
  for (std::size_t i = 0; i < params_.shards; ++i) {
    auto shard = std::make_unique<Shard>(params_.ring_capacity);
    shard->engine = factory_(i);
    if (!shard->engine || !shard->engine->mergeable()) {
      throw std::invalid_argument("ShardedHhhEngine: factory must produce mergeable engines");
    }
    // The snapshot clone target. Built from the same factory index so it is
    // merge-compatible with the replica; its own seed/RNG state is inert
    // (it only ever receives merge_from copies).
    shard->snap_engine = factory_(i);
    shards_.push_back(std::move(shard));
  }
  family_ = shards_.front()->engine->family();
  // Per-shard telemetry, keyed by the composed engine name (available now
  // that every replica exists). Same-named engines across tests share the
  // series — registry registration is idempotent and counters stay
  // monotone. Resolved before spawn so workers see a stable pointer.
  {
    auto& reg = obs::MetricsRegistry::process();
    const std::string engine_name = name();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const obs::Labels labels{{"engine", engine_name}, {"shard", std::to_string(i)}};
      shards_[i]->batches = &reg.counter("hhh_sharded_batches_total", labels,
                                         "Packet batches published to the shard ring");
      shards_[i]->ring_depth = &reg.gauge("hhh_sharded_ring_depth", labels,
                                          "Messages in flight on the shard ring");
    }
    quiesce_ns_ = &reg.histogram("hhh_sharded_quiesce_ns", {{"engine", engine_name}},
                                 "Wall time waiting for all shards to drain");
    snapshot_ns_ = &reg.histogram(
        "hhh_sharded_snapshot_ns", {{"engine", engine_name}},
        "Wall time from snapshot markers enqueued to all clones merged");
  }
  // Spawn only after every replica exists: workers reference *shards_[i],
  // whose addresses are stable behind the unique_ptrs. If a spawn fails
  // mid-loop (e.g. EAGAIN under a pid limit), already-running workers must
  // be shut down here — the destructor won't run for a half-constructed
  // object, and destroying a joinable std::thread terminates the process.
  try {
    for (auto& shard : shards_) {
      shard->worker = std::thread(&ShardedHhhEngine::worker_loop, std::ref(*shard));
    }
  } catch (...) {
    for (auto& shard : shards_) shard->ring.close();
    for (auto& shard : shards_) {
      if (shard->worker.joinable()) shard->worker.join();
    }
    throw;
  }
}

ShardedHhhEngine::~ShardedHhhEngine() {
  for (auto& shard : shards_) shard->ring.close();
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

void ShardedHhhEngine::worker_loop(Shard& shard) {
  const auto process = [&shard](ShardMsg& msg) {
    if (msg.snapshot_seq != 0) {
      // Epoch snapshot: clone the replica (reset + lossless merge) and
      // publish it under the marker's sequence number. FIFO ring order
      // means the clone reflects exactly the packets dispatched before
      // the marker; the worker never parks — it moves straight on to
      // whatever was enqueued after. For exact replicas the clone is the
      // replica's leaves radix-sorted into a run, here in the worker, so
      // the front-end's fold is a linear merge of sorted runs.
      shard.snap_engine->reset();
      shard.snap_engine->merge_from(*shard.engine);
      shard.snap_ready.store(msg.snapshot_seq, std::memory_order_release);
      shard.snap_ready.notify_all();
    } else {
      shard.engine->add_batch(msg.batch);
    }
  };
  ShardMsg msg;
  while (shard.ring.pop_wait(msg)) {
    process(msg);
    // Drain everything else already visible with one head publish, then
    // retire the whole run with one completed update and one gauge
    // adjustment — the quiesce/depth accounting costs O(1) atomics per
    // run instead of per message.
    std::uint64_t done = 1;
    done += shard.ring.consume_available([&](ShardMsg&& m) { process(m); });
    shard.ring_depth->add(-static_cast<std::int64_t>(done));
    shard.completed.fetch_add(done, std::memory_order_release);
    shard.completed.notify_all();  // front-end may be parked in drain()
  }
}

std::size_t ShardedHhhEngine::shard_of(const PacketRecord& p) const noexcept {
  // Source mode folds both address words so v6 sources spread too; for
  // v4 the low word is zero and this reduces to mixing the v4 bits.
  const std::uint64_t key = params_.partition == PartitionKey::kFlow
                                ? FlowKey::from(p).key()
                                : (p.src().hi() ^ mix64(p.src().lo()));
  // Multiply-shift range reduction over the mixed upper half: uniform over
  // [0, shards) without division on the per-packet path.
  return static_cast<std::size_t>(((mix64(key) >> 32) * shards_.size()) >> 32);
}

std::optional<AddressFamily> ShardedHhhEngine::compute_shard_indices(
    std::span<const PacketRecord> packets) const {
  const std::size_t n = packets.size();
  // The batch's family, or nullopt if it mixes families: it picks the
  // kFlow hash chain below and tells add_batch which bytes count. Real
  // streams are homogeneous or nearly so per batch.
  std::optional<AddressFamily> family = packets[0].family();
  for (const auto& p : packets) {
    if (p.family() != *family) {
      family.reset();
      break;
    }
  }
  idx_scratch_.resize(n);
  if (shards_.size() == 1) {
    std::fill(idx_scratch_.begin(), idx_scratch_.end(), 0u);
    return family;
  }
  key_scratch_.resize(n);
  link_scratch_.resize(n);

  if (params_.partition == PartitionKey::kSource) {
    // key = src_hi ^ mix64(src_lo), family-independent.
    for (std::size_t i = 0; i < n; ++i) link_scratch_[i] = packets[i].src_lo();
    simd::mix64_batch(link_scratch_.data(), link_scratch_.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      key_scratch_[i] = packets[i].src_hi() ^ link_scratch_[i];
    }
    simd::shard_range_batch(key_scratch_.data(), shards_.size(), idx_scratch_.data(), n);
    return family;
  }

  // kFlow: the FlowKey::key() chain, batched. The chain's shape depends on
  // the record family (v4 skips the two always-zero low halves), so only
  // family-homogeneous batches vectorize; mixed batches take the scalar
  // reference path.
  if (!family) {
    for (std::size_t i = 0; i < n; ++i) {
      idx_scratch_[i] = static_cast<std::uint32_t>(shard_of(packets[i]));
    }
    return family;
  }
  for (std::size_t i = 0; i < n; ++i) {
    key_scratch_[i] = packets[i].src_hi() + 0x9E3779B97F4A7C15ULL;
  }
  simd::mix64_batch(key_scratch_.data(), key_scratch_.data(), n);
  if (*family != AddressFamily::kIpv4) {
    for (std::size_t i = 0; i < n; ++i) link_scratch_[i] = packets[i].src_lo();
    simd::mix64_xor_batch(key_scratch_.data(), link_scratch_.data(), n);
    for (std::size_t i = 0; i < n; ++i) link_scratch_[i] = packets[i].dst_lo();
    simd::mix64_xor_batch(key_scratch_.data(), link_scratch_.data(), n);
  }
  for (std::size_t i = 0; i < n; ++i) link_scratch_[i] = packets[i].dst_hi();
  simd::mix64_xor_batch(key_scratch_.data(), link_scratch_.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& p = packets[i];
    link_scratch_[i] = (static_cast<std::uint64_t>(p.src_port) << 48) |
                       (static_cast<std::uint64_t>(p.dst_port) << 32) |
                       (static_cast<std::uint64_t>(p.proto) << 8) |
                       static_cast<std::uint64_t>(p.family());
  }
  simd::mix64_xor_batch(key_scratch_.data(), link_scratch_.data(), n);
  simd::shard_range_batch(key_scratch_.data(), shards_.size(), idx_scratch_.data(), n);
  return family;
}

void ShardedHhhEngine::publish(std::size_t shard) const {
  auto& bucket = stage_[shard];
  if (bucket.empty()) return;
  ShardMsg msg;
  msg.batch = std::move(bucket);
  shards_[shard]->ring.push(std::move(msg));  // blocks when full: backpressure
  ++shards_[shard]->dispatched;
  shards_[shard]->batches->inc();
  shards_[shard]->ring_depth->add(1);
  bucket = std::vector<PacketRecord>();
  bucket.reserve(params_.dispatch_batch);
}

void ShardedHhhEngine::flush_staging() const {
  // total_bytes_ was already credited at staging time; only enqueue.
  for (std::size_t s = 0; s < stage_.size(); ++s) publish(s);
}

void ShardedHhhEngine::add_batch(std::span<const PacketRecord> packets) {
  if (packets.empty()) return;
  const std::optional<AddressFamily> batch_family = compute_shard_indices(packets);
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const auto& p = packets[i];
    bytes += p.ip_len;
    const std::size_t s = idx_scratch_[i];
    stage_[s].push_back(p);
    if (stage_[s].size() >= params_.dispatch_batch) publish(s);
  }
  // The replicas ignore packets of the other family, so the ledger must
  // too; only a mixed batch needs a second look at each packet.
  if (!batch_family) {
    bytes = 0;
    for (const auto& p : packets) {
      if (p.family() == family_) bytes += p.ip_len;
    }
  } else if (*batch_family != family_) {
    bytes = 0;
  }
  total_bytes_ += bytes;
}

void ShardedHhhEngine::quiesce() const {
  const auto begin = std::chrono::steady_clock::now();
  for (const auto& shard : shards_) {
    std::uint64_t done = shard->completed.load(std::memory_order_acquire);
    while (done != shard->dispatched) {
      shard->completed.wait(done, std::memory_order_acquire);
      done = shard->completed.load(std::memory_order_acquire);
    }
  }
  quiesce_ns_->observe(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - begin)
          .count()));
}

void ShardedHhhEngine::drain() const {
  flush_staging();
  quiesce();
}

std::unique_ptr<HhhEngine> ShardedHhhEngine::snapshot_fold() const {
  const auto begin = std::chrono::steady_clock::now();
  flush_staging();  // staged packets belong to the epoch being extracted
  const std::uint64_t seq = ++snapshot_seq_;
  for (const auto& shard : shards_) {
    ShardMsg msg;
    msg.snapshot_seq = seq;
    shard->ring.push(std::move(msg));
    // Markers are counted in dispatched/completed like any message, so a
    // later quiesce() stays coherent in every interleaving.
    ++shard->dispatched;
    shard->ring_depth->add(1);
  }
  auto merged = factory_(shards_.size());
  // Merge in shard order for determinism. Each shard is merged as soon as
  // its own clone is ready — shard 0's merge overlaps shard 1 still
  // chewing through its queue.
  for (const auto& shard : shards_) {
    std::uint64_t ready = shard->snap_ready.load(std::memory_order_acquire);
    while (ready != seq) {
      shard->snap_ready.wait(ready, std::memory_order_acquire);
      ready = shard->snap_ready.load(std::memory_order_acquire);
    }
    merged->merge_from(*shard->snap_engine);
  }
  snapshot_ns_->observe(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - begin)
          .count()));
  return merged;
}

std::unique_ptr<HhhEngine> ShardedHhhEngine::fold() const { return snapshot_fold(); }

HhhSet ShardedHhhEngine::extract(double phi) const { return snapshot_fold()->extract(phi); }

void ShardedHhhEngine::reset() {
  drain();
  for (auto& shard : shards_) shard->engine->reset();
  total_bytes_ = 0;
}

bool ShardedHhhEngine::serializable() const {
  return shards_.front()->engine->serializable();
}

void ShardedHhhEngine::save_state(wire::Writer& w) const {
  drain();  // replicas are stable and synchronized after the quiesce
  w.u64(shards_.size());
  w.u8(static_cast<std::uint8_t>(params_.partition));
  w.u64(total_bytes_);
  for (const auto& shard : shards_) shard->engine->save_state(w);
}

void ShardedHhhEngine::load_state(wire::Reader& r) {
  drain();
  wire::check(r.u64() == shards_.size(), wire::WireError::kParamsMismatch,
              "ShardedHhhEngine shard count mismatch");
  wire::check(r.u8() == static_cast<std::uint8_t>(params_.partition),
              wire::WireError::kParamsMismatch,
              "ShardedHhhEngine partition key mismatch");
  total_bytes_ = r.u64();
  // Safe to mutate replicas from this thread: workers are parked after
  // the quiesce, and the next ring push/pop pair publishes these writes
  // to the owning worker (same ordering reset() relies on).
  for (auto& shard : shards_) shard->engine->load_state(r);
}

std::size_t ShardedHhhEngine::memory_bytes() const {
  drain();
  std::size_t sum = 0;
  for (const auto& bucket : stage_) sum += bucket.capacity() * sizeof(PacketRecord);
  for (const auto& shard : shards_) {
    sum += shard->engine->memory_bytes() + shard->snap_engine->memory_bytes() +
           shard->ring.memory_bytes();
  }
  return sum;
}

std::string ShardedHhhEngine::name() const {
  return "sharded_" + shards_.front()->engine->name() + "_x" +
         std::to_string(shards_.size());
}

std::unique_ptr<HhhEngine> make_sharded_exact_engine(const Hierarchy& hierarchy,
                                                     std::size_t shards) {
  ShardedHhhEngine::Params params;
  params.shards = shards;
  return std::make_unique<ShardedHhhEngine>(
      params, [hierarchy](std::size_t) { return make_exact_engine(hierarchy); });
}

std::unique_ptr<HhhEngine> make_sharded_rhhh_engine(const Hierarchy& hierarchy,
                                                    std::size_t shards,
                                                    std::size_t counters_per_level,
                                                    std::uint64_t base_seed) {
  ShardedHhhEngine::Params params;
  params.shards = shards;
  return std::make_unique<ShardedHhhEngine>(
      params, [hierarchy, counters_per_level, base_seed](std::size_t shard) {
        return std::make_unique<RhhhEngine>(
            RhhhEngine::Params{.hierarchy = hierarchy,
                               .counters_per_level = counters_per_level,
                               .seed = base_seed + shard});
      });
}

}  // namespace hhh
