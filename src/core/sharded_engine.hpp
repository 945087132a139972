/// \file
/// ShardedHhhEngine — parallel ingestion over mergeable engine replicas.
///
/// The first structure in the library that lets throughput scale with cores
/// instead of IPC. The front-end (caller) thread hash-partitions packets by
/// flow key across N shards; each shard is a worker thread that owns a
/// *private* replica of the inner engine and an SPSC ring of messages
/// (util/spsc_ring.hpp), so the hot path has no locks, no shared counters
/// and no cross-shard cache traffic.
///
/// Dispatch is staged: the front-end appends each packet to a persistent
/// per-shard staging buffer and publishes a buffer to its ring only when it
/// reaches `dispatch_batch` packets — one ring operation (one release
/// store, one potential wakeup) moves a contiguous sub-batch of thousands
/// of records, and shard selection for whole batches runs through the SIMD
/// mix64 kernels (util/simd.hpp). Window boundaries flush the staging
/// buffers first (extract/reset/drain), so a window close never leaves
/// staged packets attributed to the wrong epoch.
///
/// Extraction is quiesce-free: extract()/fold() enqueue a snapshot marker
/// on every ring (FIFO with the packet batches), each worker clones its
/// replica the moment it reaches the marker and keeps going, and the
/// front-end merges the per-shard clones in shard order. No worker parks,
/// no stop-the-world — and because the marker is FIFO-ordered after every
/// packet dispatched before it, the merged clone state equals what a full
/// quiesce would have seen. The quiesce path remains for the operations
/// that mutate or serialize the live replicas: reset(), save_state(),
/// load_state(), memory_bytes().
///
/// Accuracy is inherited from the merge semantics (see engine.hpp): with an
/// exact inner engine the sharded result is byte-identical to single-thread
/// ingestion; with RHHH/HSS the per-level error bounds sum across shards,
/// keeping the same epsilon class as one engine over the whole stream.
///
/// Determinism: the partition function is a fixed hash, each shard's ring
/// is FIFO and each replica is seeded by the factory, so for a fixed stream
/// the extracted sets are reproducible regardless of thread scheduling.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "obs/metrics.hpp"
#include "util/spsc_ring.hpp"

namespace hhh {

/// HhhEngine that fans ingestion out to N worker threads, each owning a
/// private mergeable replica, and merges on extraction.
class ShardedHhhEngine final : public HhhEngine {
 public:
  /// Builds the replica for one shard. Called once per shard for the
  /// worker replicas, once per shard for the snapshot clone targets (same
  /// index), and once per fold with index = shards for the merge scratch
  /// engine. Factories must hand out mergeable, identically-configured
  /// engines (distinct seeds per shard are fine and recommended for
  /// randomized engines).
  using EngineFactory = std::function<std::unique_ptr<HhhEngine>(std::size_t shard)>;

  /// What the packets are partitioned by.
  enum class PartitionKey : std::uint8_t {
    kFlow,    ///< 5-tuple hash: spreads a heavy source across shards (load balance)
    kSource,  ///< source-address hash: each source confined to one shard
  };

  /// Construction-time configuration.
  struct Params {
    std::size_t shards = 4;            ///< worker thread / replica count
    std::size_t ring_capacity = 64;    ///< messages in flight per shard ring
    std::size_t dispatch_batch = 4096; ///< per-shard staging publish threshold (packets)
    PartitionKey partition = PartitionKey::kFlow;  ///< shard selector input
  };

  /// Spawns `params.shards` workers, each with a replica from `factory`.
  /// Throws std::invalid_argument on zero shards or a non-mergeable
  /// replica.
  ShardedHhhEngine(const Params& params, EngineFactory factory);

  /// Joins the workers (any queued batches are drained first).
  ~ShardedHhhEngine() override;

  /// Partition the batch across the per-shard staging buffers (shard
  /// selection is SIMD-batched) and publish every buffer that reaches
  /// `dispatch_batch` packets (and every buffer at any
  /// extract/reset/drain). Returns as soon as the packets are
  /// staged/enqueued — workers ingest concurrently; call drain() or
  /// extract() to synchronize.
  void add_batch(std::span<const PacketRecord> packets) override;

  /// The replicas' family.
  AddressFamily family() const override { return family_; }

  /// Quiesce-free extraction: flush staging, enqueue a snapshot marker per
  /// shard, merge the per-shard replica clones (published at ring-FIFO
  /// order, i.e. reflecting exactly the packets dispatched before the
  /// marker) and extract from the merged state.
  HhhSet extract(double phi) const override;

  /// Return a fresh scratch engine holding every replica's state folded
  /// together — the single-engine equivalent of this front-end's
  /// accumulated traffic. Snapshot producers use it to emit *mergeable*
  /// frames (the inner engine's kind) instead of restore-in-place-only
  /// sharded frames. Uses the quiesce-free snapshot path: live ingestion
  /// continues behind the returned fold.
  std::unique_ptr<HhhEngine> fold() const;

  /// Quiesce and reset every replica (window boundary). Staged packets are
  /// flushed and fully ingested first, so a preceding extract() and this
  /// reset see the same stream split.
  void reset() override;

  /// Exact byte total of the replicas' family handed to add_batch() since
  /// the last reset (tracked on the front-end thread; workers never touch
  /// it).
  std::uint64_t total_bytes() const override { return total_bytes_; }

  /// Replica footprints plus ring buffers and staging. Synchronizing:
  /// drains pending batches first so the replica reads are well-defined —
  /// expect a stall when called mid-ingestion.
  std::size_t memory_bytes() const override;

  /// "sharded_<inner>_x<N>", e.g. "sharded_exact_x4".
  std::string name() const override;

  /// Merging two sharded engines is not supported (merge the inners).
  bool mergeable() const override { return false; }

  /// True when every replica is serializable. Sharded snapshots restore
  /// only into an identically-constructed engine (same factory, same
  /// shard count) — the factory itself cannot travel over the wire — so
  /// the standalone snapshot loader rejects them; a restore builds the
  /// engine first and then calls load_state() (wire::load_engine_into).
  bool serializable() const override;

  /// Quiesce every worker, then write shard-count/partition params, the
  /// front-end byte ledger and each replica's save_state() in shard
  /// order. Per-replica RNG state travels, so a restored sharded engine
  /// is behaviourally identical on any subsequent stream.
  void save_state(wire::Writer& w) const override;

  /// Restore a checkpoint written by save_state() into an engine built
  /// with the same Params and factory. Throws wire::WireFormatError
  /// (kParamsMismatch) on a shard-count/partition mismatch.
  void load_state(wire::Reader& r) override;

  /// Block until every dispatched batch has been ingested by its worker.
  /// Exposed so benchmarks can time ingestion-to-completion rather than
  /// enqueue speed. Logically const: it completes pending work without
  /// changing what has been accounted.
  void drain() const;

  /// Shard count.
  std::size_t shards() const noexcept { return shards_.size(); }

 private:
  /// One ring message: either a contiguous packet sub-batch
  /// (snapshot_seq == 0) or a snapshot marker telling the worker to clone
  /// its replica and publish the clone under `snapshot_seq`.
  struct ShardMsg {
    std::vector<PacketRecord> batch;
    std::uint64_t snapshot_seq = 0;
  };

  struct Shard {
    std::unique_ptr<HhhEngine> engine;
    // Worker-owned clone target for the epoch-snapshot path: the worker
    // rebuilds it (reset + merge_from(engine)) at each snapshot marker;
    // the front-end reads it only after observing snap_ready == seq.
    std::unique_ptr<HhhEngine> snap_engine;
    SpscRing<ShardMsg> ring;
    std::thread worker;
    // Messages handed to the ring (front-end) vs fully processed (worker).
    // dispatched is front-end-private; completed is the quiesce sync
    // point. Each on its own line: completed and snap_ready are written by
    // the worker while the front-end spins nearby.
    std::uint64_t dispatched = 0;
    alignas(64) std::atomic<std::uint64_t> completed{0};
    alignas(64) std::atomic<std::uint64_t> snap_ready{0};
    // Registry-owned metric handles, resolved at construction (labels
    // {engine, shard}). batches counts ring publishes; ring_depth tracks
    // in-flight messages (+1 at dispatch, -n at worker completion).
    obs::Counter* batches = nullptr;
    obs::Gauge* ring_depth = nullptr;

    explicit Shard(std::size_t ring_capacity) : ring(ring_capacity) {}
  };

  std::size_t shard_of(const PacketRecord& p) const noexcept;
  // Fill idx_scratch_ with the shard of every packet. Family-homogeneous
  // batches run the FlowKey hash chain through the SIMD mix64 kernels;
  // mixed batches fall back to the scalar shard_of (identical output).
  // Returns the batch's family, or nullopt for a mixed batch.
  std::optional<AddressFamily> compute_shard_indices(
      std::span<const PacketRecord> packets) const;
  // The dispatch path is const so extract()/memory_bytes() can flush
  // without const_cast: enqueueing staged work mutates no observable
  // accounting state (Shard internals are reached through pointers).
  void publish(std::size_t shard) const;
  void flush_staging() const;
  void quiesce() const;
  // Enqueue snapshot markers on every ring, wait for the clones, and merge
  // them in shard order into a fresh scratch engine.
  std::unique_ptr<HhhEngine> snapshot_fold() const;
  static void worker_loop(Shard& shard);

  Params params_;
  EngineFactory factory_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Persistent per-shard staging buffers: packets accumulate here and move
  // to the ring as one contiguous sub-batch per publish.
  mutable std::vector<std::vector<PacketRecord>> stage_;
  // compute_shard_indices scratch (members so batches reuse capacity).
  mutable std::vector<std::uint64_t> key_scratch_;
  mutable std::vector<std::uint64_t> link_scratch_;
  mutable std::vector<std::uint32_t> idx_scratch_;
  mutable std::uint64_t snapshot_seq_ = 0;  // last issued snapshot marker
  AddressFamily family_ = AddressFamily::kIpv4;  // the replicas' family
  std::uint64_t total_bytes_ = 0;           // front-end byte ledger
  obs::Histogram* quiesce_ns_ = nullptr;    // hhh_sharded_quiesce_ns{engine}
  obs::Histogram* snapshot_ns_ = nullptr;   // hhh_sharded_snapshot_ns{engine}
};

/// Sharded exact engine: byte-identical to single-thread exact ingestion.
std::unique_ptr<HhhEngine> make_sharded_exact_engine(const Hierarchy& hierarchy,
                                                     std::size_t shards);

/// Sharded RHHH: shard s gets seed `base_seed + s` (scratch gets
/// `base_seed + shards`); summed per-level error bounds (see engine.hpp).
std::unique_ptr<HhhEngine> make_sharded_rhhh_engine(const Hierarchy& hierarchy,
                                                    std::size_t shards,
                                                    std::size_t counters_per_level,
                                                    std::uint64_t base_seed);

}  // namespace hhh
