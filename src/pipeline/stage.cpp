#include "pipeline/stage.hpp"

#include <stdexcept>
#include <utility>

#include "core/engine.hpp"
#include "core/sharded_engine.hpp"
#include "wire/snapshot.hpp"

namespace hhh::pipeline {

std::vector<std::uint8_t> MeasurementStage::snapshot() const {
  throw std::logic_error("MeasurementStage: " + name() + " is not serializable");
}

namespace {

class SummaryStage final : public MeasurementStage {
 public:
  explicit SummaryStage(std::unique_ptr<HhhSummary> summary) : summary_(std::move(summary)) {
    if (!summary_) throw std::invalid_argument("make_engine_stage: null summary");
  }

  void ingest(std::span<const PacketRecord> run) override {
    folded_.reset();
    summary_->add_batch(run);
    if (!run.empty()) last_ts_ = run.back().ts;
  }

  HhhSet report(const WindowEvent& event, double phi) override {
    // For a sharded front-end, fold once per boundary and serve both the
    // report and any snapshot from the folded engine — extract() and
    // snapshot() would otherwise each quiesce and merge all replicas.
    if (const auto* sharded = dynamic_cast<const ShardedHhhEngine*>(summary_.get())) {
      folded_ = sharded->fold();
      return folded_->extract(phi);
    }
    return summary_->report(event.end, phi);
  }

  void reset_state() override {
    folded_.reset();
    summary_->reset();
  }

  bool serializable() const override { return summary_->serializable(); }

  std::vector<std::uint8_t> snapshot() const override {
    // A sharded front-end snapshots as its folded single-engine
    // equivalent: a kShardedEngine frame restores only in place (the
    // factory cannot travel), so shipping one to a collector would be
    // undecodable — the folded frame carries the inner engine's mergeable
    // kind. The fold is cached from report() when this window close
    // already produced one.
    if (const auto* sharded = dynamic_cast<const ShardedHhhEngine*>(summary_.get())) {
      return wire::save_engine(folded_ ? *folded_ : *sharded->fold());
    }
    return wire::save_engine(*summary_);
  }

  // Engines ignore the instant; a Memento window total never rewinds, so
  // any instant in the newest frame reads the watermark's value; TDBF
  // decays to the last arrival.
  std::uint64_t total_bytes() const override {
    return static_cast<std::uint64_t>(summary_->total(last_ts_));
  }
  std::size_t memory_bytes() const override { return summary_->memory_bytes(); }
  std::string name() const override {
    const bool engine = dynamic_cast<const HhhEngine*>(summary_.get()) != nullptr;
    return engine ? "engine:" + summary_->name() : summary_->name();
  }

 private:
  std::unique_ptr<HhhSummary> summary_;
  TimePoint last_ts_;  // of the last ingested packet
  // The replicas folded at the current window close (sharded engines
  // only); invalidated by ingest/reset.
  std::unique_ptr<HhhEngine> folded_;
};

}  // namespace

std::unique_ptr<MeasurementStage> make_engine_stage(std::unique_ptr<HhhSummary> summary) {
  return std::make_unique<SummaryStage>(std::move(summary));
}

}  // namespace hhh::pipeline
