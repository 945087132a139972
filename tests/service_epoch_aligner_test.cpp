// EpochAligner state machine: grid snapping under clock skew, adaptive
// and fixed completeness, grace expiry with missing-vantage reporting,
// duplicate/late classification (the collector's exactly-once seam), and
// checkpoint save/restore. The aligner takes `now_ns` as a parameter, so
// every timing path here is driven deterministically — no sleeps.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "service/epoch_aligner.hpp"
#include "wire/snapshot.hpp"
#include "wire/wire.hpp"

namespace hhh::service {
namespace {

constexpr std::int64_t kWindow = 1'000'000'000;  // 1 s epochs
constexpr std::int64_t kGrace = 2'000'000'000;   // 2 s straggler wait

AlignerParams params(std::size_t expected = 0) {
  return AlignerParams{.window_ns = kWindow, .grace_ns = kGrace,
                       .expected_vantages = expected};
}

// A whole frame, as parse_epoch hands the aligner: a restored aligner
// verifies every buffered frame again.
std::vector<std::uint8_t> inner(std::uint8_t tag) {
  const std::vector<std::uint8_t> payload{tag, tag, tag};
  return wire::build_frame(wire::SnapshotKind::kExactEngine, payload);
}

Offer offer_at(EpochAligner& aligner, const std::string& vantage, std::int64_t epoch,
               std::int64_t now, std::uint64_t seq = 0, std::int64_t skew = 0) {
  return aligner.offer(vantage, epoch * kWindow + skew, (epoch + 1) * kWindow + skew, seq,
                       inner(static_cast<std::uint8_t>(epoch)), now);
}

TEST(EpochAligner, RejectsNonPositiveWindow) {
  EXPECT_THROW(EpochAligner(AlignerParams{.window_ns = 0}), std::invalid_argument);
  EXPECT_THROW(EpochAligner(AlignerParams{.window_ns = -5}), std::invalid_argument);
}

TEST(EpochAligner, AdaptiveEpochClosesOnceEveryConnectedVantageContributed) {
  EpochAligner aligner(params());
  aligner.vantage_up("a");
  aligner.vantage_up("b");

  EXPECT_EQ(offer_at(aligner, "a", 0, /*now=*/100), Offer::kAccepted);
  EXPECT_TRUE(aligner.drain(200).empty());  // b still owes its frame

  EXPECT_EQ(offer_at(aligner, "b", 0, 300), Offer::kAccepted);
  const auto ready = aligner.drain(400);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].index, 0);
  EXPECT_EQ(ready[0].start_ns, 0);
  EXPECT_EQ(ready[0].end_ns, kWindow);
  EXPECT_EQ(ready[0].frames.size(), 2u);
  EXPECT_TRUE(ready[0].missing.empty());
  EXPECT_FALSE(ready[0].grace_expired);
}

TEST(EpochAligner, ExpectedVantagesGateHoldsUntilTheCount) {
  EpochAligner aligner(params(/*expected=*/3));
  EXPECT_EQ(offer_at(aligner, "a", 0, 100), Offer::kAccepted);
  EXPECT_EQ(offer_at(aligner, "b", 0, 110), Offer::kAccepted);
  EXPECT_TRUE(aligner.drain(120).empty());
  EXPECT_EQ(offer_at(aligner, "c", 0, 130), Offer::kAccepted);
  EXPECT_EQ(aligner.drain(140).size(), 1u);
}

TEST(EpochAligner, GraceExpiryClosesIncompleteAndNamesTheMissing) {
  EpochAligner aligner(params());
  aligner.vantage_up("healthy");
  aligner.vantage_up("stalled");

  ASSERT_EQ(offer_at(aligner, "healthy", 0, /*now=*/1000), Offer::kAccepted);
  EXPECT_TRUE(aligner.drain(1000 + kGrace - 1).empty());  // inside grace

  const auto ready = aligner.drain(1000 + kGrace);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_TRUE(ready[0].grace_expired);
  ASSERT_EQ(ready[0].missing.size(), 1u);
  EXPECT_EQ(ready[0].missing[0], "stalled");
  ASSERT_EQ(ready[0].frames.size(), 1u);
  EXPECT_EQ(ready[0].frames[0].vantage, "healthy");
}

TEST(EpochAligner, DuplicateWithinAnOpenBucketIsDropped) {
  EpochAligner aligner(params(2));
  EXPECT_EQ(offer_at(aligner, "a", 0, 100, /*seq=*/0), Offer::kAccepted);
  EXPECT_EQ(offer_at(aligner, "a", 0, 200, /*seq=*/0), Offer::kDuplicate);
  // The bucket still holds exactly one contribution from a.
  EXPECT_EQ(aligner.pending_frames("a"), 1u);
}

TEST(EpochAligner, FrameForAClosedEpochClassifiesAsLate) {
  EpochAligner aligner(params(1));
  EXPECT_EQ(offer_at(aligner, "a", 0, 100), Offer::kAccepted);
  ASSERT_EQ(aligner.drain(200).size(), 1u);
  EXPECT_TRUE(aligner.epoch_closed(0));

  // Anyone's frame for epoch 0 is now late — including a replay from a.
  EXPECT_EQ(offer_at(aligner, "b", 0, 300), Offer::kLate);
  EXPECT_EQ(offer_at(aligner, "a", 0, 300), Offer::kLate);
  EXPECT_FALSE(aligner.epoch_closed(1));
}

TEST(EpochAligner, SkewWithinToleranceSnapsToTheNearestGridPoint) {
  EpochAligner aligner(params(1));
  const std::int64_t skew = kWindow / 4;  // the default tolerance, inclusive
  EXPECT_EQ(offer_at(aligner, "a", 2, 100, 0, skew), Offer::kAccepted);
  const auto ready = aligner.drain(200);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].index, 2);
  EXPECT_EQ(ready[0].start_ns, 2 * kWindow);  // snapped, not the skewed start
}

TEST(EpochAligner, NegativeSkewOnEpochZeroSnapsToIndexZero) {
  EpochAligner aligner(params(1));
  EXPECT_EQ(aligner.index_of(-kWindow / 5), 0);
  EXPECT_EQ(offer_at(aligner, "a", 0, 100, 0, -kWindow / 5), Offer::kAccepted);
  const auto ready = aligner.drain(200);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].index, 0);
}

TEST(EpochAligner, SkewBeyondToleranceIsMisaligned) {
  EpochAligner aligner(params(1));
  EXPECT_EQ(offer_at(aligner, "a", 1, 100, 0, kWindow / 4 + 1), Offer::kMisaligned);
  EXPECT_EQ(aligner.pending_epochs(), 0u);
}

TEST(EpochAligner, DrainReturnsEpochsAscendingByIndex) {
  EpochAligner aligner(params(1));
  EXPECT_EQ(offer_at(aligner, "a", 3, 100), Offer::kAccepted);
  EXPECT_EQ(offer_at(aligner, "a", 1, 110), Offer::kAccepted);
  EXPECT_EQ(offer_at(aligner, "a", 2, 120), Offer::kAccepted);
  const auto ready = aligner.drain(130);
  ASSERT_EQ(ready.size(), 3u);
  EXPECT_EQ(ready[0].index, 1);
  EXPECT_EQ(ready[1].index, 2);
  EXPECT_EQ(ready[2].index, 3);
}

TEST(EpochAligner, OutOfOrderCloseStillClassifiesInterveningEpochs) {
  // Epoch 5 closes while 4 is still open: 5 joins the sparse closed set,
  // 4 stays offerable, and the watermark advances only once 4 closes.
  EpochAligner aligner(params(1));
  EXPECT_EQ(offer_at(aligner, "a", 5, 100), Offer::kAccepted);
  ASSERT_EQ(aligner.drain(200).size(), 1u);
  EXPECT_TRUE(aligner.epoch_closed(5));
  EXPECT_FALSE(aligner.epoch_closed(4));

  EXPECT_EQ(offer_at(aligner, "a", 5, 300), Offer::kLate);
  EXPECT_EQ(offer_at(aligner, "a", 4, 300), Offer::kAccepted);
}

TEST(EpochAligner, NextDeadlineIsTheEarliestPendingGraceExpiry) {
  EpochAligner aligner(params());
  aligner.vantage_up("a");
  aligner.vantage_up("b");
  EXPECT_EQ(aligner.next_deadline_ns(), std::nullopt);

  ASSERT_EQ(offer_at(aligner, "a", 0, /*now=*/1000), Offer::kAccepted);
  ASSERT_EQ(offer_at(aligner, "a", 1, /*now=*/5000), Offer::kAccepted);
  ASSERT_EQ(aligner.next_deadline_ns(), 1000 + kGrace);
}

TEST(EpochAligner, PendingFramesCountsBucketsPerVantage) {
  EpochAligner aligner(params(2));
  EXPECT_EQ(aligner.pending_frames("a"), 0u);
  ASSERT_EQ(offer_at(aligner, "a", 0, 100), Offer::kAccepted);
  ASSERT_EQ(offer_at(aligner, "a", 1, 110), Offer::kAccepted);
  ASSERT_EQ(offer_at(aligner, "b", 0, 120), Offer::kAccepted);
  EXPECT_EQ(aligner.pending_frames("a"), 2u);
  EXPECT_EQ(aligner.pending_frames("b"), 1u);
}

TEST(EpochAligner, VantageDownRelaxesAdaptiveCompleteness) {
  EpochAligner aligner(params());
  aligner.vantage_up("a");
  aligner.vantage_up("b");
  ASSERT_EQ(offer_at(aligner, "a", 0, 100), Offer::kAccepted);
  EXPECT_TRUE(aligner.drain(200).empty());

  aligner.vantage_down("b");  // the fleet shrank; a alone is now complete
  const auto ready = aligner.drain(300);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_TRUE(ready[0].missing.empty());
  EXPECT_FALSE(ready[0].grace_expired);
}

TEST(EpochAligner, SaveLoadRoundTripsBucketsAndClosedRecord) {
  EpochAligner aligner(params(2));
  ASSERT_EQ(offer_at(aligner, "a", 0, 100), Offer::kAccepted);
  ASSERT_EQ(offer_at(aligner, "b", 0, 110), Offer::kAccepted);
  ASSERT_EQ(aligner.drain(120).size(), 1u);          // epoch 0 closes
  ASSERT_EQ(offer_at(aligner, "a", 1, 130, 1), Offer::kAccepted);  // epoch 1 open

  std::vector<std::uint8_t> bytes;
  wire::Writer w(bytes);
  aligner.save_state(w);

  EpochAligner restored(params(2));
  wire::Reader r(bytes);
  restored.load_state(r, /*now_ns=*/50'000);
  EXPECT_TRUE(r.done());

  // Closed-epoch classification survives: epoch 0 replays are late.
  EXPECT_TRUE(restored.epoch_closed(0));
  EXPECT_EQ(offer_at(restored, "a", 0, 60'000), Offer::kLate);
  // The open bucket survives with its contribution: a's replay of epoch 1
  // is a duplicate, and b's frame completes it.
  EXPECT_EQ(offer_at(restored, "a", 1, 60'000, 1), Offer::kDuplicate);
  EXPECT_EQ(offer_at(restored, "b", 1, 60'000, 1), Offer::kAccepted);
  const auto ready = restored.drain(70'000);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].index, 1);
  ASSERT_EQ(ready[0].frames.size(), 2u);
  EXPECT_EQ(ready[0].frames[0].inner, inner(1));  // contribution bytes intact
}

TEST(EpochAligner, RestoredBucketsRestartTheirGraceAtLoadTime) {
  EpochAligner aligner(params());
  aligner.vantage_up("a");
  aligner.vantage_up("b");
  ASSERT_EQ(offer_at(aligner, "a", 0, /*now=*/7'000'000'000), Offer::kAccepted);

  std::vector<std::uint8_t> bytes;
  wire::Writer w(bytes);
  aligner.save_state(w);

  EpochAligner restored(params());
  restored.vantage_up("b");  // b reconnected but never contributes
  wire::Reader r(bytes);
  restored.load_state(r, /*now_ns=*/100);  // a fresh, smaller clock domain

  // Grace measures from load time, not the dead process's clock: nothing
  // expires before 100 + kGrace even though the saved first_seen was huge.
  EXPECT_TRUE(restored.drain(100 + kGrace - 1).empty());
  const auto ready = restored.drain(100 + kGrace);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_TRUE(ready[0].grace_expired);
}

TEST(EpochAligner, LoadRefusesANonFreshAligner) {
  EpochAligner source(params(1));
  ASSERT_EQ(offer_at(source, "a", 0, 100), Offer::kAccepted);
  std::vector<std::uint8_t> bytes;
  wire::Writer w(bytes);
  source.save_state(w);

  EpochAligner dirty(params(1));
  ASSERT_EQ(offer_at(dirty, "x", 0, 100), Offer::kAccepted);
  wire::Reader r(bytes);
  try {
    dirty.load_state(r, 200);
    FAIL() << "expected WireFormatError";
  } catch (const wire::WireFormatError& e) {
    EXPECT_EQ(e.code(), wire::WireError::kBadValue);
  }
}

// Buffered frames are viewed without a second CRC pass at epoch close,
// so a checkpoint is where a flipped bit must be caught: the restore
// verifies every buffered frame again.
TEST(EpochAligner, LoadRefusesABufferedFrameThatFailsItsCrc) {
  EpochAligner source(params(2));
  ASSERT_EQ(offer_at(source, "a", 0, 100), Offer::kAccepted);
  std::vector<std::uint8_t> bytes;
  wire::Writer w(bytes);
  source.save_state(w);
  bytes[bytes.size() - 6] ^= 0x01;  // a payload byte of the buffered frame

  EpochAligner restored(params(2));
  wire::Reader r(bytes);
  try {
    restored.load_state(r, 200);
    FAIL() << "expected WireFormatError";
  } catch (const wire::WireFormatError& e) {
    EXPECT_EQ(e.code(), wire::WireError::kBadCrc);
  }
}

}  // namespace
}  // namespace hhh::service
