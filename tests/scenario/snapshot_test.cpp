// Checkpoint/restore robustness: run-to-T-then-restore must be
// byte-identical to a straight run for every protocol, and damaged
// snapshots must be rejected with the precise error, never half-restored.
#include "scenario/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "util/hash.hpp"

namespace fatih::scenario {
namespace {

void expect_same_result(const ScenarioResult& a, const ScenarioResult& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.spec_hash, b.spec_hash);
  EXPECT_EQ(a.forwarded, b.forwarded);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.dispatched, b.dispatched);
  EXPECT_EQ(a.final_digest, b.final_digest);
  EXPECT_EQ(a.suspicions, b.suspicions);
  ASSERT_EQ(a.checkpoints.size(), b.checkpoints.size());
  for (std::size_t i = 0; i < a.checkpoints.size(); ++i) {
    EXPECT_EQ(a.checkpoints[i], b.checkpoints[i]) << "checkpoint " << i;
  }
}

/// Rewrites the trailing checksum after a deliberate byte edit, so the
/// mutation reaches the check under test instead of tripping the
/// integrity check first.
void refresh_checksum(std::vector<std::uint8_t>& bytes) {
  const std::size_t body = bytes.size() - 8;
  const std::uint64_t sum = util::fnv1a64(bytes.data(), body);
  for (int i = 0; i < 8; ++i) {
    bytes[body + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(sum >> (8 * i));
  }
}

/// The three protocols' representative attack scenarios, each snapshotted
/// halfway, and the Fatih loop at 123 s: its first alerts (120.8 s) are
/// out, the SPF timers are pending and the reroute (125.8 s) is ahead.
const struct {
  const char* name;
  std::int64_t at_ns;
} kSnapshotCases[] = {{"line4_pi2_drop", 3'000'000'000},
                      {"line4_pik2_drop", 3'000'000'000},
                      {"chi_droptail_drop20", 5'000'000'000},
                      {"abilene_fatih_kc_drop", 123'000'000'000}};

TEST(SnapshotRoundTrip, RestoreResumesByteIdenticallyForEveryProtocol) {
  for (const auto& c : kSnapshotCases) {
    SCOPED_TRACE(c.name);
    const ScenarioSpec* spec = find_scenario(c.name);
    ASSERT_NE(spec, nullptr);
    const ScenarioResult straight = run_scenario(*spec);

    // Run part way, snapshot through the wire format, restore, finish.
    ScenarioRun half(*spec);
    half.run_to(c.at_ns);
    const std::vector<std::uint8_t> bytes = encode_snapshot(take_snapshot(half));

    ScenarioSnapshot decoded;
    SnapshotError error = SnapshotError::kNone;
    ASSERT_TRUE(decode_snapshot(bytes, decoded, error)) << snapshot_error_name(error);

    std::unique_ptr<ScenarioRun> restored;
    ASSERT_TRUE(restore_run(decoded, restored, error)) << snapshot_error_name(error);
    expect_same_result(restored->finish(), straight);

    // The run that was snapshotted also finishes identically.
    expect_same_result(half.finish(), straight);
  }
}

TEST(SnapshotRoundTrip, SnapshotCarriesSuspicionsRaisedSoFar) {
  const ScenarioSpec* spec = find_scenario("line4_pik2_drop");
  ASSERT_NE(spec, nullptr);
  ScenarioRun run(*spec);
  run.run_to(run.end_time_ns());
  const ScenarioSnapshot snap = take_snapshot(run);
  EXPECT_EQ(snap.suspicions, run.suspicion_strings());
  EXPECT_FALSE(snap.suspicions.empty());
  EXPECT_EQ(snap.digest.suspicion_count, snap.suspicions.size());
}

class SnapshotRejection : public ::testing::Test {
 protected:
  void SetUp() override {
    const ScenarioSpec* spec = find_scenario("line4_pik2_clean");
    ASSERT_NE(spec, nullptr);
    ScenarioRun run(*spec);
    run.run_to(1'500'000'000);
    snap_ = take_snapshot(run);
    bytes_ = encode_snapshot(snap_);
  }

  [[nodiscard]] SnapshotError decode_error(const std::vector<std::uint8_t>& bytes) const {
    ScenarioSnapshot out;
    SnapshotError error = SnapshotError::kNone;
    EXPECT_FALSE(decode_snapshot(bytes, out, error));
    return error;
  }

  ScenarioSnapshot snap_{};
  std::vector<std::uint8_t> bytes_{};
};

TEST_F(SnapshotRejection, TruncatedAtEveryPrefixLength) {
  for (const std::size_t keep : {std::size_t{0}, std::size_t{3}, std::size_t{16},
                                 bytes_.size() / 2, bytes_.size() - 1}) {
    std::vector<std::uint8_t> cut(bytes_.begin(),
                                  bytes_.begin() + static_cast<std::ptrdiff_t>(keep));
    ScenarioSnapshot out;
    SnapshotError error = SnapshotError::kNone;
    EXPECT_FALSE(decode_snapshot(cut, out, error)) << "kept " << keep;
    // Very short prefixes are kTruncated; longer ones may first fail the
    // checksum — either way the snapshot is refused.
    EXPECT_TRUE(error == SnapshotError::kTruncated ||
                error == SnapshotError::kChecksumMismatch)
        << snapshot_error_name(error);
  }
}

TEST_F(SnapshotRejection, BadMagic) {
  std::vector<std::uint8_t> bad = bytes_;
  bad[0] = 'X';
  EXPECT_EQ(decode_error(bad), SnapshotError::kBadMagic);
}

TEST_F(SnapshotRejection, CorruptedByteAnywhereFailsChecksum) {
  for (const std::size_t at : {std::size_t{5}, bytes_.size() / 3, bytes_.size() - 9}) {
    std::vector<std::uint8_t> bad = bytes_;
    bad[at] ^= 0x40;
    EXPECT_EQ(decode_error(bad), SnapshotError::kChecksumMismatch) << "byte " << at;
  }
}

TEST_F(SnapshotRejection, WrongVersionIsDetectedDistinctly) {
  std::vector<std::uint8_t> bad = bytes_;
  bad[4] = static_cast<std::uint8_t>(kSnapshotVersion + 1);
  // Recompute the trailer so the version check — not the integrity check —
  // is what rejects it.
  refresh_checksum(bad);
  EXPECT_EQ(decode_error(bad), SnapshotError::kBadVersion);
}

TEST_F(SnapshotRejection, UndecodableEmbeddedSpecRefusesRestore) {
  // An unknown statement, and a churn event on routers line4 does not have.
  for (const std::string& text :
       {std::string("scenario v1\nbogus statement\n"),
        snap_.spec_text + "churn link_down at_ns=1700000000 a=99 b=100\n"}) {
    ScenarioSnapshot bad = snap_;
    bad.spec_text = text;
    std::unique_ptr<ScenarioRun> out;
    SnapshotError error = SnapshotError::kNone;
    EXPECT_FALSE(restore_run(bad, out, error)) << text;
    EXPECT_EQ(error, SnapshotError::kBadSpec) << text;
    EXPECT_EQ(out, nullptr);
  }
}

TEST_F(SnapshotRejection, MismatchedSpecDivergesOnReplay) {
  // A valid spec that is not the snapshotted one: replay reaches T with a
  // different digest and the restore must refuse to resume.
  ScenarioSnapshot bad = snap_;
  bad.spec_text = encode(*find_scenario("line4_pik2_drop"));
  std::unique_ptr<ScenarioRun> out;
  SnapshotError error = SnapshotError::kNone;
  EXPECT_FALSE(restore_run(bad, out, error));
  EXPECT_EQ(error, SnapshotError::kStateDiverged);
  EXPECT_EQ(out, nullptr);
}

TEST_F(SnapshotRejection, TamperedDigestDivergesOnReplay) {
  ScenarioSnapshot bad = snap_;
  bad.digest.forwarded ^= 1;
  std::unique_ptr<ScenarioRun> out;
  SnapshotError error = SnapshotError::kNone;
  EXPECT_FALSE(restore_run(bad, out, error));
  EXPECT_EQ(error, SnapshotError::kStateDiverged);
}

}  // namespace
}  // namespace fatih::scenario
