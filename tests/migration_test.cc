// Server-farm tests (DESIGN.md §9): checkpoint round-trip exactness, hostile-blob
// rejection, cross-server hotdesk migration (clean and under chaos loss), and warm-standby
// crash failover.
//
// The acceptance properties from the issue:
//   - checkpoint -> restore is bit-identical on the framebuffer AND the damage tracker's
//     shadow state (property-tested over randomized sessions);
//   - a cross-server hotdesk under 10% fabric loss converges with exactly one owning
//     server and zero stale card mappings;
//   - a killed server's session comes back from the warm standby with the pre-crash
//     pixels on screen.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/apps/content.h"
#include "src/console/console.h"
#include "src/net/fabric.h"
#include "src/obs/metrics.h"
#include "src/protocol/messages.h"
#include "src/server/checkpoint.h"
#include "src/server/migration.h"
#include "src/server/session.h"
#include "src/server/slim_server.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"
#include "src/util/time.h"

namespace slim {
namespace {

ServerOptions SmallSession() {
  ServerOptions options;
  options.session_width = 160;
  options.session_height = 120;
  return options;
}

// Console geometry must match the small sessions, or whole-framebuffer hashes can never
// agree.
ConsoleOptions SmallConsole() {
  ConsoleOptions options;
  options.width = 160;
  options.height = 120;
  return options;
}

uint64_t BlankHash(const Console& console) {
  return Framebuffer(console.framebuffer().width(), console.framebuffer().height())
      .ContentHash();
}

// --- Checkpoint blob round-trip ----------------------------------------------------------

SessionCheckpoint SyntheticCheckpoint() {
  SessionCheckpoint ckpt;
  ckpt.origin_session = 7;
  ckpt.card_id = 0xDEADBEEFCAFEull;
  ckpt.lifecycle_state = 1;
  ckpt.console_send_seq = 123456789;
  ckpt.width = 8;
  ckpt.height = 3;
  ckpt.fb_pixels.resize(24);
  for (size_t i = 0; i < ckpt.fb_pixels.size(); ++i) {
    ckpt.fb_pixels[i] = static_cast<Pixel>(0x010203 * i);
  }
  ckpt.tracker_present = true;
  ckpt.tracker_valid = true;
  ckpt.shadow_pixels = ckpt.fb_pixels;
  ckpt.shadow_row_hashes = {11, 22, 33};
  ckpt.damage = {Rect{1, 1, 4, 2}, Rect{0, 0, 8, 1}};
  ckpt.interactive_grant_bps = 2'000'000;
  ckpt.video_grant_bps = 40'000'000;
  ckpt.link_total_bps = 100'000'000;
  ckpt.video_deferred = 3;
  ckpt.video_dropped = 1;
  ckpt.coalesced_flushes = 9;
  ckpt.commands_sent = 1234;
  ckpt.bytes_sent = 567890;
  ckpt.render_time = Milliseconds(12);
  ckpt.encode_time = Milliseconds(34);
  ckpt.wire_time = Milliseconds(56);
  for (int t = 1; t <= 5; ++t) {
    ckpt.encode_stats[t] = {t * 10, t * 100, t * 1000, t * 10000};
  }
  return ckpt;
}

TEST(CheckpointTest, EncodeDecodeRoundTripIsExact) {
  const SessionCheckpoint ckpt = SyntheticCheckpoint();
  const std::vector<uint8_t> blob = EncodeCheckpoint(ckpt);
  const std::optional<SessionCheckpoint> decoded = DecodeCheckpoint(blob);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, ckpt);
}

TEST(CheckpointTest, TrackerlessCheckpointRoundTrips) {
  SessionCheckpoint ckpt = SyntheticCheckpoint();
  ckpt.tracker_present = false;
  ckpt.tracker_valid = false;
  ckpt.shadow_pixels.clear();
  ckpt.shadow_row_hashes.clear();
  const std::optional<SessionCheckpoint> decoded = DecodeCheckpoint(EncodeCheckpoint(ckpt));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, ckpt);
}

TEST(CheckpointTest, EveryTruncationIsRejected) {
  const std::vector<uint8_t> blob = EncodeCheckpoint(SyntheticCheckpoint());
  // Every prefix of the blob must decode to nullopt — never crash, never half-parse. The
  // outer length header catches most cuts; the internal consistency checks catch the rest.
  for (size_t len = 0; len < blob.size(); ++len) {
    EXPECT_FALSE(DecodeCheckpoint(std::span(blob.data(), len)).has_value())
        << "truncation at byte " << len << " parsed";
  }
  // Trailing garbage is equally fatal: a blob is exact or it is nothing.
  std::vector<uint8_t> padded = blob;
  padded.push_back(0);
  EXPECT_FALSE(DecodeCheckpoint(padded).has_value());
}

// Round trips cannot see a layout change that encode and decode make together, so the
// pixel sections' bytes are pinned: each pixel is 4 little-endian bytes, row-major.
TEST(CheckpointTest, PixelSectionsAreLittleEndianAtFixedOffsets) {
  SessionCheckpoint ckpt;
  ckpt.width = 3;
  ckpt.height = 2;
  ckpt.fb_pixels = {0x00112233, 0x00445566, 0x00778899, 0x00AABBCC, 0x00DDEEFF, 0x00010203};
  ckpt.tracker_present = true;
  ckpt.tracker_valid = true;
  ckpt.shadow_row_hashes = {1, 2};
  ckpt.shadow_pixels = {0x00FEDCBA, 0x00987654, 0x00321000, 0x00F0E0D0, 0x00C0B0A0,
                        0x00090807};
  const std::vector<uint8_t> blob = EncodeCheckpoint(ckpt);

  // 16-byte header (magic, version, body length), then origin_session (4), card_id (8),
  // lifecycle_state (1), console_send_seq (8), width (4) and height (4).
  constexpr size_t kFbOffset = 16 + 4 + 8 + 1 + 8 + 4 + 4;
  const std::vector<uint8_t> fb_bytes = {
      0x33, 0x22, 0x11, 0x00, 0x66, 0x55, 0x44, 0x00, 0x99, 0x88, 0x77, 0x00,
      0xCC, 0xBB, 0xAA, 0x00, 0xFF, 0xEE, 0xDD, 0x00, 0x03, 0x02, 0x01, 0x00};
  ASSERT_GE(blob.size(), kFbOffset + fb_bytes.size());
  EXPECT_EQ(std::vector<uint8_t>(blob.begin() + kFbOffset,
                                 blob.begin() + kFbOffset + fb_bytes.size()),
            fb_bytes);

  // After the fb section: tracker_present (1), tracker_valid (1), one row hash per row (8).
  constexpr size_t kShadowOffset = kFbOffset + 6 * 4 + 1 + 1 + 2 * 8;
  const std::vector<uint8_t> shadow_bytes = {
      0xBA, 0xDC, 0xFE, 0x00, 0x54, 0x76, 0x98, 0x00, 0x00, 0x10, 0x32, 0x00,
      0xD0, 0xE0, 0xF0, 0x00, 0xA0, 0xB0, 0xC0, 0x00, 0x07, 0x08, 0x09, 0x00};
  ASSERT_GE(blob.size(), kShadowOffset + shadow_bytes.size());
  EXPECT_EQ(std::vector<uint8_t>(blob.begin() + kShadowOffset,
                                 blob.begin() + kShadowOffset + shadow_bytes.size()),
            shadow_bytes);

  const std::optional<SessionCheckpoint> decoded = DecodeCheckpoint(blob);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, ckpt);
}

TEST(CheckpointTest, VersionAndMagicMismatchesAreRejected) {
  const SessionCheckpoint ckpt = SyntheticCheckpoint();
  std::vector<uint8_t> blob = EncodeCheckpoint(ckpt);
  ASSERT_TRUE(DecodeCheckpoint(blob).has_value());
  std::vector<uint8_t> bad_version = blob;
  bad_version[4] = 2;  // version 2 does not exist
  EXPECT_FALSE(DecodeCheckpoint(bad_version).has_value());
  std::vector<uint8_t> bad_magic = blob;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(DecodeCheckpoint(bad_magic).has_value());
}

TEST(CheckpointTest, RandomByteFlipsNeverCrashTheDecoder) {
  const std::vector<uint8_t> blob = EncodeCheckpoint(SyntheticCheckpoint());
  Rng rng(97);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> mutated = blob;
    const int flips = 1 + static_cast<int>(rng.NextBelow(4));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.NextBelow(mutated.size())] ^= static_cast<uint8_t>(1 + rng.NextBelow(255));
    }
    // Either the mutation hit don't-care bytes (decodes to something) or it is rejected;
    // both are fine — what is not fine is a crash or a SLIM_CHECK abort.
    (void)DecodeCheckpoint(mutated);
  }
}

// --- Capture/restore on live sessions ----------------------------------------------------

class CheckpointSessionFixture : public ::testing::Test {
 protected:
  CheckpointSessionFixture()
      : fabric_(&sim_, {}),
        server_a_(&sim_, &fabric_, SmallSession()),
        server_b_(&sim_, &fabric_, SmallSession()),
        console_(&sim_, &fabric_, SmallConsole()) {}

  // Attach at server A and scribble `rounds` of randomized content so the framebuffer,
  // damage tracker shadow, and counters all hold non-trivial state.
  ServerSession& PopulatedSession(Rng* rng, int rounds) {
    card_ = server_a_.auth().IssueCard(1);
    ServerSession& session = server_a_.CreateSession(card_);
    console_.InsertCard(server_a_.node(), card_);
    sim_.RunFor(Milliseconds(200));
    EXPECT_TRUE(session.attached());
    for (int i = 0; i < rounds; ++i) {
      const int32_t x = static_cast<int32_t>(rng->NextBelow(120));
      const int32_t y = static_cast<int32_t>(rng->NextBelow(90));
      if (rng->NextBool(0.5)) {
        session.PutImage(Rect{x, y, 32, 24}, MakePhotoBlock(rng, 32, 24));
      } else {
        session.FillRect(Rect{x, y, 40, 30},
                         MakePixel(static_cast<uint8_t>(rng->NextBelow(255)), 80, 40));
      }
      session.Flush();
      sim_.RunFor(Milliseconds(50));
    }
    return session;
  }

  Simulator sim_;
  Fabric fabric_;
  SlimServer server_a_;
  SlimServer server_b_;
  Console console_;
  uint64_t card_ = 0;
};

TEST_F(CheckpointSessionFixture, RandomizedSessionsRoundTripBitIdentical) {
  Rng rng(4242);
  ServerSession& session = PopulatedSession(&rng, 12);

  SessionCheckpoint ckpt;
  session.CaptureCheckpoint(&ckpt);
  ckpt.card_id = card_;
  ckpt.lifecycle_state = 1;
  EXPECT_EQ(ckpt.fb_pixels.size(), static_cast<size_t>(160 * 120));

  // Wire round trip is exact.
  const std::optional<SessionCheckpoint> decoded = DecodeCheckpoint(EncodeCheckpoint(ckpt));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, ckpt);

  // Restoring on another server reproduces framebuffer AND shadow state bit-identically:
  // a second capture from the restored session differs only in its identity fields.
  std::unique_ptr<ServerSession> restored = server_b_.BuildStagedSession(*decoded);
  SessionCheckpoint recaptured;
  restored->CaptureCheckpoint(&recaptured);
  EXPECT_EQ(recaptured.fb_pixels, ckpt.fb_pixels);
  EXPECT_EQ(recaptured.tracker_present, ckpt.tracker_present);
  EXPECT_EQ(recaptured.tracker_valid, ckpt.tracker_valid);
  EXPECT_EQ(recaptured.shadow_pixels, ckpt.shadow_pixels);
  EXPECT_EQ(recaptured.shadow_row_hashes, ckpt.shadow_row_hashes);
  EXPECT_EQ(recaptured.damage, ckpt.damage);
  EXPECT_EQ(recaptured.commands_sent, ckpt.commands_sent);
  EXPECT_EQ(recaptured.bytes_sent, ckpt.bytes_sent);
  for (int t = 1; t <= 5; ++t) {
    EXPECT_EQ(recaptured.encode_stats[t], ckpt.encode_stats[t]);
  }
  EXPECT_EQ(restored->framebuffer().ContentHash(), session.framebuffer().ContentHash());
}

TEST(CheckpointPropertyTest, PropertyManySeedsManyShapes) {
  // The property, over a spread of seeds and drawing mixes: capture -> encode -> decode ->
  // restore -> recapture reproduces every non-identity field exactly. Each seed gets its
  // own sim+fabric world (a torn-down server must not leave armed probes behind).
  for (uint64_t seed : {1ull, 17ull, 99ull, 1234ull}) {
    Rng rng(seed);
    Simulator sim;
    Fabric fabric(&sim, {});
    SlimServer src(&sim, &fabric, SmallSession());
    SlimServer dst(&sim, &fabric, SmallSession());
    Console console(&sim, &fabric, SmallConsole());
    const uint64_t card = src.auth().IssueCard(1);
    ServerSession& session = src.CreateSession(card);
    console.InsertCard(src.node(), card);
    sim.RunFor(Milliseconds(200));
    ASSERT_TRUE(session.attached()) << "seed " << seed;
    const int rounds = 3 + static_cast<int>(rng.NextBelow(8));
    for (int i = 0; i < rounds; ++i) {
      const int32_t x = static_cast<int32_t>(rng.NextBelow(150));
      const int32_t y = static_cast<int32_t>(rng.NextBelow(110));
      session.PutImage(Rect{x, y, 1 + static_cast<int32_t>(rng.NextBelow(64)),
                            1 + static_cast<int32_t>(rng.NextBelow(48))},
                       MakePhotoBlock(&rng, 64, 48));
      session.Flush();
      sim.RunFor(Milliseconds(20));
    }
    SessionCheckpoint ckpt;
    session.CaptureCheckpoint(&ckpt);
    const std::optional<SessionCheckpoint> decoded =
        DecodeCheckpoint(EncodeCheckpoint(ckpt));
    ASSERT_TRUE(decoded.has_value()) << "seed " << seed;
    ASSERT_EQ(*decoded, ckpt) << "seed " << seed;
    SessionCheckpoint recaptured;
    dst.BuildStagedSession(*decoded)->CaptureCheckpoint(&recaptured);
    EXPECT_EQ(recaptured.fb_pixels, ckpt.fb_pixels) << "seed " << seed;
    EXPECT_EQ(recaptured.shadow_pixels, ckpt.shadow_pixels) << "seed " << seed;
    EXPECT_EQ(recaptured.shadow_row_hashes, ckpt.shadow_row_hashes) << "seed " << seed;
    EXPECT_EQ(recaptured.tracker_valid, ckpt.tracker_valid) << "seed " << seed;
    EXPECT_EQ(recaptured.damage, ckpt.damage) << "seed " << seed;
  }
}

// --- Cross-server hotdesk migration ------------------------------------------------------

class MigrationFixture : public ::testing::Test {
 protected:
  MigrationFixture()
      : fabric_(&sim_, {}),
        server_a_(&sim_, &fabric_, SmallSession()),
        server_b_(&sim_, &fabric_, SmallSession()),
        console_a_(&sim_, &fabric_, SmallConsole()),
        console_b_(&sim_, &fabric_, SmallConsole()) {
    manager_a_ = &server_a_.EnableMigration(pool_, MigrationOptions{});
    manager_b_ = &server_b_.EnableMigration(pool_, MigrationOptions{});
    card_ = pool_.IssueCard(1);
  }

  // Attach the card at console A / server A and draw recognizable content.
  uint64_t StartSessionAtA() {
    console_a_.InsertCard(server_a_.node(), card_);
    sim_.RunFor(Milliseconds(300));
    ServerSession* session = server_a_.SessionForCard(card_);
    EXPECT_NE(session, nullptr);
    Rng rng(7);
    session->PutImage(Rect{8, 8, 96, 72}, MakePhotoBlock(&rng, 96, 72));
    session->FillRect(Rect{120, 80, 30, 30}, MakePixel(200, 40, 40));
    session->Flush();
    sim_.RunFor(Milliseconds(300));
    EXPECT_EQ(session->framebuffer().ContentHash(), console_a_.framebuffer().ContentHash());
    EXPECT_EQ(pool_.owner(card_), &server_a_);
    return session->framebuffer().ContentHash();
  }

  Simulator sim_;
  Fabric fabric_;
  ServerPool pool_;
  SlimServer server_a_;
  SlimServer server_b_;
  MigrationManager* manager_a_ = nullptr;
  MigrationManager* manager_b_ = nullptr;
  Console console_a_;
  Console console_b_;
  uint64_t card_ = 0;
};

TEST_F(MigrationFixture, CleanHotdeskAcrossServersMovesTheSessionExactly) {
  const uint64_t content_hash = StartSessionAtA();

  // The card surfaces at a console homed on server B: B pulls the session from A.
  console_b_.InsertCard(server_b_.node(), card_);
  sim_.RunFor(Seconds(2));

  // Exactly one owner, zero stale card mappings.
  ServerSession* moved = server_b_.SessionForCard(card_);
  ASSERT_NE(moved, nullptr);
  EXPECT_TRUE(moved->attached());
  EXPECT_EQ(moved->console(), console_b_.node());
  EXPECT_EQ(pool_.owner(card_), &server_b_);
  EXPECT_EQ(pool_.owned_cards(), 1u);
  EXPECT_EQ(server_a_.SessionForCard(card_), nullptr);
  EXPECT_EQ(server_a_.session_count(), 0u);
  EXPECT_EQ(server_a_.card_count(), 0u);
  EXPECT_EQ(server_b_.card_count(), 1u);
  EXPECT_FALSE(manager_a_->MigrationInFlight());
  EXPECT_FALSE(manager_b_->MigrationInFlight());

  // The pixels made the trip bit-exactly and reached the new console.
  EXPECT_EQ(moved->framebuffer().ContentHash(), content_hash);
  EXPECT_EQ(console_b_.framebuffer().ContentHash(), content_hash);
  // The old console was released (blanked), not left frozen on a ghost desktop.
  EXPECT_GE(console_a_.releases_applied(), 1);
  EXPECT_EQ(console_a_.framebuffer().ContentHash(), BlankHash(console_a_));

  // Protocol accounting: one commit on the source, one install on the destination, a
  // measured blackout on the destination's attach.
  EXPECT_EQ(manager_a_->stats().started, 1);
  EXPECT_EQ(manager_a_->stats().committed, 1);
  EXPECT_EQ(manager_b_->stats().installs, 1);
  EXPECT_EQ(manager_b_->stats().pulls_requested, 1);
  EXPECT_GT(manager_b_->stats().blackout_last_ns, 0);
  EXPECT_GT(manager_a_->checkpoint_stats().captures, 0);
  EXPECT_GT(manager_b_->checkpoint_stats().restores, 0);
}

TEST_F(MigrationFixture, HotdeskBackAndForthKeepsASingleOwner) {
  const uint64_t content_hash = StartSessionAtA();
  // A -> B -> A: two migrations; state survives both.
  console_b_.InsertCard(server_b_.node(), card_);
  sim_.RunFor(Seconds(2));
  ASSERT_NE(server_b_.SessionForCard(card_), nullptr);
  console_a_.InsertCard(server_a_.node(), card_);
  sim_.RunFor(Seconds(2));

  ServerSession* back = server_a_.SessionForCard(card_);
  ASSERT_NE(back, nullptr);
  EXPECT_TRUE(back->attached());
  EXPECT_EQ(back->console(), console_a_.node());
  EXPECT_EQ(back->framebuffer().ContentHash(), content_hash);
  EXPECT_EQ(console_a_.framebuffer().ContentHash(), content_hash);
  EXPECT_EQ(pool_.owner(card_), &server_a_);
  EXPECT_EQ(pool_.owned_cards(), 1u);
  EXPECT_EQ(server_b_.SessionForCard(card_), nullptr);
  EXPECT_EQ(server_b_.card_count(), 0u);
  EXPECT_FALSE(manager_a_->MigrationInFlight());
  EXPECT_FALSE(manager_b_->MigrationInFlight());
}

TEST_F(MigrationFixture, ChaosLossMigrationConvergesToExactlyOneOwner) {
  const uint64_t content_hash = StartSessionAtA();

  // One datagram in ten dies on the server<->server path — Begin, chunks, commits and
  // aborts included — plus jitter, and the same on the destination console's links.
  FaultProfile lossy;
  lossy.loss = 0.10;
  lossy.delay_jitter = Milliseconds(1);
  fabric_.InjectFaults(server_a_.node(), server_b_.node(), lossy);
  fabric_.InjectFaults(server_b_.node(), server_a_.node(), lossy);
  fabric_.InjectFaults(server_b_.node(), console_b_.node(), lossy);
  fabric_.InjectFaults(console_b_.node(), server_b_.node(), lossy);

  // Like a real user, keep tapping the card until the desktop shows up.
  bool converged = false;
  for (int round = 0; round < 60 && !converged; ++round) {
    ServerSession* moved = server_b_.SessionForCard(card_);
    if (moved == nullptr || !moved->attached() || moved->console() != console_b_.node()) {
      console_b_.InsertCard(server_b_.node(), card_);
    }
    sim_.RunFor(Milliseconds(200));
    moved = server_b_.SessionForCard(card_);
    converged = moved != nullptr && moved->attached() &&
                moved->console() == console_b_.node() &&
                moved->framebuffer().ContentHash() == content_hash &&
                console_b_.framebuffer().ContentHash() == content_hash;
  }
  EXPECT_TRUE(converged) << "migration under 10% loss never converged";

  // Let stragglers (re-sent commits, release notices) settle, then check the invariant:
  // exactly one owning server, zero stale card mappings anywhere.
  sim_.RunFor(Seconds(1));
  EXPECT_EQ(pool_.owner(card_), &server_b_);
  EXPECT_EQ(pool_.owned_cards(), 1u);
  EXPECT_EQ(server_a_.SessionForCard(card_), nullptr);
  EXPECT_EQ(server_a_.session_count(), 0u);
  EXPECT_EQ(server_a_.card_count(), 0u);
  EXPECT_EQ(server_b_.session_count(), 1u);
  EXPECT_EQ(server_b_.card_count(), 1u);
  EXPECT_FALSE(manager_a_->MigrationInFlight());
  EXPECT_FALSE(manager_b_->MigrationInFlight());

  // The chaos was real (datagrams actually died), and the protocol actually retried.
  EXPECT_GT(fabric_.fault_stats().datagrams_dropped, 0);
  EXPECT_EQ(manager_a_->stats().committed, 1);
  EXPECT_EQ(manager_b_->stats().installs, 1);
}

// --- Crash failover from the warm standby ------------------------------------------------

TEST_F(MigrationFixture, KilledServerFailsOverToWarmStandby) {
  manager_a_->EnableStandby(&server_b_, Milliseconds(50));
  const uint64_t content_hash = StartSessionAtA();
  // Let the standby replication lap the last draw so B's warm blob holds the final state.
  sim_.RunFor(Milliseconds(300));
  EXPECT_GT(manager_a_->stats().standby_sent, 0);
  EXPECT_GT(manager_b_->stats().standby_stored, 0);
  ASSERT_TRUE(manager_b_->HasWarmCheckpoint(card_));

  // Power failure on A: its endpoint goes deaf and mute mid-flight.
  pool_.KillServer(&server_a_);
  EXPECT_FALSE(pool_.alive(&server_a_));

  // The user walks to a console homed on the standby and taps the card.
  console_b_.InsertCard(server_b_.node(), card_);
  sim_.RunFor(Seconds(1));

  ServerSession* restored = server_b_.SessionForCard(card_);
  ASSERT_NE(restored, nullptr);
  EXPECT_TRUE(restored->attached());
  EXPECT_EQ(restored->console(), console_b_.node());
  // The forced full repaint puts the pre-crash desktop on the new console bit-exactly.
  EXPECT_EQ(restored->framebuffer().ContentHash(), content_hash);
  EXPECT_EQ(console_b_.framebuffer().ContentHash(), content_hash);
  EXPECT_EQ(pool_.owner(card_), &server_b_);
  EXPECT_EQ(manager_b_->stats().failover_restores, 1);
  EXPECT_EQ(manager_b_->stats().cold_starts, 0);
  EXPECT_FALSE(manager_b_->MigrationInFlight());
}

TEST_F(MigrationFixture, DeadOwnerWithoutWarmCheckpointColdStarts) {
  StartSessionAtA();  // no standby: nothing replicated
  pool_.KillServer(&server_a_);
  console_b_.InsertCard(server_b_.node(), card_);
  sim_.RunFor(Seconds(1));

  // The session is lost (that is what "no standby" means) but the user is not locked out:
  // the card gets a fresh session on B and the directory converges to one owner.
  ServerSession* fresh = server_b_.SessionForCard(card_);
  ASSERT_NE(fresh, nullptr);
  EXPECT_TRUE(fresh->attached());
  EXPECT_EQ(pool_.owner(card_), &server_b_);
  EXPECT_EQ(manager_b_->stats().cold_starts, 1);
  EXPECT_EQ(manager_b_->stats().failover_restores, 0);
}

// --- Observability ----------------------------------------------------------------------

TEST_F(MigrationFixture, MigrationCountersRegisterAndReadBack) {
  MetricRegistry registry;
  ASSERT_TRUE(server_a_.RegisterMetrics(&registry, "server"));
  EXPECT_TRUE(registry.Contains("server.migration.started"));
  EXPECT_TRUE(registry.Contains("server.migration.committed"));
  EXPECT_TRUE(registry.Contains("server.migration.installs"));
  EXPECT_TRUE(registry.Contains("server.migration.blackout_last_ns"));
  EXPECT_TRUE(registry.Contains("server.checkpoint.captures"));
  EXPECT_TRUE(registry.Contains("server.checkpoint.restores"));

  StartSessionAtA();
  console_b_.InsertCard(server_b_.node(), card_);
  sim_.RunFor(Seconds(2));
  EXPECT_EQ(registry.CounterValue("server.migration.started").value_or(-1), 1);
  EXPECT_EQ(registry.CounterValue("server.migration.committed").value_or(-1), 1);
  EXPECT_GT(registry.CounterValue("server.checkpoint.captures").value_or(-1), 0);
}

}  // namespace
}  // namespace slim
