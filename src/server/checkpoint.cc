#include "src/server/checkpoint.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/codec/damage_tracker.h"
#include "src/protocol/wire.h"
#include "src/server/session.h"
#include "src/util/check.h"

namespace slim {

namespace {

// Hard ceilings the decoder enforces so a corrupt length field cannot request an absurd
// allocation: the largest session geometry anyone simulates is well under 16k x 16k, and
// pending damage is Coalesce()-bounded long before it reaches hundreds of rects.
constexpr int32_t kMaxDimension = 16384;
constexpr uint32_t kMaxDamageRects = 1u << 16;

// Pixel sections are one little-endian byte block: a straight copy on little-endian hosts,
// a per-pixel byte swap elsewhere.
void WritePixels(ByteWriter& w, std::span<const Pixel> pixels) {
  if constexpr (std::endian::native == std::endian::little) {
    w.Bytes({reinterpret_cast<const uint8_t*>(pixels.data()), pixels.size_bytes()});
  } else {
    for (const Pixel p : pixels) {
      w.U32(p);
    }
  }
}

bool ReadPixels(ByteReader& r, size_t n, std::vector<Pixel>* out) {
  const std::span<const uint8_t> bytes = r.View(n * sizeof(Pixel));
  if (!r.ok()) {
    return false;
  }
  out->resize(n);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out->data(), bytes.data(), bytes.size());
  } else {
    ByteReader block(bytes);
    for (Pixel& p : *out) {
      p = block.U32();
    }
  }
  return true;
}

}  // namespace

std::vector<uint8_t> EncodeCheckpoint(const SessionCheckpoint& ckpt) {
  ByteWriter body;
  body.U32(ckpt.origin_session);
  body.U64(ckpt.card_id);
  body.U8(ckpt.lifecycle_state);
  body.U64(ckpt.console_send_seq);
  body.I32(ckpt.width);
  body.I32(ckpt.height);
  WritePixels(body, ckpt.fb_pixels);
  body.U8(ckpt.tracker_present ? 1 : 0);
  if (ckpt.tracker_present) {
    body.U8(ckpt.tracker_valid ? 1 : 0);
    for (const uint64_t h : ckpt.shadow_row_hashes) {
      body.U64(h);
    }
    WritePixels(body, ckpt.shadow_pixels);
  }
  body.U32(static_cast<uint32_t>(ckpt.damage.size()));
  for (const Rect& rect : ckpt.damage) {
    body.I32(rect.x);
    body.I32(rect.y);
    body.I32(rect.w);
    body.I32(rect.h);
  }
  body.I64(ckpt.interactive_grant_bps);
  body.I64(ckpt.video_grant_bps);
  body.I64(ckpt.link_total_bps);
  body.I64(ckpt.video_deferred);
  body.I64(ckpt.video_dropped);
  body.I64(ckpt.coalesced_flushes);
  body.I64(ckpt.commands_sent);
  body.I64(ckpt.bytes_sent);
  body.I64(ckpt.render_time);
  body.I64(ckpt.encode_time);
  body.I64(ckpt.wire_time);
  for (int t = 1; t < 6; ++t) {
    body.I64(ckpt.encode_stats[t].commands);
    body.I64(ckpt.encode_stats[t].wire_bytes);
    body.I64(ckpt.encode_stats[t].uncompressed_bytes);
    body.I64(ckpt.encode_stats[t].pixels);
  }

  ByteWriter w;
  w.U32(kCheckpointMagic);
  w.U32(kCheckpointVersion);
  w.U64(static_cast<uint64_t>(body.size()));
  w.Bytes(body.data());
  return w.Take();
}

std::optional<SessionCheckpoint> DecodeCheckpoint(std::span<const uint8_t> blob) {
  ByteReader r(blob);
  if (r.U32() != kCheckpointMagic) {
    return std::nullopt;
  }
  if (r.U32() != kCheckpointVersion) {
    // A newer (or garbage) version: refuse rather than guess at the layout. Restoring a
    // half-understood session is strictly worse than forcing a fresh one.
    return std::nullopt;
  }
  const uint64_t body_len = r.U64();
  if (!r.ok() || r.remaining() != body_len) {
    return std::nullopt;  // length-prefix and buffer must agree exactly
  }

  SessionCheckpoint ckpt;
  ckpt.origin_session = r.U32();
  ckpt.card_id = r.U64();
  ckpt.lifecycle_state = r.U8();
  ckpt.console_send_seq = r.U64();
  ckpt.width = r.I32();
  ckpt.height = r.I32();
  if (!r.ok() || ckpt.width <= 0 || ckpt.height <= 0 || ckpt.width > kMaxDimension ||
      ckpt.height > kMaxDimension || ckpt.lifecycle_state > 1) {
    return std::nullopt;
  }
  const size_t pixel_count = static_cast<size_t>(ckpt.width) * static_cast<size_t>(ckpt.height);
  // Cheap up-front bound: the framebuffer section alone needs 4 bytes per pixel; a blob
  // shorter than that lies about its geometry.
  if (r.remaining() < pixel_count * sizeof(Pixel)) {
    return std::nullopt;
  }
  if (!ReadPixels(r, pixel_count, &ckpt.fb_pixels)) {
    return std::nullopt;
  }
  ckpt.tracker_present = r.U8() != 0;
  if (ckpt.tracker_present) {
    ckpt.tracker_valid = r.U8() != 0;
    ckpt.shadow_row_hashes.resize(static_cast<size_t>(ckpt.height));
    for (auto& h : ckpt.shadow_row_hashes) {
      h = r.U64();
    }
    if (r.remaining() < pixel_count * sizeof(Pixel) ||
        !ReadPixels(r, pixel_count, &ckpt.shadow_pixels)) {
      return std::nullopt;
    }
  }
  const uint32_t rect_count = r.U32();
  if (!r.ok() || rect_count > kMaxDamageRects) {
    return std::nullopt;
  }
  ckpt.damage.resize(rect_count);
  for (Rect& rect : ckpt.damage) {
    rect.x = r.I32();
    rect.y = r.I32();
    rect.w = r.I32();
    rect.h = r.I32();
  }
  ckpt.interactive_grant_bps = r.I64();
  ckpt.video_grant_bps = r.I64();
  ckpt.link_total_bps = r.I64();
  ckpt.video_deferred = r.I64();
  ckpt.video_dropped = r.I64();
  ckpt.coalesced_flushes = r.I64();
  ckpt.commands_sent = r.I64();
  ckpt.bytes_sent = r.I64();
  ckpt.render_time = r.I64();
  ckpt.encode_time = r.I64();
  ckpt.wire_time = r.I64();
  for (int t = 1; t < 6; ++t) {
    ckpt.encode_stats[t].commands = r.I64();
    ckpt.encode_stats[t].wire_bytes = r.I64();
    ckpt.encode_stats[t].uncompressed_bytes = r.I64();
    ckpt.encode_stats[t].pixels = r.I64();
  }
  if (!r.ok() || r.remaining() != 0) {
    return std::nullopt;  // trailing garbage is as suspect as truncation
  }
  return ckpt;
}

void ServerSession::CaptureCheckpoint(SessionCheckpoint* out) const {
  out->origin_session = id_;
  out->width = fb_.width();
  out->height = fb_.height();
  out->fb_pixels.assign(fb_.data().begin(), fb_.data().end());

  out->tracker_present = tracker_ != nullptr;
  if (tracker_ != nullptr) {
    out->tracker_valid = tracker_->valid();
    const Framebuffer& shadow = tracker_->shadow();
    out->shadow_pixels.assign(shadow.data().begin(), shadow.data().end());
    out->shadow_row_hashes.resize(static_cast<size_t>(out->height));
    for (int32_t y = 0; y < out->height; ++y) {
      out->shadow_row_hashes[static_cast<size_t>(y)] = tracker_->row_hash(y);
    }
  } else {
    out->tracker_valid = false;
    out->shadow_pixels.clear();
    out->shadow_row_hashes.clear();
  }

  out->damage = damage_.rects();

  out->interactive_grant_bps = interactive_grant_bps_;
  out->video_grant_bps = video_grant_bps_;
  out->link_total_bps = link_total_bps_;
  out->video_deferred = video_deferred_;
  out->video_dropped = video_dropped_;
  out->coalesced_flushes = coalesced_flushes_;

  out->commands_sent = commands_sent_;
  out->bytes_sent = bytes_sent_;
  out->render_time = render_time_;
  out->encode_time = encode_time_;
  out->wire_time = wire_time_;
  for (int t = 0; t < 6; ++t) {
    out->encode_stats[t].commands = encode_stats_[t].commands;
    out->encode_stats[t].wire_bytes = encode_stats_[t].wire_bytes;
    out->encode_stats[t].uncompressed_bytes = encode_stats_[t].uncompressed_bytes;
    out->encode_stats[t].pixels = encode_stats_[t].pixels;
  }
}

void ServerSession::RestoreFromCheckpoint(const SessionCheckpoint& ckpt) {
  SLIM_CHECK(!attached());
  SLIM_CHECK(ckpt.width == fb_.width() && ckpt.height == fb_.height());
  SLIM_CHECK(ckpt.fb_pixels.size() == fb_.data().size());

  fb_.SetPixels(fb_.bounds(), ckpt.fb_pixels);

  if (tracker_ != nullptr) {
    if (ckpt.tracker_present && ckpt.shadow_pixels.size() == fb_.data().size() &&
        ckpt.shadow_row_hashes.size() == static_cast<size_t>(ckpt.height)) {
      tracker_->RestoreShadow(ckpt.shadow_pixels, ckpt.shadow_row_hashes,
                              ckpt.tracker_valid);
    } else {
      // Source ran without a tracker (or the blob's shadow is inconsistent): distrust
      // everything, worst case is one full retransmit on the next attach.
      tracker_->Invalidate();
    }
  }

  damage_.Clear();
  for (const Rect& r : ckpt.damage) {
    damage_.Add(r);
  }
  pending_.clear();
  staged_video_.reset();

  interactive_grant_bps_ = ckpt.interactive_grant_bps;
  video_grant_bps_ = ckpt.video_grant_bps;
  link_total_bps_ = ckpt.link_total_bps;
  video_deferred_ = ckpt.video_deferred;
  video_dropped_ = ckpt.video_dropped;
  coalesced_flushes_ = ckpt.coalesced_flushes;

  commands_sent_ = ckpt.commands_sent;
  bytes_sent_ = ckpt.bytes_sent;
  render_time_ = ckpt.render_time;
  encode_time_ = ckpt.encode_time;
  wire_time_ = ckpt.wire_time;
  for (int t = 0; t < 6; ++t) {
    encode_stats_[t].commands = ckpt.encode_stats[t].commands;
    encode_stats_[t].wire_bytes = ckpt.encode_stats[t].wire_bytes;
    encode_stats_[t].uncompressed_bytes = ckpt.encode_stats[t].uncompressed_bytes;
    encode_stats_[t].pixels = ckpt.encode_stats[t].pixels;
  }
}

}  // namespace slim
