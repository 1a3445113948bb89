// Shadow-frame damage refinement — the hash-accelerated damage pipeline.
//
// The server-side cost of the SLIM protocol is dominated by analyzing pixels to pick
// SET/BITMAP/FILL/COPY encodings (paper Section 4 / Table 4), and that cost is
// proportional to the damage area handed to the encoder. The damage sessions report is
// often over-broad: a full-window PutImage repaint of mostly-unchanged content, a
// RepaintAll of an idle screen, or a hint-less scroll that arrives as "everything
// changed". DamageTracker trims that damage to what actually changed before the encoder
// ever sees it.
//
// It keeps a shadow copy of the last-transmitted frame plus a RowHash64
// (src/fb/row_hash.h) per row. Every row starts stale. A write into the shadow (flushed
// damage, an out-of-band FILL, COPY or CSCS mirror) copies or fills only the pixels
// written and marks the touched rows stale; a stale row is hashed once, on demand, when
// something reads its hash (the scroll gate, a checkpoint capture), so a row the app
// overdraws several times between reads costs one hash, not one per write. Refinement
// is three layers, cheapest first:
//   1. Row hashes: a damaged row whose current-frame hash and shadow hash are both
//      already known and equal is discarded with one 64-bit compare.
//   2. Span memcmp: otherwise the row's changed extent [x_lo, x_hi] within the rect's
//      columns is found by pointer scans; runs of dirty rows merge into tight rects.
//   3. Scroll salvage: when a large damage block is the shadow frame shifted vertically
//      (DetectVerticalScroll's hash-indexed O(rows) pass against the shadow), the shift
//      is transmitted as one COPY command and only the residual diff is refined.
//
// The shadow is *server-side* soft state about what the console currently displays; the
// console itself stays stateless, exactly as the paper requires (DESIGN.md). Losing or
// distrusting the shadow (Invalidate) costs one full retransmit, nothing more.
//
// Threading: a tracker belongs to one session and is only touched from the session's
// owning thread, const reads included (row_hash settles stale rows in place). It runs
// before EncoderPool fan-out, so refinement does not perturb the pool's
// bit-identical-across-thread-counts contract — the pool just sees a smaller region.

#ifndef SRC_CODEC_DAMAGE_TRACKER_H_
#define SRC_CODEC_DAMAGE_TRACKER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/fb/framebuffer.h"
#include "src/fb/geometry.h"
#include "src/protocol/commands.h"

namespace slim {

// Resolves the damage-tracker toggle: SLIM_DAMAGE_TRACKER when set to a valid integer
// (0 disables, nonzero enables; warning on stderr for garbage), otherwise `fallback`.
bool DamageTrackerFromEnv(bool fallback);

class DamageTracker {
 public:
  DamageTracker(int32_t width, int32_t height);

  // Refines `damage` (whose rects must lie within bounds) to the sub-region whose pixels
  // differ from the shadow frame, then brings the shadow up to date with `fb` over the
  // whole damage region. The returned rects are pairwise disjoint, contained in
  // `damage`, and cover every differing pixel (property-tested in
  // tests/damage_tracker_test.cc).
  //
  // When scroll_out is non-null and scroll_max_shift > 0, the damage bounds are first
  // tested for a vertical scroll of the shadow; on a hit, one COPY command reproducing
  // the scroll is appended to scroll_out and applied to the shadow, so the refined
  // residual shrinks to the exposed strip. The caller must transmit scroll_out's commands
  // BEFORE the commands encoded from the refined region (the refinement is relative to
  // the post-copy shadow). The gate that decides whether to look for a scroll counts
  // changed rows over the damage bounds' columns only, so it relies on the session
  // invariant that the shadow equals `fb` outside the pending damage.
  //
  // While invalidated, refinement is suspended: damage passes through unrefined (the
  // shadow is synced from it), and the tracker revalidates once a damage region covering
  // the full frame has passed.
  Region Refine(const Framebuffer& fb, const Region& damage, int32_t scroll_max_shift = 0,
                std::vector<DisplayCommand>* scroll_out = nullptr);

  // Copies `rect` (clipped to bounds) from fb into the shadow without refining: the
  // caller transmitted the rect's new content out of band (direct COPY/CSCS commands,
  // which bypass the encoder).
  void SyncRect(const Framebuffer& fb, const Rect& rect);

  // Fills `rect` (clipped to bounds) in the shadow with `color`: the mirror of a FILL
  // command the caller transmitted out of band. Same effect as SyncRect from a frame that
  // holds the fill, without reading that frame.
  void FillRect(const Rect& rect, Pixel color);

  // Forgets what the remote end displays: the next full-frame Refine passes everything
  // through. Used on console attach (a fresh console's soft state is unknown) and for
  // loss-recovery resyncs (ServerSession::ForceRepaintAll), where trusting the shadow
  // would suppress the retransmission the caller is asking for.
  void Invalidate() { valid_ = false; }

  // Overwrites the shadow frame, its row hashes and the validity bit wholesale. This is
  // the checkpoint-restore path (src/server/checkpoint.cc): a migrated session must come
  // back with the exact shadow its source held, or the first post-migration Refine would
  // diff against the wrong "last transmitted" frame. `pixels` must hold width*height
  // entries and `hashes` height entries (checked); the hashes are taken as given.
  void RestoreShadow(std::span<const Pixel> pixels, std::span<const uint64_t> hashes,
                     bool valid);

  bool valid() const { return valid_; }
  const Framebuffer& shadow() const { return shadow_; }
  // RowHash64 of shadow row y; hashes the row first if it was written since its hash
  // was last read.
  uint64_t row_hash(int32_t y) const;

 private:
  // Copies rows [y0, y1) x columns [x0, x0+w) from fb into the shadow; the rows go stale.
  void CopySpans(const Framebuffer& fb, int32_t y0, int32_t y1, int32_t x0, int32_t w);

  Framebuffer shadow_;
  // row_hashes_[y] is RowHash64(shadow_.Row(y)) unless row_stale_[y] is set. Settling a
  // stale row does not change what the tracker represents, so it happens behind const
  // readers (row_hash, checkpoint capture).
  mutable std::vector<uint64_t> row_hashes_;
  mutable std::vector<uint8_t> row_stale_;
  bool valid_ = true;  // shadow starts black, matching a fresh console's framebuffer

  // Per-Refine scratch: full-row hashes of the frame being refined, computed by the
  // full-width scroll gate and kept as a member so the hot path does not reallocate.
  std::vector<uint64_t> fb_row_hashes_;
};

}  // namespace slim

#endif  // SRC_CODEC_DAMAGE_TRACKER_H_
